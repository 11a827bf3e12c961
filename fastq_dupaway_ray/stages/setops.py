"""Keyed set operations (INTERSECT / EXCEPT by key) — Arrow-native stage.

SURVEY.md §2.7: the reference's ``--unordered`` merge machinery doubles as
set algebra over record-id sets (/root/reference/src/fastq_dedup.cpp's
unordered path); here the general form is distinct-key INTERSECT/EXCEPT
between two sides of a corpus, as ONE bucketed exchange with side tags —
no join, no second shuffle:

* each batch emits (key, side) pairs, pre-deduplicated per batch (an Arrow
  hash aggregate — the combiner: a batch with 50k repeats of one key ships
  at most 2 rows for it);
* keys hash-bucket (the repo's SipHash ``hash64`` for strings, identity
  mod for ints) and each bucket reduces side-presence with one more Arrow
  aggregate: ``intersect`` keeps keys seen on both sides, ``except_`` keys
  seen only on the left.

Output is the distinct key column (ANSI set-op semantics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def keyed_set_op(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    op: str,
    key_col: str = "text",
) -> ray.data.Dataset:
    """Distinct ``key_col`` values per ANSI ``INTERSECT`` / ``EXCEPT``
    between ``left`` and ``right``."""
    if op not in ("intersect", "except"):
        raise ValueError(f"keyed_set_op: op must be intersect|except, got {op!r}")
    from .exchange import default_shuffle_buckets
    from ..functions.hashing import hash64

    B = default_shuffle_buckets()

    def tagger(side: int):
        def tag(t: pa.Table) -> pa.Table:
            keys = t[key_col].combine_chunks()
            small = pa.table({key_col: keys}).group_by(key_col).aggregate([])
            k = small[key_col].combine_chunks()
            if pa.types.is_integer(k.type):
                bkt = k.to_numpy(zero_copy_only=False).astype(np.int64) % B
            else:
                bkt = (
                    hash64(k.to_numpy(zero_copy_only=False).astype(object))
                    % np.uint64(B)
                ).astype(np.int64)
            return pa.table(
                {
                    key_col: k,
                    "_side": pa.array(np.full(len(k), side, dtype=np.int8)),
                    "_bkt": pa.array(bkt, pa.int64()),
                }
            )

        return tag

    tagged = left.map_batches(tagger(0), batch_format="pyarrow").union(
        right.map_batches(tagger(1), batch_format="pyarrow")
    )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(t, key_col).aggregate([("_side", "min"), ("_side", "max")])
        agg = agg.rename_columns([key_col, "_min", "_max"])
        if op == "intersect":
            keep = pc.and_(pc.equal(agg["_min"], 0), pc.equal(agg["_max"], 1))
        else:
            keep = pc.equal(agg["_max"], 0)
        return agg.filter(keep).select([key_col])

    return tagged.groupby("_bkt").map_groups(reduce_bucket, batch_format="pyarrow")
