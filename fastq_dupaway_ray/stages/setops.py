"""Keyed set operations (INTERSECT / EXCEPT by key) — Arrow-native stage.

SURVEY.md §2.7: the reference's ``--unordered`` merge machinery doubles as
set algebra over record-id sets (/root/reference/src/fastq_dedup.cpp's
unordered path); here the general form is distinct-key INTERSECT/EXCEPT
between two sides of a corpus, as ONE ``exchange.cogroup`` — no join, no
second shuffle:

* each batch emits its distinct keys (an Arrow hash aggregate — the
  combiner: a batch with 50k repeats of one key ships one row for it),
  routed on the key hashed at the left key's type (``_row_key``: integers
  by value, other types by SipHash);
* each bucket takes the left side's distinct keys and tests them against
  the right side's: ``intersect`` keeps keys seen on both sides, ``except_``
  keys seen only on the left. A null key equals a null key, as in SQL set
  operations.

Output is the distinct key column (ANSI set-op semantics).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .dedup_exact import with_key_route


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
    from .exchange import cogroup

    def distinct(t: pa.Table, key_type=None) -> pa.Table:
        keys = pa.table({key_col: t[key_col]}).group_by(key_col).aggregate([])
        return with_key_route(keys, key_col, "_bkt", key_type)

    tl = left.map_batches(distinct, batch_format="pyarrow").materialize()
    ls = tl.schema()
    if ls is None:
        return tl  # no left rows: no keys either way
    tr = right.map_batches(
        distinct, batch_format="pyarrow", fn_kwargs={"key_type": ls.base_schema.field(key_col).type}
    )

    def per_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        keys = l.group_by(key_col).aggregate([])[key_col]
        if key_col in r.column_names:
            seen = pc.is_in(keys, value_set=r[key_col].combine_chunks())
        else:  # no right rows at all
            seen = pa.array([False] * len(keys))
        return pa.table({key_col: keys.filter(seen if op == "intersect" else pc.invert(seen))})

    return cogroup(tl, tr, "_bkt", per_bucket)
