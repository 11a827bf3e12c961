"""Keyed join between two page datasets (reference --unordered mode, SURVEY.md J1).

Reference semantics (/root/reference/src/hash_dup_remover.hpp:257-347): both
paired inputs are sorted by id tag, then a two-pointer merge keeps ids present
on both sides (inner join) and counts rows without a partner as
``unmatch_reads`` (a counted anti-join residue); matched pairs then flow into
composite-key dedup.

Ray-Data-first: no sort needed — an equality join is a hash partition. Each
side keeps its first row per key (``dedup_exact`` on the key), then one
``exchange.cogroup`` meets both sides per key bucket and pairs them there;
matched and unmatched counts are distinct-key counts. If an id repeats within
one side, the first occurrence by order wins (the reference's streams have
unique ids by construction; web crawls do not). ``anti_join`` is a
``semi_filter`` membership gate on the right side's keys.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .dedup_exact import DEFAULT_ORDER, _row_key, dedup_exact, with_key_route
from .exchange import cogroup, semi_filter


@dataclass
class JoinResult:
    pairs: ray.data.Dataset  # one row per matched key: left cols + right cols (suffixed)
    left_total: int  # distinct keys on the left (a null key counts once)
    right_total: int
    matched: int
    # distinct keys with no partner on the other side, summed over both
    # sides, as SQL counts them over DISTINCT keys. refmodel.join_unordered
    # counts unmatched input ROWS instead: L = a, b, v, v and R = a, b, w
    # give 2 here and 3 there.
    unmatched: int


def _key_type(ds: ray.data.Dataset, key: str):
    """Arrow type of ``key`` in ``ds`` (None when unknown)."""
    schema = ds.schema()
    if schema is None:
        return None
    t = dict(zip(schema.names, schema.types)).get(key)
    return t if isinstance(t, pa.DataType) else None


def _first_rows(ds: ray.data.Dataset, key: str, order_cols) -> ray.data.Dataset:
    """The first row per ``key`` by the side's order columns that are
    present (the key itself when it has none), materialized."""
    ds = ds.materialize()
    names = ds.schema().names if ds.schema() else []
    ocols = [c for c in order_cols if c in names] or [key]
    return dedup_exact(ds, key_cols=(key,), order_cols=ocols).materialize()


def _pair_rows(l: pa.Table, r: pa.Table, key: str) -> pa.Table:
    """Inner join of two key-unique tables (null keys match nothing).
    Clashing non-key columns get ``_l`` / ``_r``."""
    if key not in l.column_names:  # an all-empty side of unknown schema
        l = pa.table({key: pa.array([], r[key].type if key in r.column_names else pa.null())})
    if key not in r.column_names:
        r = pa.table({key: pa.array([], l[key].type)})
    values = r[key].combine_chunks().cast(l[key].type)
    pos = pc.index_in(l[key].combine_chunks(), value_set=values, skip_nulls=True)
    hit = pc.is_valid(pos)
    l, r = l.filter(hit), r.take(pos.filter(hit))
    clash = (set(l.column_names) & set(r.column_names)) - {key}
    names = [f"{c}_l" if c in clash else c for c in l.column_names]
    names += [f"{c}_r" if c in clash else c for c in r.column_names if c != key]
    cols = [l[c] for c in l.column_names] + [r[c] for c in r.column_names if c != key]
    return pa.table(cols, names=names)


def join_unordered(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str = "url",
    order_cols=DEFAULT_ORDER,
) -> JoinResult:
    """Inner join on ``key`` with unmatched accounting (both sides deduped to
    first-occurrence-per-key first, mirroring the reference's unique-id merge).

    Both first-per-key sides route on ``key`` hashed at the left key's type
    and pair up per bucket of one ``cogroup``; clashing non-key columns get
    ``_l`` / ``_r`` (the CLI reads ``text_l``, ``text_r`` and ``warc_ts_l``).
    Null keys match nothing, as in SQL."""
    l1 = _first_rows(left, key, order_cols)
    r1 = _first_rows(right, key, order_cols)
    route = functools.partial(with_key_route, key=key, col="_jk", key_type=_key_type(l1, key))

    def pair(l: pa.Table, r: pa.Table) -> pa.Table:
        drop = lambda t: t.drop_columns(["_jk"]) if "_jk" in t.column_names else t
        return _pair_rows(drop(l), drop(r), key)

    pairs = cogroup(
        l1.map_batches(route, batch_format="pyarrow"),
        r1.map_batches(route, batch_format="pyarrow"),
        "_jk",
        pair,
    ).materialize()
    lt, rt, matched = l1.count(), r1.count(), pairs.count()
    return JoinResult(
        pairs=pairs,
        left_total=lt,
        right_total=rt,
        matched=matched,
        unmatched=(lt - matched) + (rt - matched),
    )


def anti_join(left: ray.data.Dataset, right: ray.data.Dataset, key: str) -> ray.data.Dataset:
    """Rows of ``left`` whose ``key`` never occurs in ``right`` — J1's
    ``unmatch_reads`` residue materialized as rows instead of a count
    (/root/reference/src/hash_dup_remover.hpp:257-347 counts them).

    One ``semi_filter(keep=False)``: the right side's non-null keys, cast to
    the left key type and deduplicated per batch, are the key set, and each
    left row probes with its key's ``_row_key``. Null-keyed left rows match
    nothing and survive."""
    key_type = _key_type(left, key)

    def right_keys(t: pa.Table) -> pa.Table:
        k = pc.unique(pc.drop_null(t[key]).combine_chunks())
        if key_type is not None:
            k = k.cast(key_type)
        k1, k2 = _row_key(pa.table({key: k}), [key])
        return pa.table({"_k1": pa.array(k1, pa.uint64()), "_k2": pa.array(k2, pa.uint64())})

    keys = right.select_columns([key]).map_batches(right_keys, batch_format="pyarrow")
    return semi_filter(left, keys, functools.partial(_row_key, cols=[key]))
