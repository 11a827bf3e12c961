"""Keyed join between two page datasets (reference --unordered mode, SURVEY.md J1).

Reference semantics (/root/reference/src/hash_dup_remover.hpp:257-347): both
paired inputs are sorted by id tag, then a two-pointer merge keeps ids present
on both sides (inner join) and counts rows without a partner as
``unmatch_reads`` (a counted anti-join residue); matched pairs then flow into
composite-key dedup.

Ray-Data-first: no sort needed — an equality join is a hash partition. Uses
``Dataset.join`` (hash-partitioned) for the inner join; unmatched counts come
from two cheap distinct-key counts instead of materializing the anti-join.
If an id repeats within one side, the first occurrence by order wins (the
reference's streams have unique ids by construction; web crawls do not).
"""

from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..util import coalesce_schema_blocks, default_join_partitions
from .dedup_exact import DEFAULT_ORDER


@dataclass
class JoinResult:
    pairs: ray.data.Dataset  # one row per matched key: left cols + right cols (suffixed)
    left_total: int
    right_total: int
    matched: int
    unmatched: int  # rows with no partner on the other side, summed over both sides


def _first_per_key(
    ds: ray.data.Dataset,
    key: str,
    order_cols,
    num_buckets: int = 32,
    drop_broadcast_budget: int = 5_000_000,
) -> ray.data.Dataset:
    """Keep the first row per key by order.

    Default path (order columns present): a SLIM (key, order) projection
    finds the losing rows via one bucketed groupby; the drop set — the
    duplicate keys only, usually tiny — broadcasts back as a filter over the
    original blocks. The payload never enters a shuffle, and the output
    keeps the input schema even when empty (a full-row map_groups pass can
    emit schema-less empty blocks that break downstream Arrow hash joins).
    Falls back to the payload-shuffle pass when no order column exists (no
    way to name a loser row), the drop set exceeds the broadcast budget, or
    any loser's (key, order) tuple TIES its winner's — the tuple then cannot
    name the loser alone and the broadcast filter would drop the winner too
    (every kept row of that key)."""
    names = list(ds.schema().names)
    ocols = [c for c in order_cols if c in names and c != key]
    if not ocols:
        return _first_per_key_shuffle(ds, key, [], num_buckets)
    slim_cols = [key, *ocols]

    from ..functions.hashing import hash64
    from .minhash import _hash_exchange_tasks

    def slim_map(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in slim_cols}
        cols["_jkey"] = pa.array(
            hash64(t[key].to_numpy(zero_copy_only=False)), pa.uint64()
        )
        return pa.table(cols)

    def losers(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(ocols, kind="mergesort")
        lose = df.duplicated(subset=[key], keep="first")
        out = df.loc[lose, slim_cols].copy()
        # a loser whose full (key, order) tuple equals its key's winner tuple
        # is indistinguishable from the winner in the broadcast filter — flag
        # it so the caller takes the exact shuffle limb instead
        winners = df.loc[~lose, slim_cols]
        widx = pd.MultiIndex.from_arrays([winners[c] for c in slim_cols])
        lidx = pd.MultiIndex.from_arrays([out[c] for c in slim_cols])
        out["_ambig"] = lidx.isin(widx)
        return out

    def losers_tab(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            proj = (
                t.select(slim_cols)
                if t is not None
                else pa.table({c: pa.array([], pa.string()) for c in slim_cols})
            )
            return proj.append_column("_ambig", pa.array([], pa.bool_()))
        out = losers(t.select(slim_cols).to_pandas())
        return pa.Table.from_pandas(
            out,
            preserve_index=False,
            schema=t.select(slim_cols).schema.append(pa.field("_ambig", pa.bool_())),
        )

    drops = _hash_exchange_tasks(
        ds.map_batches(slim_map, batch_format="pyarrow"), "_jkey", num_buckets, losers_tab
    )
    n_drops = drops.count()
    if n_drops == 0:
        return ds
    # the broadcast filter wins when duplicates are RARE (web-crawl ids):
    # the payload never shuffles. With heavy duplication (e.g. many orders
    # per customer) the per-batch tuple-set membership dwarfs one shuffle —
    # fall back. Both limbs are exact.
    if n_drops > drop_broadcast_budget or n_drops * 10 > ds.count():
        return _first_per_key_shuffle(ds, key, ocols, num_buckets)

    from .minhash import _fetch_cached

    ddf = drops.to_pandas()
    if bool(ddf["_ambig"].any()):
        # at least one loser ties its winner on every order column — only the
        # shuffle pass can keep exactly one row of that key
        return _first_per_key_shuffle(ds, key, ocols, num_buckets)
    drop_ref = ray.put(pa.table({c: pa.array(ddf[c]) for c in slim_cols}))

    def keep_filter(df: pd.DataFrame) -> pd.DataFrame:
        dlist = _fetch_cached(
            drop_ref, lambda t: set(zip(*(t[c].to_pylist() for c in slim_cols)))
        )
        idx = pd.MultiIndex.from_arrays([df[c] for c in slim_cols])
        return df[~idx.isin(dlist)]

    return ds.map_batches(keep_filter, batch_format="pandas")


def _first_per_key_shuffle(ds: ray.data.Dataset, key: str, ocols, num_buckets: int) -> ray.data.Dataset:
    """Payload-shuffle fallback, routed through the task exchange (zero-row
    reduce slices keep the real schema; a FULLY empty input falls back to the
    dataset's own schema so downstream hash joins still see the key column)."""
    from ..functions.hashing import hash64
    from .minhash import _hash_exchange_tasks

    try:
        schema = ds.schema()
        empty_all = pa.schema(
            [pa.field(n, t) for n, t in zip(schema.names, schema.types)]
        ).empty_table()
    except Exception:
        empty_all = pa.table({})

    def bucketize(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_jkey", pa.array(hash64(t[key].to_numpy(zero_copy_only=False)), pa.uint64())
        )

    def first_tab(t: pa.Table | None) -> pa.Table:
        if t is None:
            return empty_all
        out_schema = t.drop_columns(["_jkey"]).schema
        if t.num_rows == 0:
            return t.drop_columns(["_jkey"])
        df = t.to_pandas()
        if ocols:
            df = df.sort_values(ocols, kind="mergesort")
        df = df.drop_duplicates(subset=[key], keep="first").drop(columns=["_jkey"])
        return pa.Table.from_pandas(df, preserve_index=False, schema=out_schema)

    return _hash_exchange_tasks(
        ds.map_batches(bucketize, batch_format="pyarrow"), "_jkey", num_buckets, first_tab
    )


def join_unordered(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str = "url",
    order_cols=DEFAULT_ORDER,
    num_partitions: int | None = None,
    broadcast_budget: int = 2_000_000,
) -> JoinResult:
    """Inner join on ``key`` with unmatched accounting (both sides deduped to
    first-occurrence-per-key first, mirroring the reference's unique-id merge).

    When one side fits ``broadcast_budget`` rows it is broadcast once via
    ``ray.put`` and the join runs as a map-side pandas merge over the big
    side — zero shuffle (the canonical dimension-join pattern at 100 TB).
    Suffix semantics match ``Dataset.join`` (clashing non-key columns get
    _l/_r), which handles the above-budget fallback."""
    num_partitions = num_partitions or default_join_partitions()
    # coalesce: map_groups can emit schema-less empty blocks that break the
    # Arrow hash join (reproduced with read_parquet inputs at 32 CPUs)
    l1 = coalesce_schema_blocks(_first_per_key(left, key, order_cols)).materialize()
    r1 = coalesce_schema_blocks(_first_per_key(right, key, order_cols)).materialize()
    lt, rt = l1.count(), r1.count()
    if min(lt, rt) <= broadcast_budget:
        pairs = _broadcast_inner_join(l1, r1, key, small_is_right=(rt <= lt)).materialize()
    else:
        pairs = l1.join(
            r1,
            "inner",
            num_partitions=num_partitions,
            on=(key,),
            left_suffix="_l",
            right_suffix="_r",
        ).materialize()
    matched = pairs.count()
    return JoinResult(
        pairs=pairs,
        left_total=lt,
        right_total=rt,
        matched=matched,
        unmatched=(lt - matched) + (rt - matched),
    )


def _broadcast_inner_join(
    l1: ray.data.Dataset, r1: ray.data.Dataset, key: str, small_is_right: bool
) -> ray.data.Dataset:
    """Map-side inner join: the small side ships once as Arrow via ray.put
    and each big-side batch pandas-merges against the worker-cached frame
    (suffixes ("_l", "_r") on clashing non-key columns, like Dataset.join)."""
    import pyarrow as pa
    import ray as _ray

    from .minhash import _fetch_cached

    big, small = (l1, r1) if small_is_right else (r1, l1)

    def _to_arrow(ds: ray.data.Dataset) -> pa.Table:
        tabs = [b for b in ds.iter_batches(batch_format="pyarrow")]
        return pa.concat_tables(tabs) if tabs else None

    small_tab = _to_arrow(small)
    if small_tab is None or small_tab.num_rows == 0:
        # empty small side -> empty inner join with the joined schema
        def empty(df: pd.DataFrame) -> pd.DataFrame:
            return df.iloc[0:0]

        return big.map_batches(empty, batch_format="pandas")
    small_ref = _ray.put(small_tab)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        sdf = _fetch_cached(small_ref, lambda t: t.to_pandas())
        if small_is_right:
            return df.merge(sdf, on=key, how="inner", suffixes=("_l", "_r"))
        return sdf.merge(df, on=key, how="inner", suffixes=("_l", "_r"))

    return big.map_batches(merge, batch_format="pandas")


def _key_values(col):
    """Null-safe numpy view of a key column: ``(values, valid)``.

    Integer keys keep their integer dtype — ``to_numpy`` on a nullable int
    column decays to float64, which cannot tell keys above 2**53 apart — so
    their nulls are filled with 0 and flagged by ``valid`` instead. Other
    types convert as-is (object arrays carry None; ``valid`` still marks
    them)."""
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(col.type) and col.null_count:
        col = pc.fill_null(col, 0)
    return col.to_numpy(zero_copy_only=False), valid


def anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    broadcast_budget: int = 2_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Rows of ``left`` whose ``key`` never occurs in ``right`` — J1's
    ``unmatch_reads`` residue materialized as rows instead of a count
    (/root/reference/src/hash_dup_remover.hpp:257-347 counts them).

    Small right side (by raw row count — conservative): its distinct keys
    broadcast once as a sorted array and a zero-copy Arrow searchsorted
    filter runs over the left — no shuffle, payload untouched. Large right:
    one side-tagged task hash-exchange co-locates the left payload with the
    right's deduped keys by key hash; each bucket drops left rows whose key
    has a marker neighbour — the left payload moves exactly once and no
    aggregator actors pin CPUs (``num_partitions`` is accepted for API
    compatibility; the exchange sizes its own fan-out).
    """
    import numpy as np
    import ray as _ray

    from .minhash import _default_shuffle_buckets, _fetch_cached, _hash_exchange_tasks

    from ..util import sorted_isin

    slim = right.select_columns([key]).materialize()
    if slim.count() <= broadcast_budget:
        # null right keys match nothing (SQL equality) — drop before unique,
        # which would otherwise raise sorting None in an object array
        tabs = [
            t.filter(pc.is_valid(t[key]))
            for t in _ray.get(slim.to_arrow_refs())
            if t.num_rows > 0
        ]
        tabs = [t for t in tabs if t.num_rows > 0]
        if not tabs:
            return left  # empty right: every left row is unmatched
        keys = np.unique(_key_values(pa.concat_tables(tabs)[key])[0])
        ref = _ray.put(keys)

        def keep_unmatched(t: pa.Table) -> pa.Table:
            ks = _fetch_cached(ref)
            v, valid = _key_values(t[key])
            # null-keyed left rows match nothing and survive
            return t.filter(pa.array(~(sorted_isin(v, ks) & valid)))

        return left.map_batches(keep_unmatched, batch_format="pyarrow")

    # Above budget: ONE side-tagged task hash-exchange co-locates the left
    # payload with the right side's (per-batch-deduped) keys by key hash;
    # each bucket filters locally with a sorted-array membership test.
    # Replaces the aggregator-actor ``Dataset.join`` limb (measured 15.6 s
    # at 4.12M x 2.06M rows in round 3 — the join's flat machinery cost,
    # not bytes moved; see BASELINE.md round-5 for the exchange timing).
    B = _default_shuffle_buckets()
    # coalesce first: groupby-born datasets carry schema-less empty pandas
    # blocks (the failure util.coalesce_schema_blocks exists for), and the
    # per-block tag/exchange below needs one uniform Arrow schema
    mat_left = coalesce_schema_blocks(left).materialize()
    if mat_left.count() == 0:
        return mat_left
    lschema = mat_left.take_batch(1, batch_format="pyarrow").schema
    lcols = list(lschema.names)
    key_type = lschema.field(key).type

    def _key_hash(col) -> pa.Array:
        # both sides hash the key at the LEFT key type, so a key's bucket
        # never depends on its side or on whether its block held a null
        # (null rows land anywhere: they match nothing)
        vals = _key_values(col.cast(key_type))[0]
        return pa.array(pd.util.hash_array(vals).astype(np.uint64), pa.uint64())

    def tag_left(t: pa.Table) -> pa.Table:
        return t.append_column("_kh", _key_hash(t[key])).append_column(
            "_am", pa.array(np.zeros(t.num_rows, dtype=np.int8))
        )

    def pad_right_arrow(t: pa.Table) -> pa.Table:
        # dedupe per batch and drop null keys (they match nothing); non-key
        # left columns pad as typed nulls
        kv = pc.unique(pc.drop_null(t[key])).cast(key_type)
        cols = {
            f.name: kv if f.name == key else pa.nulls(len(kv), f.type)
            for f in lschema
        }
        cols["_kh"] = _key_hash(kv)
        cols["_am"] = pa.array(np.full(len(kv), 1, dtype=np.int8))
        return pa.table(cols)

    def bucket_filter(t: pa.Table | None) -> pa.Table:
        if t is None:
            return pa.schema(
                [pa.field(n, lschema.field(n).type) for n in lcols]
            ).empty_table()
        is_marker = pc.equal(t["_am"], 1)
        lrows = t.filter(pc.invert(is_marker)).select(lcols)
        if lrows.num_rows == 0:
            return lrows
        mk = t.filter(is_marker)
        if mk.num_rows == 0:
            return lrows
        ks = np.unique(_key_values(mk[key])[0])
        v, valid = _key_values(lrows[key])
        return lrows.filter(pa.array(~(sorted_isin(v, ks) & valid)))

    tagged = mat_left.map_batches(tag_left, batch_format="pyarrow").union(
        slim.map_batches(pad_right_arrow, batch_format="pyarrow")
    )
    return _hash_exchange_tasks(tagged, "_kh", B, bucket_filter)
