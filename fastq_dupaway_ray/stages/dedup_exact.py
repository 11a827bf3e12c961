"""Exact keep-first dedup (reference --fast mode, SURVEY.md A1/A2).

Reference semantics (/root/reference/src/hash_dup_remover.hpp:105-148): scan
records in file order, keep the first occurrence of each (length, content)
identity, drop the rest; paired mode ANDs both mates into one composite key
(/root/reference/src/hash_dup_remover.cpp:26-33).

Ray-Data-first redesign of the global in-memory seen-set (ST1): there is no
shared mutable state. Instead:

1. a stateless ``map_batches`` projects each row to a slim identity row —
   the 128-bit content hash plus the order key (and the id when clusters
   are wanted); no within-batch combiner (see ``_keep_first_exchange``);
2. one task hash exchange (``minhash._hash_exchange_tasks``) co-locates equal
   identities — the bucket count is the exchange width, not the number of
   distinct keys;
3. one Arrow-vectorized pass per bucket keeps the first row per identity in
   arrival order (order key = (warc_ts, url) — "first in file order").

Shuffle shape at 100 TB: the heavy payload NEVER enters the exchange. The
slim rows decide which rows LOSE keep-first; the drop set — the duplicates,
the small side by definition — is broadcast and the full payload streams
through one filter pass (same pattern as stages.representative). The
duplicate clusters (--write-clusters) come from the same exchange: each slim
row also carries its identity group's winner id. When the drop set exceeds
the broadcast budget, or a loser fully ties its winner, the value-comparing
payload-shuffle path filters the payload instead (its local combiner still
pre-drops within-batch losers first).

Identity: two independent 64-bit hashes + per-column lengths (~2^-128
collision odds per pair — at 10^12 rows the expected collision count is
~1e-14; the reference's packed-sequence equality is exact, this is the
distributed-size tradeoff, documented).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import combine_hash64, hash64

DEFAULT_ORDER = ("warc_ts", "url")
_SALT2 = np.uint64(0xD6E8FEB86659FD93)


def _value_lengths(vals: np.ndarray) -> np.ndarray:
    """Per-value length fold (setRecord's (packed, len) identity,
    /root/reference/src/hash_dup_remover.hpp:19-41); zero for unsized types
    (ints/floats — their hash alone carries the identity)."""
    try:
        return np.fromiter(
            (len(v) if v is not None else 0 for v in vals), dtype=np.uint64, count=len(vals)
        )
    except TypeError:
        return np.zeros(len(vals), dtype=np.uint64)


def add_identity_columns(
    batch: pa.Table, key_cols=("text",), hash_col: str = "_key64", bucket_col: str = "_bucket", num_buckets: int = 64
) -> pa.Table:
    """Append the composite identity hash + shuffle bucket (vectorized)."""
    hashes = []
    for col in key_cols:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        vals = arr.to_numpy(zero_copy_only=False).astype(object)
        h = hash64(vals)
        lens = _value_lengths(vals)
        hashes.append(h)
        hashes.append(lens)
    key = combine_hash64(*hashes)
    bucket = (key % np.uint64(num_buckets)).astype(np.int64)
    return batch.append_column(hash_col, pa.array(key, pa.uint64())).append_column(
        bucket_col, pa.array(bucket, pa.int64())
    )


def _local_keep_first(df: pd.DataFrame, key_cols, order_cols) -> pd.DataFrame:
    """Vectorized within-partition keep-first by value equality."""
    df = df.sort_values(list(order_cols), kind="mergesort")
    return df.drop_duplicates(subset=list(key_cols), keep="first")


def _identity128(batch: pa.Table, key_cols) -> tuple:
    """Two independent 64-bit identity hashes + folded lengths.

    k2 folds a SECOND SipHash of the content (independent key), not an
    arithmetic remix of k1's inputs — a remix collapses collision resistance
    to 64 bits (inputs colliding on the first hash collide on both), which at
    10^12 docs yields thousands of expected false merges."""
    parts, parts2 = [], []
    for col in key_cols:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        vals = arr.to_numpy(zero_copy_only=False).astype(object)
        lens = _value_lengths(vals)
        parts.extend((hash64(vals), lens))
        parts2.extend((hash64(vals, alt_key=True), lens))
    k1 = combine_hash64(*parts)
    k2 = combine_hash64(*parts2, np.full(len(k1), _SALT2, dtype=np.uint64))
    return k1, k2


def _keep_first_bucket(
    t: pa.Table | None, slim_cols, order_cols, tie_cols, head_col: str | None
) -> pa.Table:
    """One exchange bucket's keep-first pass (Arrow-vectorized).

    Sorts the bucket by (content key pair, order cols, remaining slim cols):
    each identity run then starts with its keep-first winner. A row LOSES
    when it repeats its predecessor's key pair. ``_ambig`` marks a loser
    whose ``tie_cols`` tuple equals its run winner's — no slim key can name
    that loser alone, and the caller must fall back to a value-comparing
    dedup. With all tied columns in the sort keys, any such tie sits
    immediately after the winner; a loser tying another LOSER is fine (the
    tuple then names only losing rows, and dropping all of them is exact).

    ``head_col=None`` returns the losers only, as (slim cols, _k1, _k2,
    _ambig). Otherwise every row comes back, plus ``_lose`` and ``_head``
    (the run winner's ``head_col`` value) — the drop set and the duplicate
    clusters from one exchange."""
    out_cols = [*slim_cols, "_k1", "_k2"]
    if t is None:
        # no input block at all: a typed-empty table (string slim cols)
        t = pa.table(
            {
                **{c: pa.array([], pa.string()) for c in slim_cols},
                "_k1": pa.array([], pa.uint64()),
                "_k2": pa.array([], pa.uint64()),
            }
        )
    n = t.num_rows
    lose = np.zeros(n, dtype=bool)
    ambig = np.zeros(n, dtype=bool)
    if n:
        sort_cols = dict.fromkeys(["_k1", "_k2", *order_cols, *slim_cols])
        t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in sort_cols]))
        k1 = t["_k1"].to_numpy()
        k2 = t["_k2"].to_numpy()
        lose[1:] = (k1[1:] == k1[:-1]) & (k2[1:] == k2[:-1])
        same_tuple = np.ones(n, dtype=bool)
        same_tuple[0] = False
        for c in tie_cols:
            v = t[c].to_numpy(zero_copy_only=False)
            same_tuple[1:] &= v[1:] == v[:-1]
        ambig[1:] = lose[1:] & same_tuple[1:] & ~lose[:-1]
    out = t.select(out_cols)
    if head_col is None:
        out = out.filter(pa.array(lose))
        return out.append_column("_ambig", pa.array(ambig[lose], pa.bool_()))
    winner = np.maximum.accumulate(np.where(lose, 0, np.arange(n)))
    return (
        out.append_column("_ambig", pa.array(ambig, pa.bool_()))
        .append_column("_lose", pa.array(lose, pa.bool_()))
        .append_column("_head", t[head_col].take(pa.array(winner, pa.int64())))
    )


def _keep_first_exchange(
    ds: ray.data.Dataset,
    key_cols,
    order_cols,
    id_col: str | None,
    num_buckets: int,
    tie_cols,
    heads: bool,
    counters: dict | None,
) -> ray.data.Dataset:
    """The one slim exchange behind every exact keep-first entry point.

    One pass over the input computes the 128-bit content identity and
    projects the slim row (id, order cols, _k1, _k2); a task hash-exchange
    on _k1 co-locates equal identities and ``_keep_first_bucket`` runs per
    bucket. The payload never moves. ``counters`` receives ``n_input``
    (rows seen — block metadata of the materialized slim rows, so the input
    is not parsed again to count it)."""
    from .minhash import _hash_exchange_tasks

    slim_cols = list(dict.fromkeys([*([id_col] if id_col else []), *order_cols]))

    def slim(batch: pa.Table) -> pa.Table:
        k1, k2 = _identity128(batch, key_cols)
        cols = {c: batch[c] for c in slim_cols}
        cols["_k1"] = pa.array(k1, pa.uint64())
        cols["_k2"] = pa.array(k2, pa.uint64())
        return pa.table(cols)

    # NOTE: no within-batch combiner here. A combiner that removes local
    # losers before the exchange silently LOSES them — they never enter the
    # drop set and survive dedup (caught by the hypothesis conformance
    # tests on corpora with same-batch duplicates). Every slim identity row
    # (~40 bytes) must reach the exchange; the payload still never moves.
    slimtab = ds.map_batches(slim, batch_format="pyarrow").materialize()
    if counters is not None:
        counters["n_input"] = slimtab.count()
    fn = functools.partial(
        _keep_first_bucket,
        slim_cols=slim_cols,
        order_cols=list(order_cols),
        tie_cols=list(tie_cols),
        head_col=id_col if heads else None,
    )
    return _hash_exchange_tasks(slimtab, "_k1", num_buckets, fn)


def _drop_rows(t: pa.Table) -> pa.Table:
    return t.filter(t["_lose"]).drop_columns(["_lose", "_head"])


def _cluster_rows(t: pa.Table, id_col: str) -> pa.Table:
    member = t[id_col]
    return pa.table(
        {
            "cluster_id": t["_head"],
            "member": member,
            "is_representative": pc.fill_null(pc.equal(member, t["_head"]), False),
        }
    )


def dedup_exact(
    ds: ray.data.Dataset,
    key_cols=("text",),
    order_cols=DEFAULT_ORDER,
    num_buckets: int = 64,
    drop_broadcast_budget: int = 5_000_000,
    paranoid: bool = False,
    counters: dict | None = None,
) -> ray.data.Dataset:
    """Distributed exact keep-first dedup; returns the kept rows (lazy).

    ``key_cols`` with several entries reproduces paired-mode AND-semantics.
    ``order_cols`` must uniquely identify a row (the reference's arrival key
    is unique by construction — file position).

    Default path: slim identity exchange -> drop-set broadcast -> payload
    filter pass (see module docstring). ``num_buckets`` caps the exchange
    width — size it ~2-4x total cores; skew is no concern because bucketing
    is by uniform hash. Falls back to the payload-shuffle path when the
    drop set exceeds ``drop_broadcast_budget`` rows.

    ``paranoid=True`` selects the payload-shuffle path unconditionally: it
    compares ACTUAL key values inside each hash bucket, giving the
    reference's byte-exact equality (/root/reference/src/hash_dup_remover.cpp
    :10-33) with zero hash-collision exposure, at the cost of shuffling the
    payload once.

    ``counters`` (slim limbs) receives ``n_input`` and, when the broadcast
    limb ran, ``drops``.
    """
    if paranoid:
        return _dedup_exact_shuffle(ds, list(key_cols), list(order_cols), num_buckets)
    kept, _ = dedup_exact_with_clusters(
        ds,
        key_cols=key_cols,
        id_col=None,
        order_cols=order_cols,
        num_buckets=num_buckets,
        drop_broadcast_budget=drop_broadcast_budget,
        counters=counters,
    )
    return kept


def dedup_exact_with_clusters(
    ds: ray.data.Dataset,
    key_cols=("text",),
    id_col: str | None = "url",
    order_cols=DEFAULT_ORDER,
    num_buckets: int = 64,
    drop_broadcast_budget: int = 5_000_000,
    counters: dict | None = None,
) -> tuple[ray.data.Dataset, ray.data.Dataset | None]:
    """``dedup_exact`` plus its ``dedup_exact_clusters`` table from ONE slim
    exchange: (kept rows, clusters). The clusters come from that exchange
    whichever limb then filters the payload; ``id_col=None`` skips them
    (clusters None)."""
    key_cols = list(key_cols)
    order_cols = list(order_cols)
    rows = _keep_first_exchange(
        ds, key_cols, order_cols, id_col, num_buckets, order_cols,
        heads=id_col is not None, counters=counters,
    )
    if id_col is None:
        drops, clusters = rows, None
    else:
        drops = rows.map_batches(_drop_rows, batch_format="pyarrow").materialize()
        clusters = rows.map_batches(
            _cluster_rows, batch_format="pyarrow", fn_kwargs={"id_col": id_col}
        )
    n_drops = drops.count()
    if n_drops > drop_broadcast_budget:
        return _dedup_exact_shuffle(ds, key_cols, order_cols, num_buckets), clusters
    if n_drops == 0:
        if counters is not None:
            counters["drops"] = 0
        return ds, clusters  # nothing to drop (an empty Dataset also loses its schema)
    dtab = pa.concat_tables(ray.get(drops.to_arrow_refs()))
    if pc.any(dtab["_ambig"]).as_py():
        # a loser fully ties its winner (same content AND same order tuple):
        # no slim key can name the loser alone — compare actual values
        return _dedup_exact_shuffle(ds, key_cols, order_cols, num_buckets), clusters
    if counters is not None:
        # exact duplicate count, known without consuming the filtered payload
        # (callers use it to avoid a pure-count pass over the corpus); exact
        # because each drop entry names exactly one row — order-tuple
        # look-alikes with different content fail the stage-2 key check, and
        # full ties took the shuffle limb above
        counters["drops"] = n_drops
    drop_ref = ray.put(dtab.select([*order_cols, "_k1", "_k2"]))
    from .minhash import _fetch_cached

    def keep_filter(df: pd.DataFrame) -> pd.DataFrame:
        # two-stage membership: a cheap order-tuple hit pass over every row,
        # then the content identity recomputed ONLY for the hits (~n_drops
        # rows corpus-wide) and confirmed against the drop entry's key pair
        tuples, full = _fetch_cached(
            drop_ref,
            lambda t: (
                set(zip(*(t[c].to_pylist() for c in order_cols))),
                set(
                    zip(
                        *(t[c].to_pylist() for c in order_cols),
                        t["_k1"].to_numpy(),
                        t["_k2"].to_numpy(),
                    )
                ),
            ),
        )
        idx = pd.MultiIndex.from_arrays([df[c] for c in order_cols])
        hit = idx.isin(tuples)
        if not hit.any():
            return df
        sub = df.loc[hit]
        k1, k2 = _identity128(
            pa.Table.from_pandas(sub[key_cols], preserve_index=False), key_cols
        )
        confirmed = np.fromiter(
            (
                tup in full
                for tup in zip(*(sub[c] for c in order_cols), k1, k2)
            ),
            dtype=bool,
            count=len(sub),
        )
        mask = np.zeros(len(df), dtype=bool)
        mask[np.nonzero(hit)[0][confirmed]] = True
        return df[~mask]

    return ds.map_batches(keep_filter, batch_format="pandas"), clusters


def exact_drop_ids(
    ds: ray.data.Dataset,
    key_cols=("text",),
    order_cols=DEFAULT_ORDER,
    id_col: str = "url",
    num_buckets: int | None = None,
    counters: dict | None = None,
) -> ray.data.Dataset:
    """Slim exact keep-first dedup that returns the DROPPED rows' identity.

    The fused-flagship building block: the slim exchange of
    ``_keep_first_exchange`` emits the rows that LOSE keep-first as
    (id, order cols, _k1, _k2, _ambig). The payload never moves; the caller
    broadcasts the drop set and streams whatever filter passes it needs.
    The content key pair rides along so the filter can confirm a hit — an
    id that repeats in the corpus (same url recrawled) must not have its
    keep-first WINNER row dropped by a bare id-membership test. ``_ambig``
    marks a loser whose full (content, id, order) tuple ties its group
    winner's — no slim key can name that loser alone, and the caller must
    fall back to a value-comparing dedup (``dedup_exact``'s shuffle limb).
    ``counters`` receives ``n_input`` (rows seen — the valid-count for
    free) when provided."""
    from .minhash import _default_shuffle_buckets

    tie_cols = list(dict.fromkeys([id_col, *order_cols]))
    return _keep_first_exchange(
        ds, list(key_cols), list(order_cols), id_col,
        num_buckets or _default_shuffle_buckets(), tie_cols,
        heads=False, counters=counters,
    )


def _dedup_exact_shuffle(
    ds: ray.data.Dataset, key_cols, order_cols, num_buckets: int
) -> ray.data.Dataset:
    """Payload-shuffle fallback (drop set too large to broadcast). The local
    combiner pre-drops within-batch losers so their payload never shuffles;
    keep-first compares actual key values (collision-exact)."""

    def prepare(batch: pa.Table) -> pa.Table:
        return add_identity_columns(batch, key_cols, num_buckets=num_buckets)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return _local_keep_first(df, key_cols, order_cols)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = _local_keep_first(df, key_cols, order_cols)
        return out.drop(columns=["_key64", "_bucket"])

    prepared = ds.map_batches(prepare, batch_format="pyarrow").map_batches(
        combine, batch_format="pandas"
    )
    return prepared.groupby("_bucket").map_groups(per_bucket, batch_format="pandas")


def dedup_exact_clusters(
    ds: ray.data.Dataset,
    key_cols=("text",),
    id_col: str = "url",
    order_cols=DEFAULT_ORDER,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Duplicate-cluster side output for exact dedup (SURVEY.md A6/S9).

    Mirrors the --write-clusters format (/root/reference/src/file_utils.cpp:98-112):
    every kept row heads a cluster; members are the dropped duplicates. Emitted
    as a table (cluster_id = head id, member = row id, is_representative).

    The same slim 128-bit exchange as ``dedup_exact`` (the payload stays
    behind); ``dedup_exact_with_clusters`` returns this table and the kept
    rows from one exchange.
    """
    rows = _keep_first_exchange(
        ds, list(key_cols), list(order_cols), id_col, num_buckets, list(order_cols),
        heads=True, counters=None,
    )
    return rows.map_batches(_cluster_rows, batch_format="pyarrow", fn_kwargs={"id_col": id_col})
