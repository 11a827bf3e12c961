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
2. one task hash exchange (``exchange.hash_exchange``) co-locates equal
   identities — the bucket count is the exchange width, not the number of
   distinct keys;
3. one Arrow-vectorized pass per bucket keeps the first row per identity in
   arrival order (order key = (warc_ts, url) — "first in file order").

Shuffle shape at 100 TB: the heavy payload NEVER enters the slim exchange.
The slim rows decide which rows LOSE keep-first, and ``exact_gate`` removes
those losers from the payload through ``exchange.semi_filter`` — broadcast
when the drop set fits ``exchange.DROP_BROADCAST_BUDGET``, else one
payload-with-keys exchange; both limbs are exact. The duplicate clusters
(--write-clusters) come from the same exchange: each slim row also carries
its identity group's winner id. Only a loser that fully ties its winner
(no slim key can name it) sends the payload through the value-comparing
shuffle (its local combiner still pre-drops within-batch losers first).

Identity: two independent 64-bit hashes + per-column lengths (~2^-128
collision odds per pair — at 10^12 rows the expected collision count is
~1e-14; the reference's packed-sequence equality is exact, this is the
distributed-size tradeoff, documented).
"""

from __future__ import annotations

import functools

import numpy as np
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


def _local_keep_first(t: pa.Table, key_cols, order_cols) -> pa.Table:
    """Within-table keep-first by value equality (Arrow-vectorized, so
    column types never go through pandas inference): the earliest row by
    ``order_cols`` of each ``key_cols`` tuple, in ``order_cols`` order."""
    if t.num_rows == 0:
        return t
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in order_cols]))
    first = (
        t.select(list(key_cols))
        .append_column("_row", pa.array(np.arange(t.num_rows)))
        .group_by(list(key_cols), use_threads=False)
        .aggregate([("_row", "min")])["_row_min"]
    )
    return t.take(np.sort(first.to_numpy()))


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
        if pa.types.is_integer(arr.type) and arr.null_count:
            # ``to_numpy`` decays a nullable integer column to float64: the
            # value would hash as "5.0" beside a null-free block's "5", and
            # keys above 2**53 would merge
            vals = np.array(arr.to_pylist(), dtype=object)
        else:
            vals = arr.to_numpy(zero_copy_only=False).astype(object)
        lens = _value_lengths(vals)
        parts.extend((hash64(vals), lens))
        parts2.extend((hash64(vals, alt_key=True), lens))
    k1 = combine_hash64(*parts)
    k2 = combine_hash64(*parts2, np.full(len(k1), _SALT2, dtype=np.uint64))
    return k1, k2


def _row_key(batch: pa.Table, cols) -> tuple:
    """128-bit identity of each row's ``cols`` tuple, cheap enough to probe
    every payload row with, and a function of the row alone (drop keys and
    payload probes are computed over different batches). Integer and
    timestamp columns enter by value plus their null mask: exact, where
    SipHash would first box each value as a Python object (~30 ms per 12k
    timestamps; a (warc_ts, url) key costs ~4 ms this way). Other columns
    take ``_identity128``'s two SipHashes."""
    n = batch.num_rows
    by_value = [
        c for c in cols
        if pa.types.is_integer(batch.schema.field(c).type)
        or pa.types.is_timestamp(batch.schema.field(c).type)
    ]
    rest = [c for c in cols if c not in by_value]
    if rest:
        k1, k2 = _identity128(batch, rest)
    else:
        k1, k2 = np.zeros(n, np.uint64), np.full(n, _SALT2, np.uint64)
    for c in by_value:
        arr = batch[c]
        vals = pc.fill_null(pc.cast(arr, pa.int64(), safe=False), 0).to_numpy()
        nulls = np.asarray(pc.is_null(arr))
        k1 = combine_hash64(k1, vals, nulls)
        k2 = combine_hash64(k2, vals, nulls)
    return k1, k2


def with_key_route(t: pa.Table, key: str, col: str, key_type=None) -> pa.Table:
    """``t`` plus a uint64 routing column ``col`` hashed from ``key`` (the
    first word of ``_row_key``: integers and timestamps by value, other
    types by SipHash). Two inputs that must meet per key route at one key
    type: pass the left key's type as ``key_type`` to cast ``key`` first."""
    if key_type is not None and t.schema.field(key).type != key_type:
        t = t.set_column(t.schema.get_field_index(key), key, t[key].cast(key_type))
    return t.append_column(col, pa.array(_row_key(t, [key])[0], pa.uint64()))


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
    from .exchange import hash_exchange

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
    return hash_exchange(slimtab, "_k1", num_buckets, fn)


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
    paranoid: bool = False,
    counters: dict | None = None,
) -> ray.data.Dataset:
    """Distributed exact keep-first dedup; returns the kept rows (lazy).

    ``key_cols`` with several entries reproduces paired-mode AND-semantics.
    ``order_cols`` must uniquely identify a row (the reference's arrival key
    is unique by construction — file position).

    Default path: slim identity exchange -> ``exact_gate`` (see module
    docstring). ``num_buckets`` caps the exchange width — size it ~2-4x
    total cores; skew is no concern because bucketing is by uniform hash.

    ``paranoid=True`` selects the payload-shuffle path unconditionally: it
    compares ACTUAL key values inside each hash bucket, giving the
    reference's byte-exact equality (/root/reference/src/hash_dup_remover.cpp
    :10-33) with zero hash-collision exposure, at the cost of shuffling the
    payload once.

    ``counters`` (slim limbs) receives ``n_input`` and, unless a full tie
    sent the payload through the value-comparing shuffle, ``drops``.
    """
    if paranoid:
        return _dedup_exact_shuffle(ds, list(key_cols), list(order_cols), num_buckets)
    kept, _ = dedup_exact_with_clusters(
        ds,
        key_cols=key_cols,
        id_col=None,
        order_cols=order_cols,
        num_buckets=num_buckets,
        counters=counters,
    )
    return kept


def dedup_exact_with_clusters(
    ds: ray.data.Dataset,
    key_cols=("text",),
    id_col: str | None = "url",
    order_cols=DEFAULT_ORDER,
    num_buckets: int = 64,
    counters: dict | None = None,
    payload: ray.data.Dataset | None = None,
) -> tuple[ray.data.Dataset, ray.data.Dataset | None]:
    """``dedup_exact`` plus its ``dedup_exact_clusters`` table from ONE slim
    exchange: (kept rows, clusters). The clusters come from that exchange
    whichever limb then filters the payload; ``id_col=None`` skips them
    (clusters None). ``payload`` (default ``ds``) is the dataset the gate
    filters — the full-column rows ``ds`` is a projection of."""
    key_cols = list(key_cols)
    order_cols = list(order_cols)
    rows = _keep_first_exchange(
        ds, key_cols, order_cols, id_col, num_buckets, order_cols,
        heads=id_col is not None, counters=counters,
    )
    clusters = None
    if id_col is not None:
        clusters = rows.map_batches(
            _cluster_rows, batch_format="pyarrow", fn_kwargs={"id_col": id_col}
        )
    gate, n_drops = exact_gate(rows, key_cols, order_cols, num_buckets)
    if counters is not None and n_drops is not None:
        # exact duplicate count, known without consuming the filtered payload
        # (callers use it to avoid a pure-count pass over the corpus)
        counters["drops"] = n_drops
    return gate(ds if payload is None else payload), clusters


@ray.remote(num_returns=2)
def _gate_block(block, order_cols) -> tuple:
    """One block of loser rows -> (its ``semi_filter`` keys, whether any of
    them fully ties its winner). The key is the order-tuple ``_row_key``,
    confirmed by the content identity the slim exchange computed."""
    from .exchange import as_arrow_block

    t = as_arrow_block(block)  # internal refs can be pandas blocks
    if "_lose" in t.column_names:  # every row of a heads exchange
        t = t.filter(t["_lose"])
    k1, k2 = _row_key(t, order_cols)
    keys = pa.table(
        {
            "_k1": pa.array(k1, pa.uint64()),
            "_k2": pa.array(k2, pa.uint64()),
            "_c1": t["_k1"],
            "_c2": t["_k2"],
        }
    )
    return keys, bool(pc.any(t["_ambig"]).as_py())


def exact_gate(drops: ray.data.Dataset, key_cols, order_cols, num_buckets: int = 64):
    """The one exact keep-first gate: ``(gate, n_drops)`` for the loser rows
    of a slim exchange (order cols, ``_k1``, ``_k2``, ``_ambig``) — or for
    every row of a heads exchange, whose ``_lose`` flag names the losers.

    ``gate(ds)`` removes those losers from ``ds`` — any dataset carrying the
    order and key columns of the rows ``drops`` came from (the flagship
    gates a slim projection and the full-column read with one gate). A
    loser is named by its order tuple (``_row_key``, probed on every row)
    and confirmed by its content identity (recomputed for the hits only),
    so an order-tuple look-alike with other content survives;
    ``exchange.semi_filter_gate`` picks broadcast or exchange and prepares
    the key set once, however many datasets ``gate`` filters. A loser that fully
    ties its winner (``_ambig``) cannot be named by any slim key: then
    ``gate`` is the value-comparing ``_dedup_exact_shuffle`` and ``n_drops``
    is None (count the gate's output instead)."""
    from .exchange import nonempty_block_refs, semi_filter_gate

    key_cols, order_cols = list(key_cols), list(order_cols)
    parts = [_gate_block.remote(r, order_cols) for r in nonempty_block_refs(drops)]
    if not parts:
        return (lambda ds: ds), 0  # an empty Dataset would also lose its schema
    if any(ray.get([ambig for _keys, ambig in parts])):
        return functools.partial(
            _dedup_exact_shuffle, key_cols=key_cols, order_cols=order_cols, num_buckets=num_buckets
        ), None
    keys = ray.data.from_arrow_refs([keys for keys, _ambig in parts])
    n_drops = keys.count()
    return semi_filter_gate(
        keys,
        key_fn=functools.partial(_row_key, cols=order_cols),
        confirm_fn=functools.partial(_identity128, key_cols=key_cols),
    ), n_drops


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
    hands the drop set to ``exact_gate`` and gates whatever datasets it
    needs. The content key pair rides along so the gate can confirm a hit —
    an id that repeats in the corpus (same url recrawled) must not have its
    keep-first WINNER row dropped by a bare id-membership test. ``_ambig``
    marks a loser whose full (content, id, order) tuple ties its group
    winner's — no slim key can name that loser alone, and the gate falls
    back to the value-comparing shuffle. ``counters`` receives ``n_input`` (rows seen — the valid-count for
    free) when provided."""
    from .exchange import default_shuffle_buckets

    tie_cols = list(dict.fromkeys([id_col, *order_cols]))
    return _keep_first_exchange(
        ds, list(key_cols), list(order_cols), id_col,
        num_buckets or default_shuffle_buckets(), tie_cols,
        heads=False, counters=counters,
    )


def _dedup_exact_shuffle(
    ds: ray.data.Dataset, key_cols, order_cols, num_buckets: int
) -> ray.data.Dataset:
    """Value-comparing payload shuffle (``paranoid=True``, and full ties no
    slim key can name). The local combiner pre-drops within-batch losers so
    their payload never shuffles; one task hash exchange on the identity
    hash co-locates equal keys, and keep-first compares actual key values
    (collision-exact)."""
    from .exchange import hash_exchange

    def prepare(batch: pa.Table) -> pa.Table:
        batch = _local_keep_first(batch, key_cols, order_cols)
        k = _identity128(batch, key_cols)[0]
        return batch.append_column("_key64", pa.array(k, pa.uint64()))

    def per_bucket(t: pa.Table | None) -> pa.Table:
        if t is None:
            return pa.table({})
        return _local_keep_first(t, key_cols, order_cols).drop_columns(["_key64"])

    prepared = ds.map_batches(prepare, batch_format="pyarrow")
    return hash_exchange(prepared, "_key64", num_buckets, per_bucket)


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
