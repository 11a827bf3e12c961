"""The task hash exchange — the engine's one repartition primitive.

Every wide step in the engine (LSH band buckets, edge dedup, exact drop
sets, joins, windows, quantiles, ...) co-locates rows by ``key % B`` through
``hash_exchange`` and runs a per-bucket Arrow function on the result. It is
built from raw Ray tasks on purpose: Ray Data's sort-based
``groupby().map_groups`` measured a flat ~13-16 s on a 16.5M-row band-row
exchange at 1M docs regardless of CPU count (the 2.49 hash-shuffle strategy
47-74 s); this exchange does the identical grouping in 2.3-2.8 s. The
fan-out — map-task grouping and reduce width — is chosen here, in one place.
``cogroup`` is its two-sided form: two datasets meet in one exchange and a
per-bucket function sees each side's rows apart, so no caller tags, pads or
unions sides itself.

Also here: the small block helpers every exchange consumer needs
(``nonempty_block_refs``, ``as_arrow_block``), the per-worker broadcast
cache (``fetch_cached``), and the engine's one membership gate,
``semi_filter``: every "drop (or keep) the rows named by a small key set"
step — exact-dedup losers, cross-corpus contamination, non-representative
cluster members, the dup-span prefilter — goes through it, and its
broadcast-or-exchange choice is made here under ``DROP_BROADCAST_BUDGET``.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray
import ray.data

EXCHANGE_ROWS_PER_REDUCER = 4096
EXCHANGE_BYTES_PER_REDUCER = 4 << 20
# key rows ``semi_filter`` broadcasts (80 MB of sorted uint64 pairs, x2
# with a confirm key); above it the payload meets the keys in an exchange.
# Read at call time, so a test can force the exchange limb by patching it.
DROP_BROADCAST_BUDGET = 5_000_000


def as_arrow_block(b):
    """Datasets whose lineage ran a pandas map_batches materialize pandas
    blocks; the exchange is Arrow-native, so lift those on entry."""
    if isinstance(b, pa.Table):
        return b
    import pandas as pd

    if isinstance(b, pd.DataFrame):
        return pa.Table.from_pandas(b, preserve_index=False)
    return pa.table(b)


def _nonempty_blocks(ds: ray.data.Dataset) -> list:
    """(ref, metadata) of the materialized blocks, zero-row blocks dropped by
    METADATA (blocks of unknown row count are kept).

    Zero-row blocks are not merely empty — they can be SCHEMA-LESS (zero
    columns): a lazy map over an empty block yields no batches, and Ray's
    read_parquet of a zero-row part file (an empty checkpoint) emits
    column-less blocks. Any consumer that indexes columns must skip them."""
    mat = ds.materialize()
    return [
        (ref, meta)
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows is None or meta.num_rows > 0
    ]


def nonempty_block_refs(ds: ray.data.Dataset) -> list:
    """Materialized block refs with zero-row blocks dropped (see
    ``_nonempty_blocks``)."""
    return [ref for ref, _meta in _nonempty_blocks(ds)]


def group_for_maps(refs: list) -> list:
    """Contiguous groups of ``refs``, one per map task: ~2x CPUs tasks, not
    one per block. The slice-object count (maps x reducers) is an
    exchange's real fixed cost and grows with both cluster width and block
    count — one slice object per (input block, bucket) was measured as the
    dominant overhead at high CPU counts (500 blocks x 128 buckets = 64k
    tiny refs for the reducers to fetch)."""
    n_maps = max(1, min(len(refs), int(ray.cluster_resources().get("CPU", 8)) * 2))
    step = (len(refs) + n_maps - 1) // n_maps
    return [refs[i : i + step] for i in range(0, len(refs), step)]


@ray.remote
def _exchange_map(key: str, B: int, *blocks):
    """Split a GROUP of blocks into B bucket slices (one concat + stable
    argsort by key % B + zero-copy Arrow slices). Deterministic, so Ray task
    retries are safe."""
    blocks = [as_arrow_block(b) for b in blocks]
    parts = [b for b in blocks if b.num_rows]
    if not parts:
        # pandas-lineage datasets can hold schema-less empty blocks — slice
        # the richest schema so downstream column selects keep working
        empty = max(blocks, key=lambda b: b.num_columns).slice(0, 0)
        return [empty] * B if B > 1 else empty
    block = (
        parts[0] if len(parts) == 1
        else pa.concat_tables(parts, promote_options="default").combine_chunks()
    )
    vals = block[key].to_numpy().astype(np.uint64, copy=False)
    bkt = (vals % np.uint64(B)).astype(np.int64)
    order = np.argsort(bkt, kind="stable")
    t = block.take(pa.array(order))
    bounds = np.searchsorted(bkt[order], np.arange(B + 1))
    out = [t.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(B)]
    return out if B > 1 else out[0]


def _concat_slices(shards) -> pa.Table | None:
    """One table from a bucket's slices: the non-empty ones concatenated, or
    a zero-row slice of the richest schema when every slice is empty (None
    when there are no slices)."""
    shards = [as_arrow_block(s) for s in shards]
    parts = [s for s in shards if s.num_rows]
    if not parts:
        return max(shards, key=lambda s: s.num_columns).slice(0, 0) if shards else None
    return pa.concat_tables(parts, promote_options="default").combine_chunks()


@ray.remote
def _exchange_reduce(fn, counts, empties, *shards):
    """Concat one bucket's slices side by side (``counts[i]`` of them for
    input i; a side with no slices takes ``empties[i]``) and run the group
    fn on one table per input."""
    tables, i = [], 0
    for n, empty in zip(counts, empties):
        t = _concat_slices(shards[i : i + n])
        tables.append(empty if t is None else t)
        i += n
    return fn(*tables)


def exchange_fanout(b_cap: int, rows: int, size_bytes: int, rows_known: bool = True) -> int:
    """Reduce-task count for a hash exchange, capped at the configured
    bucket count and sized by BOTH row count and byte volume.

    Rows alone under-size wide exchanges: band rows vary 16-64 B but
    payload-shuffle fallbacks carry KB-scale text rows, where 4096 rows is
    megabytes per reducer x a skew factor. The bytes floor keeps per-reducer
    volume bounded (~4 MB) regardless of row width, while tiny oracle-scale
    exchanges still collapse to one task instead of paying ``b_cap``
    scheduling costs. ``b_cap`` already scales with cluster CPUs
    (``default_shuffle_buckets``) — a pure function so multi-node sizings
    are testable without a cluster."""
    if not rows_known:
        return b_cap
    by_rows = rows // EXCHANGE_ROWS_PER_REDUCER
    by_bytes = (size_bytes or 0) // EXCHANGE_BYTES_PER_REDUCER
    return max(1, min(b_cap, max(by_rows, by_bytes)))


def hash_exchange(ds: ray.data.Dataset, key: str, B: int, fn) -> ray.data.Dataset:
    """Co-locate rows by ``key % B`` across at most ``B`` reduce tasks,
    apply ``fn`` per bucket, return the results as a Dataset.

    ``key`` must be an integer column; ``fn`` takes one bucket's Arrow table
    (possibly zero-row) and returns an Arrow table, and ``fn(None)`` must
    return the typed-empty result for an all-empty input. Complete key
    groups always land in one call of ``fn``, for any ``B``. Two inputs
    that must meet per bucket go through ``cogroup`` instead.

    Map-side argsort + zero-copy slices + one concat per reducer is bounded
    by the bytes actually moved. Every intermediate stays in the object
    store (maps return ``num_returns=B`` slice objects; reducers fetch only
    their column of the slice matrix — on multi-node, Ray fetches those
    slices over the network exactly like shuffle blocks)."""
    blocks = _nonempty_blocks(ds)
    if not blocks:
        return ray.data.from_arrow(fn(None))
    return _exchange([blocks], key, B, fn, (None,))


def _exchange(sides: list, key: str, B: int, fn, empties: tuple) -> ray.data.Dataset:
    """The exchange behind ``hash_exchange`` and ``cogroup``: ``sides`` holds
    each input's non-empty (ref, metadata) blocks. Map tasks never mix two
    inputs, so every reducer knows which slices came from which input."""
    blocks = [b for side in sides for b in side]
    rows_known = all(meta.num_rows is not None for _ref, meta in blocks)
    rows = sum(meta.num_rows or 0 for _ref, meta in blocks)
    size_bytes = sum(meta.size_bytes or 0 for _ref, meta in blocks if meta.num_rows)
    B = exchange_fanout(B, rows, size_bytes, rows_known)
    refs = [[ref for ref, _meta in side] for side in sides]
    if B <= 1:
        counts = [len(r) for r in refs]
        red = [_exchange_reduce.remote(fn, counts, empties, *[x for r in refs for x in r])]
    else:
        split = [
            [_exchange_map.options(num_returns=B).remote(key, B, *g) for g in group_for_maps(r)]
            if r else []
            for r in refs
        ]
        counts = [len(s) for s in split]
        red = [
            _exchange_reduce.remote(fn, counts, empties, *[m[j] for s in split for m in s])
            for j in range(B)
        ]
    return ray.data.from_arrow_refs(red)


def _empty_of(mat: ray.data.Dataset) -> pa.Table:
    """A zero-row table of a materialized dataset's Arrow schema (zero
    columns when it has none, as for a map over zero-row blocks)."""
    schema = mat.schema()
    if schema is None or not isinstance(schema.base_schema, pa.Schema):
        return pa.table({})
    return schema.base_schema.empty_table()


def cogroup(
    left: ray.data.Dataset, right: ray.data.Dataset, key: str, fn, num_buckets: int | None = None
) -> ray.data.Dataset:
    """The two-sided exchange: co-locate the rows of ``left`` and ``right``
    by their uint64 routing column ``key`` and call ``fn(l, r)`` per bucket.

    Both inputs' blocks meet in one hash exchange (at most ``num_buckets``
    reducers, default ``default_shuffle_buckets()``). ``l`` and ``r`` hold
    each side's own columns (the routing column included) and every row of
    a key on either side reaches one call of ``fn``. A side with no rows in
    a bucket arrives as a zero-row table of its schema; a side with no rows
    at all, as a zero-row table of the schema its materialized dataset
    reports (zero columns when Ray reports none, as for a map over zero-row
    blocks). ``fn`` returns an Arrow table; when both sides are empty it runs
    once, on the two zero-row tables. Every join-shaped step in the engine
    (joins, as-of and range joins, set ops, the ``semi_filter`` exchange
    limb, cross-corpus identities, the dup-span rebuild) is one call."""
    sides, empties = [], []
    for ds in (left, right):
        mat = ds.materialize()
        blocks = _nonempty_blocks(mat)
        sides.append(blocks)
        empties.append(None if blocks else _empty_of(mat))
    if not sides[0] and not sides[1]:
        return ray.data.from_arrow(fn(*empties))
    return _exchange(sides, key, num_buckets or default_shuffle_buckets(), fn, tuple(empties))


def default_shuffle_buckets(mult: int = 4) -> int:
    """Default exchange width cap: ``mult`` x cluster CPUs (at least 8)."""
    try:
        return max(8, int(ray.cluster_resources().get("CPU", 8)) * mult)
    except Exception:
        return 32


_OBJ_CACHE: dict = {}
_OBJ_CACHE_MAX = 8  # bounded: stale entries pin plasma objects + worker heap


def fetch_cached(ref, build=None):
    """Once-per-worker-process ray.get (+ optional index build) — avoids
    re-deserializing a broadcast object on every batch of a task-pool stage.

    Broadcast PYTHON containers (dict/set of strings) deserialize slowly and
    do so once per worker — at high parallelism that fixed cost scales WITH
    the worker count and inverts scaling. Broadcast Arrow tables/arrays
    instead (zero-copy from plasma) and pass ``build`` to construct the
    worker-local dict/set exactly once. The cache is insertion-order bounded:
    an unbounded cache pins every past run's broadcast (measured: verify
    trials in one session degrading 13s -> 25s as dead indexes accumulate)."""
    key = ref.hex()
    val = _OBJ_CACHE.get(key)
    if val is None:
        obj = ray.get(ref)
        while len(_OBJ_CACHE) >= _OBJ_CACHE_MAX:
            _OBJ_CACHE.pop(next(iter(_OBJ_CACHE)))
        val = _OBJ_CACHE.setdefault(key, build(obj) if build is not None else obj)
    return val


def _unique_pairs(q1: np.ndarray, q2: np.ndarray):
    """SORTED-unique (h1, h2) pairs — sorted by (h1, h2), then keep-first.

    The sort order (h1 major, h2 minor) is the contract ``_pair_lookup_pos``
    searchsorts against; every key-set build goes through here so a change
    to the order happens once. One ``argsort`` on h1, then an h2 sort only
    inside the runs of equal h1 whose h2 differ — birthday-rare, as repeats
    of one pair need no sort (bit-identical to ``np.lexsort((q2, q1))``, at
    ~1/5 of its time on 5M pairs)."""
    o = np.argsort(q1)
    q1, q2 = q1[o], q2[o]
    if len(q1):
        same1 = q1[1:] == q1[:-1]
        mixed = np.flatnonzero(same1 & (q2[1:] != q2[:-1]))
        if len(mixed):
            starts = np.flatnonzero(np.r_[True, ~same1])
            ends = np.r_[starts[1:], len(q1)]
            for r in np.unique(np.searchsorted(starts, mixed, side="right") - 1):
                a, b = starts[r], ends[r]
                q2[a:b] = np.sort(q2[a:b])
        keep = np.empty(len(q1), dtype=bool)
        keep[0] = True
        keep[1:] = (q1[1:] != q1[:-1]) | (q2[1:] != q2[:-1])
        q1, q2 = q1[keep], q2[keep]
    return q1, q2


def _pair_lookup_pos(h1s: np.ndarray, h2s: np.ndarray, q1: np.ndarray, q2: np.ndarray):
    """(pos, found) for query pairs against h1-SORTED index pairs.

    Scans equal-h1 runs for the matching h2 (birthday-rare, but a leftmost-
    only probe silently loses the later-sorted id of an h1 collision — at
    10^12 docs a 64-bit-only lookup drops real members/endpoints). One
    searchsorted only: a run is detected from the NEXT index slot also
    matching h1 (a second side="right" pass measured 2x the probe cost)."""
    n = len(h1s)
    if n == 0 or len(q1) == 0:
        return np.zeros(len(q1), dtype=np.int64), np.zeros(len(q1), dtype=bool)
    left = np.searchsorted(h1s, q1, side="left")
    pos = np.minimum(left, n - 1)
    h1_hit = h1s[pos] == q1
    found = h1_hit & (h2s[pos] == q2)
    nxt = np.minimum(pos + 1, n - 1)
    in_run = h1_hit & ~found & (nxt > pos) & (h1s[nxt] == q1)
    for i in np.nonzero(in_run)[0]:  # equal-h1 runs: birthday-rare
        j = left[i] + 1
        while j < n and h1s[j] == q1[i]:
            if h2s[j] == q2[i]:
                pos[i] = j
                found[i] = True
                break
            j += 1
    return pos, found


_KEY_COLS = ("_k1", "_k2")
_CONFIRM_COLS = ("_c1", "_c2")


def _key_index(t: pa.Table, confirm: bool) -> tuple:
    """Sorted-unique lookup arrays of a key table: (k1, k2), plus the
    (key, confirm) pairs folded into one 128-bit pair when ``confirm``."""
    from ..functions.hashing import combine_hash64

    k1, k2 = (t[c].to_numpy() for c in _KEY_COLS)
    index = _unique_pairs(k1, k2)
    if confirm:
        c1, c2 = (t[c].to_numpy() for c in _CONFIRM_COLS)
        index += _unique_pairs(combine_hash64(k1, c1), combine_hash64(k2, c2))
    return index


@ray.remote
def _build_key_index(confirm: bool, *blocks) -> tuple:
    cols = [*_KEY_COLS, *(_CONFIRM_COLS if confirm else ())]
    return _key_index(pa.concat_tables([as_arrow_block(b).select(cols) for b in blocks]), confirm)


def _members(index: tuple, k1, k2, rows: pa.Table, confirm_fn) -> np.ndarray:
    """bool[n]: which ``rows`` (key pairs ``k1, k2``) are in the key set.
    A key hit is confirmed by ``confirm_fn`` on the hit rows only."""
    from ..functions.hashing import combine_hash64

    hit = _pair_lookup_pos(index[0], index[1], k1, k2)[1]
    if confirm_fn is not None and hit.any():
        idx = np.nonzero(hit)[0]
        c1, c2 = confirm_fn(rows.take(pa.array(idx, pa.int64())))
        hit[idx] = _pair_lookup_pos(
            index[2], index[3], combine_hash64(k1[idx], c1), combine_hash64(k2[idx], c2)
        )[1]
    return hit


def semi_filter_gate(keys: ray.data.Dataset, key_fn, keep: bool = False, confirm_fn=None):
    """``semi_filter`` with its key set prepared once: returns ``gate(ds)``,
    which filters any dataset ``key_fn`` applies to. A caller that filters
    several datasets against one key set (the flagship's slim and full
    chains) builds the sorted index, or materializes the keys, only once."""
    keys = keys.materialize()
    n_keys = keys.count()
    if n_keys == 0:
        if not keep:
            return lambda ds: ds
        return lambda ds: ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    if n_keys > DROP_BROADCAST_BUDGET:
        return functools.partial(
            _exchange_semi_filter, keys=keys, key_fn=key_fn, keep=keep, confirm_fn=confirm_fn
        )
    ref = _build_key_index.remote(confirm_fn is not None, *nonempty_block_refs(keys))

    def broadcast_filter(t: pa.Table) -> pa.Table:
        k1, k2 = key_fn(t)
        hit = _members(fetch_cached(ref), k1, k2, t, confirm_fn)
        return t.filter(pa.array(hit if keep else ~hit))

    return lambda ds: ds.map_batches(broadcast_filter, batch_format="pyarrow")


def semi_filter(
    ds: ray.data.Dataset, keys: ray.data.Dataset, key_fn, keep: bool = False, confirm_fn=None
) -> ray.data.Dataset:
    """The rows of ``ds`` whose 128-bit key is in ``keys`` (``keep=True``, a
    semi-join) or is not (``keep=False``, an anti-join); the output keeps
    ``ds``'s schema.

    ``keys`` carries uint64 ``_k1, _k2`` columns (duplicates allowed) and
    ``key_fn(batch) -> (k1, k2)`` computes each payload row's pair. With
    ``confirm_fn`` the keys also carry ``_c1, _c2``, and a key hit counts
    only if ``confirm_fn(hit_rows) -> (c1, c2)`` equals the ``_c1, _c2`` of
    a key row with that same key — the costly half of a row's identity,
    computed for the hits alone.

    Up to ``DROP_BROADCAST_BUDGET`` key rows, one task sorts the pairs and
    the sorted arrays are broadcast to a streaming Arrow filter. Above it,
    the payload rows and the key rows meet in one ``cogroup`` on ``_k1``
    and each bucket filters locally: the payload moves once. Both limbs return the same rows (the exchange limb
    in bucket order), and neither collects the key set on the driver.
    ``semi_filter_gate`` prepares the key set once for several datasets."""
    return semi_filter_gate(keys, key_fn, keep, confirm_fn)(ds)


def _exchange_semi_filter(
    ds: ray.data.Dataset, keys: ray.data.Dataset, key_fn, keep: bool, confirm_fn
) -> ray.data.Dataset:
    """``semi_filter``'s over-budget limb (see there)."""
    confirm = confirm_fn is not None

    def with_keys(t: pa.Table) -> pa.Table:
        k1, k2 = key_fn(t)
        return t.append_column("_k1", pa.array(k1, pa.uint64())).append_column(
            "_k2", pa.array(k2, pa.uint64())
        )

    # a Ray map runs on no zero-row block: the schema is None exactly when
    # the payload has no rows
    rows = ds.map_batches(with_keys, batch_format="pyarrow").materialize()
    if rows.schema() is None:
        return ds  # no payload rows: nothing to keep or drop

    def bucket_filter(t: pa.Table, k: pa.Table) -> pa.Table:
        hit = _members(
            _key_index(k, confirm), t["_k1"].to_numpy(), t["_k2"].to_numpy(), t, confirm_fn
        )
        return t.filter(pa.array(hit if keep else ~hit)).drop_columns(list(_KEY_COLS))

    return cogroup(rows, keys, "_k1", bucket_filter)
