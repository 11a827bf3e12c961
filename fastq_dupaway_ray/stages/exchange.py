"""The task hash exchange — the engine's one repartition primitive.

Every wide step in the engine (LSH band buckets, edge dedup, exact drop
sets, joins, windows, quantiles, ...) co-locates rows by ``key % B`` through
``hash_exchange`` and runs a per-bucket Arrow function on the result. It is
built from raw Ray tasks on purpose: Ray Data's sort-based
``groupby().map_groups`` measured a flat ~13-16 s on a 16.5M-row band-row
exchange at 1M docs regardless of CPU count (the 2.49 hash-shuffle strategy
47-74 s); this exchange does the identical grouping in 2.3-2.8 s. The
fan-out — map-task grouping and reduce width — is chosen here, in one place.

Also here: the small block helpers every exchange consumer needs
(``nonempty_block_refs``, ``as_arrow_block``) and the per-worker broadcast
cache (``fetch_cached``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

EXCHANGE_ROWS_PER_REDUCER = 4096
EXCHANGE_BYTES_PER_REDUCER = 4 << 20


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
    block = parts[0] if len(parts) == 1 else pa.concat_tables(parts).combine_chunks()
    vals = block[key].to_numpy().astype(np.uint64, copy=False)
    bkt = (vals % np.uint64(B)).astype(np.int64)
    order = np.argsort(bkt, kind="stable")
    t = block.take(pa.array(order))
    bounds = np.searchsorted(bkt[order], np.arange(B + 1))
    out = [t.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(B)]
    return out if B > 1 else out[0]


@ray.remote
def _exchange_reduce(fn, *shards):
    """Concat one bucket's slices from every map task and run the group fn."""
    shards = [as_arrow_block(s) for s in shards]
    parts = [s for s in shards if s.num_rows]
    if not parts:
        if not shards:
            return None
        return fn(max(shards, key=lambda s: s.num_columns).slice(0, 0))
    return fn(pa.concat_tables(parts).combine_chunks())


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
    groups always land in one call of ``fn``, for any ``B``.

    Map-side argsort + zero-copy slices + one concat per reducer is bounded
    by the bytes actually moved. Every intermediate stays in the object
    store (maps return ``num_returns=B`` slice objects; reducers fetch only
    their column of the slice matrix — on multi-node, Ray fetches those
    slices over the network exactly like shuffle blocks)."""
    blocks = _nonempty_blocks(ds)
    if not blocks:
        return ray.data.from_arrow(fn(None))
    refs = [ref for ref, _meta in blocks]
    rows_known = all(meta.num_rows is not None for _ref, meta in blocks)
    rows = sum(meta.num_rows or 0 for _ref, meta in blocks)
    size_bytes = sum(meta.size_bytes or 0 for _ref, meta in blocks if meta.num_rows)
    B = exchange_fanout(B, rows, size_bytes, rows_known)
    if B <= 1:
        red = [_exchange_reduce.remote(fn, *refs)]
    else:
        split = [
            _exchange_map.options(num_returns=B).remote(key, B, *g)
            for g in group_for_maps(refs)
        ]
        red = [_exchange_reduce.remote(fn, *[s[j] for s in split]) for j in range(B)]
    return ray.data.from_arrow_refs(red)


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
