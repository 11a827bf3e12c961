"""MinHash signatures + LSH banding candidate generation (north-rule core).

Generalizes the reference's exact set-membership dedup
(/root/reference/src/hash_dup_remover.hpp:105-148) to Jaccard near-duplicates:

    shingle (char k-grams) -> K-permutation MinHash -> b band keys
    -> groupby(band_key) -> candidate edges -> verify -> components

Stage design for scale:
* ``MinHashSigner`` is a **stateful actor pool** class: the permutation
  coefficient matrix is built once per actor in ``__init__`` (ST5 in
  SURVEY.md), batches stream through ``__call__``.
* Band keys are emitted as an exploded slim table (band_key, doc id, order) —
  b rows per doc, no text payload — so the candidate groupby shuffles only
  ~b*16 bytes per document.
* Hot buckets (boilerplate pages) are handled two ways: a hard per-bucket
  cap with **star-edge emission** (each member pairs with the bucket minimum,
  O(n) edges instead of O(n^2)), and optional salting of oversized buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import word_ngram_hashes
from ..functions.sketches import MinHasher, MinHashParams
from ..util import default_join_partitions

SIG_COL = "_minhash_sig"


class MinHashSigner:
    """Actor-pool map_batches callable: text -> MinHash signature column.

    __init__ cost (permutation matrix) is paid once per actor, not per batch.
    """

    def __init__(self, params: MinHashParams = MinHashParams(), text_col: str = "text"):
        self.hasher = MinHasher(params)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        # batched signing for every scheme (classic lexsort-unique +
        # per-perm reduceat; OPH flat scatter-min) — bit-identical to the
        # per-doc path, test-pinned in tests/test_neardup.py
        sigs = self.hasher.signatures_batch(texts)
        sig_arr = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.ravel(), pa.uint64()), self.hasher.params.num_perms
        )
        return batch.append_column(SIG_COL, sig_arr)


_HASHER_CACHE: dict = {}


def _cached_hasher(params: MinHashParams) -> MinHasher:
    """Once-per-worker-process MinHasher (permutation matrix) — the setup
    cost lives here so the signer can run as an elastic TASK pool instead of
    a fixed-size actor pool (tasks scale to whatever CPUs are free, with no
    actor-startup latency; the state is cheap to build and pure-functional)."""
    h = _HASHER_CACHE.get(params)
    if h is None:
        h = _HASHER_CACHE.setdefault(params, MinHasher(params))
    return h


def _sign_and_band_table(
    batch: pa.Table, hasher: MinHasher, text_col: str, id_col: str, order_cols,
    numeric_ids: bool = False,
) -> pa.Table:
    p = hasher.params
    texts = batch[text_col].to_pylist()
    sigs = hasher.signatures_batch(texts)
    keys = hasher.band_keys_batch(sigs)
    if numeric_ids:
        # NUMERIC SPINE: band rows carry the 128-bit id hash instead of the
        # id string. At web scale the id (url) string repeated b times per
        # doc dominates the band-row exchange (~0.6-1 GB/M docs vs 16 B/row
        # here); the hash pair also makes every downstream sort/groupby a
        # numeric kernel instead of a UTF-8 byte compare. Ids are re-attached
        # from the verify stage's endpoint-text index (which stores them
        # anyway), so the public edge contract is unchanged.
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(object)
        h1, h2 = _id_hash_pair(ids)
        return pa.table(
            {
                "band_key": pa.array(keys.ravel(), pa.uint64()),
                "h1": pa.array(np.repeat(h1, p.bands), pa.uint64()),
                "h2": pa.array(np.repeat(h2, p.bands), pa.uint64()),
            }
        )
    cols = {
        "band_key": pa.array(keys.ravel(), pa.uint64()),
        # ids repeat ``bands`` times each; dict_encode=True would ship each
        # url's bytes once per block + int32 indices, but MEASURED SLOWER
        # end-to-end on this single node (+10s/1M docs at 32 CPUs: Arrow
        # dictionary unification in the shuffle reduce outweighs the wire
        # savings when "the wire" is shared memory). Revisit on a real
        # multi-node cluster where network bytes dominate.
        id_col: _repeat_col(batch[id_col], p.bands),
    }
    for c in order_cols:
        cols[c] = _repeat_col(batch[c], p.bands)
    return pa.table(cols)


def sign_and_band(
    batch: pa.Table,
    params: MinHashParams = MinHashParams(),
    text_col: str = "text",
    id_col: str = "url",
    order_cols=("warc_ts", "url"),
    numeric_ids: bool = False,
) -> pa.Table:
    """Stateless task form of the signer — the default hot path."""
    order_cols = [c for c in order_cols if c != id_col]
    return _sign_and_band_table(
        batch, _cached_hasher(params), text_col, id_col, order_cols, numeric_ids=numeric_ids
    )


class SignAndBand:
    """Fused actor-pool stage: text -> MinHash -> exploded band-key rows.

    One pool instead of two (signer + emitter): at small CPU counts two
    stacked pools can pin every core and starve the downstream shuffle; fusing
    also skips materializing the signature column when only bands are needed.
    Prefer the task form (``sign_and_band``) unless you need a bounded pool.
    """

    def __init__(self, params: MinHashParams = MinHashParams(), text_col: str = "text", id_col: str = "url", order_cols=("warc_ts", "url"), numeric_ids: bool = False):
        self.hasher = MinHasher(params)
        self.text_col = text_col
        self.id_col = id_col
        self.order_cols = [c for c in order_cols if c != id_col]
        self.numeric_ids = numeric_ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _sign_and_band_table(
            batch, self.hasher, self.text_col, self.id_col, self.order_cols,
            numeric_ids=self.numeric_ids,
        )


def _repeat_col(arr, times: int, dict_encode: bool = False):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if dict_encode and (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        arr = arr.dictionary_encode()
    idx = np.repeat(np.arange(len(arr), dtype=np.int64), times)
    return arr.take(pa.array(idx))


def lsh_candidate_edges(
    band_rows: ray.data.Dataset,
    id_col: str = "url",
    order_cols=("warc_ts", "url"),
    max_bucket: int = 256,
    num_shuffle_buckets: int | None = None,
    emit_edge_bucket: int | None = None,
    exchange: str = "tasks",
    numeric_ids: bool = False,
) -> ray.data.Dataset:
    """band rows -> star candidate edges (a, b) with a = LSH-bucket head.

    Star emission keeps hot buckets linear: a bucket of n rows yields n-1
    edges against a head member, which is exactly what connected components
    needs to union the bucket (pairwise edges add no information for
    clustering). Buckets above ``max_bucket`` are SALTED: the sorted bucket
    is chunked into ``max_bucket``-sized salt groups, each emitting a local
    star, and the salt-group heads chain to the global head — full bucket
    connectivity at O(n) edges with no per-head hot spot and no recall loss
    (the north rule's salted-band-keys requirement).

    Shuffle shape: two-level bucketing. A direct groupby(band_key).map_groups
    would pay one Python call per band bucket (millions); instead rows are
    hash-partitioned into ``num_shuffle_buckets`` coarse buckets (the shuffle
    width) and each bucket runs ONE vectorized pandas groupby over all its
    band keys.

    ``emit_edge_bucket``: when set, each emitted edge also carries an
    ``_ebucket = hash(a) % emit_edge_bucket`` column, so the caller's
    duplicate-edge groupby can shuffle DIRECTLY on it — fusing what used to
    be a separate bucketize pass over the whole edge list (one fewer task
    round between the two shuffles).

    ``exchange`` picks the physical shuffle:
    * ``"tasks"`` (default) — a manual hash exchange with raw Ray tasks:
      each band-row block is split into B bucket slices (one stable argsort
      + zero-copy Arrow slices, num_returns=B), and B reduce tasks concat
      their slices and run the star pass; the edge blocks re-enter Ray Data
      via ``from_arrow_refs``. Chosen by measurement: Ray Data's sort-based
      ``groupby().map_groups`` costs a flat ~13-16 s for this 16.5M-row
      exchange at 1M docs regardless of CPU count (and the 2.49 hash-shuffle
      strategy measured 47-74 s); the task exchange does the identical
      grouping in 2.3-2.8 s. Partitioning assumption: bucket = band_key % B
      co-locates complete band buckets — exactly what groupby provided; edge
      output is bit-identical for any B.
    * ``"groupby"`` — the Dataset-native path (kept as the multi-node-
      robustness fallback; Ray's shuffle handles spill/locality for free).
    """
    order_cols = [c for c in order_cols]
    B = num_shuffle_buckets or _default_shuffle_buckets()

    def per_bucket_numeric(t: pa.Table) -> pa.Table:
        """Numeric-spine star pass: ids are (h1, h2) uint64 pairs, the sort
        and every take are pure numeric kernels (no UTF-8 compares, no
        Python objects anywhere). ``_ebucket`` routing needs no hashing —
        h1 is already a uniform 64-bit hash."""
        ecols = {
            "ah1": pa.array([], pa.uint64()),
            "ah2": pa.array([], pa.uint64()),
            "bh1": pa.array([], pa.uint64()),
            "bh2": pa.array([], pa.uint64()),
        }
        if emit_edge_bucket:
            ecols["_ebucket"] = pa.array([], pa.int64())
        empty = pa.table(ecols)
        if t is None or t.num_rows == 0:
            return empty
        sort_keys = [("band_key", "ascending"), ("h1", "ascending"), ("h2", "ascending")]
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        ai, bi = _star_edge_indices(t["band_key"].to_numpy(), max_bucket)
        if len(ai) == 0:
            return empty
        h1 = t["h1"].to_numpy()
        h2 = t["h2"].to_numpy()
        cols = {
            "ah1": pa.array(h1[ai], pa.uint64()),
            "ah2": pa.array(h2[ai], pa.uint64()),
            "bh1": pa.array(h1[bi], pa.uint64()),
            "bh2": pa.array(h2[bi], pa.uint64()),
        }
        if emit_edge_bucket:
            cols["_ebucket"] = pa.array(
                (h1[ai] % np.uint64(emit_edge_bucket)).astype(np.int64), pa.int64()
            )
        return pa.table(cols)

    def bucketize(t: pa.Table) -> pa.Table:
        bkt = (t["band_key"].to_numpy() % np.uint64(B)).astype(np.int64)
        return t.append_column("_bkt", pa.array(bkt, pa.int64()))

    def per_bucket(t: pa.Table) -> pa.Table:
        # ARROW-NATIVE on purpose: a pandas batch_format here materializes
        # every repeated url as a Python object — measured +22 s over the
        # pure Arrow shuffle at 1M docs / 32 CPUs (16.5M band rows), and the
        # object churn ANTI-scales with concurrency (allocator/THP stalls).
        # pc.sort_indices sorts UTF-8 bytes = codepoint order, matching the
        # old pandas mergesort; ids only ever move via zero-copy take.
        ecols = {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
        if emit_edge_bucket:  # keep one schema across all blocks
            ecols["_ebucket"] = pa.array([], pa.int64())
        empty = pa.table(ecols)
        if t is None or t.num_rows == 0:
            return empty
        for i, f in enumerate(t.schema):  # dict-encoded ids: decode for
            if pa.types.is_dictionary(f.type):  # value-order sort + plain take
                t = t.set_column(i, f.name, pc.cast(t.column(i), f.type.value_type))
        sort_keys = [("band_key", "ascending")] + [(c, "ascending") for c in order_cols]
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        ai, bi = _star_edge_indices(t["band_key"].to_numpy(), max_bucket)
        if len(ai) == 0:
            return empty
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        a = ids.take(pa.array(ai, pa.int64()))
        b = ids.take(pa.array(bi, pa.int64()))
        cols = {"a": a, "b": b}
        if emit_edge_bucket:
            from ..functions.hashing import hash64

            # hash64 == pd.util.hash_array (same key), so bucket assignment
            # is identical to the former pandas formulation; objects are
            # built only for the emitted EDGES (~7x fewer than band rows)
            av = a.to_numpy(zero_copy_only=False)
            cols["_ebucket"] = pa.array(
                (hash64(av) % np.uint64(emit_edge_bucket)).astype(np.int64), pa.int64()
            )
        return pa.table(cols)

    fn = per_bucket_numeric if numeric_ids else per_bucket
    if exchange == "tasks":
        return _hash_exchange_tasks(band_rows, "band_key", B, fn)
    return (
        band_rows.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_bkt")
        .map_groups(fn, batch_format="pyarrow")
    )


def _star_edge_indices(bk: np.ndarray, max_bucket: int):
    """(ai, bi) edge index pairs for a band-key-SORTED bucket table.

    Star emission keeps hot buckets linear (n-1 edges per n-row bucket);
    buckets above ``max_bucket`` are chunked into salt groups whose local
    stars chain to the bucket's global head — full connectivity at O(n)
    edges with no truncation. Shared by the string and numeric per-bucket
    passes (bit-identical emission given the same sort order)."""
    n = len(bk)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pos = np.arange(n, dtype=np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = bk[1:] != bk[:-1]
    run_start = np.where(new_run, pos, 0)
    np.maximum.accumulate(run_start, out=run_start)
    rank = pos - run_start
    # salt group = rank // max_bucket; local head = first row of the group
    salt = rank // max_bucket
    local_head_sel = rank % max_bucket == 0
    # head position per (band_key, salt) via forward-fill of local heads
    head_pos = np.where(local_head_sel, pos, -1)
    np.maximum.accumulate(head_pos, out=head_pos)
    # star edges within each salt group (skip the local head itself)
    member = ~local_head_sel
    # chain salt-group heads to the bucket's global head (salt > 0)
    chain_sel = local_head_sel & (salt > 0)
    global_head_pos = np.where(local_head_sel & (salt == 0), pos, -1)
    np.maximum.accumulate(global_head_pos, out=global_head_pos)
    ai = np.concatenate([head_pos[member], global_head_pos[chain_sel]])
    bi = np.concatenate([pos[member], pos[chain_sel]])
    return ai, bi


def _as_arrow_block(b):
    """Datasets whose lineage ran a pandas map_batches materialize pandas
    blocks; the exchange is Arrow-native, so lift those on entry."""
    if isinstance(b, pa.Table):
        return b
    import pandas as pd

    if isinstance(b, pd.DataFrame):
        return pa.Table.from_pandas(b, preserve_index=False)
    return pa.table(b)


@ray.remote
def _exchange_map(key: str, B: int, *blocks):
    """Split a GROUP of blocks into B bucket slices (one concat + stable
    argsort by key % B + zero-copy Arrow slices). Deterministic, so Ray task
    retries are safe. Maps take several blocks each so the slice matrix is
    ~(2 x CPUs) x B objects — one slice object per (input block, bucket)
    was measured as the dominant exchange overhead at high CPU counts
    (500 blocks x 128 buckets = 64k tiny refs for the reducers to fetch)."""
    blocks = [_as_arrow_block(b) for b in blocks]
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
    shards = [_as_arrow_block(s) for s in shards]
    parts = [s for s in shards if s.num_rows]
    if not parts:
        if not shards:
            return None
        return fn(max(shards, key=lambda s: s.num_columns).slice(0, 0))
    return fn(pa.concat_tables(parts).combine_chunks())


def _nonempty_block_refs(ds: ray.data.Dataset) -> list:
    """Materialized block refs with zero-row blocks dropped by METADATA.

    Zero-row blocks are not merely empty — they can be SCHEMA-LESS (zero
    columns): a lazy map over an empty block yields no batches, and Ray's
    read_parquet of a zero-row part file (an empty checkpoint) emits
    column-less blocks. Any consumer that indexes columns must skip them."""
    mat = ds.materialize()
    return [
        ref
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows is None or meta.num_rows > 0
    ]


_EXCHANGE_ROWS_PER_REDUCER = 4096
_EXCHANGE_BYTES_PER_REDUCER = 4 << 20


def _exchange_fanout(b_cap: int, rows: int, size_bytes: int, rows_known: bool = True) -> int:
    """Reduce-task count for a hash exchange, capped at the configured
    bucket count and sized by BOTH row count and byte volume.

    Rows alone under-size wide exchanges: band rows vary 16-64 B but
    payload-shuffle fallbacks carry KB-scale text rows, where 4096 rows is
    megabytes per reducer x a skew factor. The bytes floor keeps per-reducer
    volume bounded (~4 MB) regardless of row width, while tiny oracle-scale
    exchanges still collapse to one task instead of paying ``b_cap``
    scheduling costs. ``b_cap`` already scales with cluster CPUs
    (``_default_shuffle_buckets``) — a pure function so multi-node sizings
    are testable without a cluster."""
    if not rows_known:
        return b_cap
    by_rows = rows // _EXCHANGE_ROWS_PER_REDUCER
    by_bytes = (size_bytes or 0) // _EXCHANGE_BYTES_PER_REDUCER
    return max(1, min(b_cap, max(by_rows, by_bytes)))


def _hash_exchange_tasks(ds: ray.data.Dataset, key: str, B: int, fn) -> ray.data.Dataset:
    """Manual hash exchange: co-locate rows by ``key % B`` across ``B``
    reduce tasks, apply ``fn`` per bucket, return the results as a Dataset.

    Raw Ray tasks on purpose — this is the documented last-resort drop-down:
    the Dataset sort-groupby pays a flat double-digit-seconds machinery cost
    for multi-million-row exchanges on slim rows (see ``lsh_candidate_edges``
    measurements), while map-side argsort + zero-copy slices + one concat per
    reducer is bounded by actual bytes moved. Every intermediate stays in the
    object store (map returns ``num_returns=B`` slice objects; reducers fetch
    only their column of the slice matrix — on multi-node, Ray fetches those
    slices over the network exactly like shuffle blocks).
    """
    mat = ds.materialize()
    refs, rows, size_bytes, rows_known = [], 0, 0, True
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows is None:
                refs.append(ref)
                rows_known = False
            elif meta.num_rows > 0:  # zero-row blocks can be SCHEMA-LESS
                refs.append(ref)
                rows += meta.num_rows
                size_bytes += meta.size_bytes or 0
    if not refs:
        return ray.data.from_arrow(fn(None))
    B = _exchange_fanout(B, rows, size_bytes, rows_known)
    if B <= 1:
        red = [_exchange_reduce.remote(fn, *refs)]
    else:
        # group input blocks so the map side is ~2x CPUs tasks, not one per
        # block — the slice-object count (maps x B) is the exchange's real
        # fixed cost and grows with both cluster width and block count
        n_maps = max(1, min(len(refs), int(ray.cluster_resources().get("CPU", 8)) * 2))
        step = (len(refs) + n_maps - 1) // n_maps
        groups = [refs[i : i + step] for i in range(0, len(refs), step)]
        split = [
            _exchange_map.options(num_returns=B).remote(key, B, *g) for g in groups
        ]
        red = [_exchange_reduce.remote(fn, *[s[j] for s in split]) for j in range(B)]
    return ray.data.from_arrow_refs(red)


def _default_shuffle_buckets(mult: int = 4) -> int:
    try:
        import ray

        return max(8, int(ray.cluster_resources().get("CPU", 8)) * mult)
    except Exception:
        return 32


_OBJ_CACHE: dict = {}
_OBJ_CACHE_MAX = 8  # bounded: stale entries pin plasma objects + worker heap


def _fetch_cached(ref, build=None):
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


_IDX_SALT = np.uint64(0xC2B2AE3D27D4EB4F)


def _id_hash_pair(vals: np.ndarray):
    from ..functions.hashing import combine_hash64, hash64

    # h2 must be an INDEPENDENT hash of the values (different SipHash key);
    # deriving it from h1 would collapse the 128-bit check to 64 bits
    h1 = hash64(vals)
    h2 = combine_hash64(hash64(vals, alt_key=True), np.full(len(h1), _IDX_SALT, dtype=np.uint64))
    return h1, h2


@ray.remote
def _hash_pair_shard(arr: pa.Array):
    return _id_hash_pair(arr.to_numpy(zero_copy_only=False).astype(object))


def _unique_pairs(q1: np.ndarray, q2: np.ndarray):
    """SORTED-unique (h1, h2) pairs — lexsort by (h1, h2) then keep-first.

    The sort order (h1 major, h2 minor) is the contract
    ``_id_member_mask_pre`` searchsorts against; every endpoint-set merge in
    this module goes through here so a change to the order happens once."""
    o = np.lexsort((q2, q1))
    q1, q2 = q1[o], q2[o]
    if len(q1):
        keep = np.empty(len(q1), dtype=bool)
        keep[0] = True
        keep[1:] = (q1[1:] != q1[:-1]) | (q2[1:] != q2[:-1])
        q1, q2 = q1[keep], q2[keep]
    return q1, q2


@ray.remote
def _edge_endpoint_pairs(block):
    """Unique (h1, h2) endpoint pairs from a NUMERIC edge block — the
    endpoints already are id-hash pairs, so this is a pure uint64 unique."""
    block = _as_arrow_block(block)  # internal refs can be pandas blocks
    q1 = np.concatenate([block["ah1"].to_numpy(), block["bh1"].to_numpy()])
    q2 = np.concatenate([block["ah2"].to_numpy(), block["bh2"].to_numpy()])
    return _unique_pairs(q1, q2)


@ray.remote
def _edge_endpoint_hashes(block):
    """Unique (h1, h2) id-hash pairs over one edge block's a+b endpoints."""
    block = _as_arrow_block(block)  # internal refs can be pandas blocks
    arrs = []
    for c in ("a", "b"):
        col = block[c]
        arrs.append(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    arr = pa.concat_arrays(arrs)
    q1, q2 = _id_hash_pair(arr.to_numpy(zero_copy_only=False).astype(object))
    return _unique_pairs(q1, q2)


def _id_hash_pair_arrow(arr, chunk: int = 262_144):
    """(h1, h2) for an Arrow string array, hashed in parallel remote tasks.

    The driver-serial formulation (``to_numpy(object)`` + SipHash over
    Python strings) runs at ~1-2M ids/s and showed up as seconds of serial
    wall in every index build at multi-million-row corpora. Arrow slices
    ship zero-copy; the object materialization AND the hashing happen in the
    tasks. Same values as ``_id_hash_pair`` (same keys), just sharded."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n < 2 * chunk:
        return _id_hash_pair(arr.to_numpy(zero_copy_only=False).astype(object))
    parts = ray.get(
        [_hash_pair_shard.remote(arr.slice(i, chunk)) for i in range(0, n, chunk)]
    )
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


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


def _id_member_mask_pre(index, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Membership for PRE-HASHED query pairs (lets callers reuse the hashes)."""
    h1s, h2s = index
    return _pair_lookup_pos(h1s, h2s, q1, q2)[1]


def _id_member_mask(index, ids: np.ndarray) -> np.ndarray:
    """bool[n]: which ``ids`` are in the _build_id_index set (exact up to the
    2^-128 double-hash collision bound; rare equal-h1 runs scanned exactly)."""
    if len(ids) == 0:
        return np.zeros(0, dtype=bool)
    q1, q2 = _id_hash_pair(ids)
    return _id_member_mask_pre(index, q1, q2)


# ---- sharded endpoint-text index (numeric spine) -------------------------
# The single-task assemble's concat of every endpoint text grows linearly
# with the corpus (~2.5 s serial at 4M rows) — the index is instead built as
# 2^_INDEX_SHARD_BITS shards keyed by the top bits of h1 (uniform — h1 is a
# SipHash), each assembled by its own task. Scorers and the label-attach
# fast path group their queries by shard and searchsorted per shard.
_INDEX_SHARD_BITS = 3
_INDEX_SHARDS = 1 << _INDEX_SHARD_BITS
_INDEX_SHIFT = np.uint64(64 - _INDEX_SHARD_BITS)
_SLOT = np.int64(1) << np.int64(48)  # composite key: shard * _SLOT + slot


@ray.remote
def _route_index_shard(n_shards: int, *blocks):
    """Split a group of picked blocks into per-shard slices by h1 top bits
    (same concat + stable-argsort + zero-copy-slice shape as _exchange_map)."""
    parts = [b for b in blocks if b.num_rows]
    if not parts:
        empty = blocks[0].slice(0, 0)
        return [empty] * n_shards if n_shards > 1 else empty
    block = parts[0] if len(parts) == 1 else pa.concat_tables(parts).combine_chunks()
    sid = (block["_h1"].to_numpy() >> _INDEX_SHIFT).astype(np.int64)
    order = np.argsort(sid, kind="stable")
    t = block.take(pa.array(order))
    bounds = np.searchsorted(sid[order], np.arange(n_shards + 1))
    out = [t.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(n_shards)]
    return out if n_shards > 1 else out[0]


@ray.remote(num_returns=2)
def _assemble_index_shard(id_col: str, text_col: str, attr_cols, *blocks):
    """One READY index shard as TWO objects:

    * slim = (h1, h2, th1, th2, ids, attrs) — everything h1-SORTED; ~50-70 B
      per endpoint. Scorer tasks fetch ONLY this: th1/th2 (the text content
      hashes the pick pass computed) resolve byte-identical pairs — the
      dup-heavy majority — without ever touching a text byte.
    * texts — the endpoint texts (h1-sorted, separate object). Fetched by a
      scorer only when one of ITS pairs needs real shingling; the former
      single-object layout made every worker page in the full text index
      (a per-worker broadcast tax that grew with cluster size — measured
      ~10 s/wave at 32 CPUs vs ~2 s once text pages were already resident).
    """
    cols = [id_col, text_col, *attr_cols, "_h1", "_h2", "_th1", "_th2"]
    tabs = [b for b in blocks if b.num_rows > 0]
    if not tabs:
        e64 = np.empty(0, dtype=np.uint64)
        none_arr = pa.array([], pa.string())
        return (e64, e64, e64, e64, none_arr, None), none_arr
    schema = tabs[0].select(cols).schema
    tab = pa.concat_tables([t.select(cols).cast(schema) for t in tabs])
    h1 = tab["_h1"].to_numpy()
    take = pa.array(np.argsort(h1, kind="stable").astype(np.int64))
    tab = tab.take(take).combine_chunks()
    ids = tab[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    texts = tab[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    attrs = tab.select(list(attr_cols)).combine_chunks() if attr_cols else None
    slim = (
        tab["_h1"].to_numpy(),
        tab["_h2"].to_numpy(),
        tab["_th1"].to_numpy(),
        tab["_th2"].to_numpy(),
        ids,
        attrs,
    )
    return slim, texts


def _shard_slot_keys(shards, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Composite (shard * _SLOT + sorted-position slot) per query pair; -1
    when the 128-bit pair is absent. Queries group by shard via one
    argsort-free masked pass (n_shards is small)."""
    key = np.full(len(q1), -1, dtype=np.int64)
    if len(q1) == 0:
        return key
    sid = (q1 >> _INDEX_SHIFT).astype(np.int64)
    for s in np.unique(sid):
        h1s, h2s = shards[s][0], shards[s][1]
        if len(h1s) == 0:
            continue
        m = sid == s
        pos, found = _pair_lookup_pos(h1s, h2s, q1[m], q2[m])
        key[m] = np.where(found, s * _SLOT + pos, -1)
    return key


def _shard_iter_groups(keys: np.ndarray):
    """(shard, slice, slots) for SORTED composite keys (contiguous groups)."""
    i, n = 0, len(keys)
    while i < n:
        s = int(keys[i] >> np.int64(48))
        j = int(np.searchsorted(keys, (s + 1) * _SLOT, side="left"))
        yield s, slice(i, j), (keys[i:j] - s * _SLOT)
        i = j


def _shard_gather(shards, keys: np.ndarray, what: str):
    """Column ``what`` ("ids" | "th1" | "th2" | an attr name) for SORTED
    composite keys (shard groups are contiguous). keys must be >= 0.
    th1/th2 return numpy; ids/attrs return Arrow."""
    if what in ("th1", "th2"):
        idx = 2 if what == "th1" else 3
        out = np.empty(len(keys), dtype=np.uint64)
        for s, sl, slots in _shard_iter_groups(keys):
            out[sl] = shards[s][idx][slots]
        return out
    parts = []
    for s, _sl, slots in _shard_iter_groups(keys):
        sh = shards[s]
        if what == "ids":
            src = sh[4]
        else:
            src = sh[5][what]
            if isinstance(src, pa.ChunkedArray):
                src = src.combine_chunks()
        parts.append(src.take(pa.array(slots, pa.int64())))
    if not parts:
        return pa.array([], pa.string())
    return pa.concat_arrays([p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in parts])


def _score_edges_numeric_shards(
    t: pa.Table, shards, spec, threshold: float, text_refs=None,
    emit_ids: bool = True,
) -> pa.Table:
    """Numeric-spine scorer over the SHARDED endpoint index (same lookups,
    byte-identical-shortcut + exact-Jaccard math as the former single-index
    scorer; bit-identical output).

    The byte-identical shortcut runs entirely on the slim shards' PRE-HASHED
    text fingerprints (th1, th2 — computed once in the parallel pick pass).
    Real texts are pulled per shard via ``text_refs`` ONLY for the
    non-identical minority; on dup-heavy corpora most scorer tasks never
    touch a text byte (the former every-task text gather made each worker
    page in the whole text index — a per-worker broadcast tax).

    ``emit_ids=False`` keeps the output on the numeric spine
    (ah1, ah2, bh1, bh2, jaccard): the string ids — the other per-task
    gather that grows with the endpoint count — never enter the scorer, and
    downstream components/representative stages consume the hash pairs
    directly (the flagship path; ids materialize once from the index in
    apply_cluster_labels)."""
    from ..functions.hashing import hash64

    if emit_ids:
        empty = pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    else:
        empty = pa.table(
            {
                **{c: pa.array([], pa.uint64()) for c in ("ah1", "ah2", "bh1", "bh2")},
                "jaccard": pa.array([], pa.float64()),
            }
        )
    if t.num_rows == 0:
        return empty
    P = t.num_rows
    q1 = np.concatenate([t["ah1"].to_numpy(), t["bh1"].to_numpy()])
    q2 = np.concatenate([t["ah2"].to_numpy(), t["bh2"].to_numpy()])
    key = _shard_slot_keys(shards, q1, q2)
    uniq, inv = np.unique(key, return_inverse=True)
    start = 1 if len(uniq) and uniq[0] < 0 else 0  # -1: endpoint missing
    real = uniq[start:]
    ids_arr = _shard_gather(shards, real, "ids") if emit_ids else None
    th1 = _shard_gather(shards, real, "th1")
    th2 = _shard_gather(shards, real, "th2")
    if start:
        # missing endpoints can only survive as ""-vs-"" pairs, which cannot
        # arise from real band rows; emit null ids for them (old behavior:
        # a missing endpoint's text normalized to "")
        e = np.array([""], dtype=object)
        th1 = np.concatenate([hash64(e), th1])
        th2 = np.concatenate([hash64(e, alt_key=True), th2])
        if emit_ids:
            ids_arr = pa.concat_arrays(
                [pa.array([None], pa.string()), ids_arr.combine_chunks() if isinstance(ids_arr, pa.ChunkedArray) else ids_arr]
            )
    a_idx, b_idx = inv[:P], inv[P:]
    same = (th1[a_idx] == th1[b_idx]) & (th2[a_idx] == th2[b_idx])
    jac = np.ones(P, dtype=np.float64)
    rest = np.nonzero(~same)[0]
    if len(rest):
        need = np.unique(np.concatenate([a_idx[rest], b_idx[rest]]))
        remap = np.full(len(uniq), -1, dtype=np.int64)
        remap[need] = np.arange(len(need))
        texts_u = _gather_need_texts(uniq[need], text_refs)
        allv, starts, counts = _shingle_sets(spec, texts_u)
        jac[rest] = pairwise_jaccard(
            remap[a_idx[rest]], remap[b_idx[rest]], allv, starts, counts
        )
    sel = np.nonzero(jac >= threshold)[0]
    if len(sel) == 0:
        return empty
    if not emit_ids:
        take = pa.array(sel, pa.int64())
        return pa.table(
            {
                "ah1": t["ah1"].take(take),
                "ah2": t["ah2"].take(take),
                "bh1": t["bh1"].take(take),
                "bh2": t["bh2"].take(take),
                "jaccard": pa.array(jac[sel], pa.float64()),
            }
        )
    return pa.table(
        {
            "a": ids_arr.take(pa.array(a_idx[sel], pa.int64())),
            "b": ids_arr.take(pa.array(b_idx[sel], pa.int64())),
            "jaccard": pa.array(jac[sel], pa.float64()),
        }
    )


def _gather_need_texts(need_keys: np.ndarray, text_refs) -> np.ndarray:
    """Texts (object array, None -> "") for SORTED composite keys; -1 keys
    map to "". Each needed TEXT shard is fetched at most once per call —
    and not at all when no pair in the task needs shingling."""
    out = np.empty(len(need_keys), dtype=object)
    miss = need_keys < 0
    out[miss] = ""
    pos = np.nonzero(~miss)[0]
    rk = need_keys[~miss]
    for s, sl, slots in _shard_iter_groups(rk):
        texts = text_refs[s]
        if isinstance(texts, ray.ObjectRef):
            texts = ray.get(texts)
        got = texts.take(pa.array(slots, pa.int64())).to_pylist()
        out[pos[sl]] = [g if isinstance(g, str) else "" for g in got]
    return out


@ray.remote
def _score_edges_task(
    block: pa.Table, shard_refs, text_refs, spec, threshold: float,
    piece: int = 0, n_pieces: int = 1, emit_ids: bool = True,
) -> pa.Table:
    """Raw-task scorer: one edge-block SLICE against the sharded index. Raw
    tasks on purpose — wrapping the (already materialized) edge blocks back
    into a Dataset map_batches costs a whole extra execution round (~1-2 s
    fixed). ``piece``/``n_pieces`` slice the block inside the task (zero-copy)
    so the scorer fan-out exceeds the edge-dedup exchange width — one task
    per EB block left straggler waves at 32 CPUs. ``text_refs`` stay
    UNRESOLVED (plain ObjectRefs in a list) so a task whose pairs are all
    byte-identical never ships a text shard."""
    block = _as_arrow_block(block)  # internal refs can be pandas blocks
    if n_pieces > 1:
        n = block.num_rows
        start = (n * piece) // n_pieces
        stop = (n * (piece + 1)) // n_pieces
        block = block.slice(start, stop - start)
    shards = ray.get(list(shard_refs))
    return _score_edges_numeric_shards(
        block, shards, spec, threshold, text_refs=text_refs, emit_ids=emit_ids
    )


def _index_lookup_texts(index, want_ids: np.ndarray):
    """(texts list, th1, th2) for ``want_ids`` from a ready
    (h1, h2, texts, order, th1, th2) index — missing ids get text None and
    the content hash of "". The index is assembled ONCE — on the driver or
    in one remote task — and broadcast ready-to-use: building it per worker
    is a broadcast tax that grows with cluster size (measured ~1-8 s per
    worker at ~460k endpoints — it alone inverted 8->32 CPU scaling). Texts
    stay zero-copy Arrow; the 128-bit check makes a wrong-text lookup as
    unlikely as the engine's exact-dedup identity collisions (~2^-128)."""
    from ..functions.hashing import hash64

    h1s, h2s, text_arr, order = index[:4]
    ith1, ith2 = index[4], index[5]
    empty = np.array([""], dtype=object)
    e1, e2 = hash64(empty)[0], hash64(empty, alt_key=True)[0]
    n = len(h1s)
    if n == 0:
        k = len(want_ids)
        return (
            [None] * k,
            np.full(k, e1, dtype=np.uint64),
            np.full(k, e2, dtype=np.uint64),
        )
    q1, q2 = _id_hash_pair(want_ids)
    pos, found = _pair_lookup_pos(h1s, h2s, q1, q2)
    take = order[pos]
    out = text_arr.take(pa.array(take)).to_pylist()
    th1 = np.where(found, ith1[take], e1)
    th2 = np.where(found, ith2[take], e2)
    return [t if ok else None for t, ok in zip(out, found)], th1, th2


def _shingle_sets(spec, texts) -> tuple:
    """(values, starts, counts) ragged SORTED-UNIQUE shingle segments for
    ``texts`` — the pairwise_jaccard input layout. Char mode runs the batch
    kernel in ~512-doc chunks (bounded scratch: the monolithic batch's
    ~25 MB alloc/free churn per task triggered the same THP page-fault
    stalls under 32-way concurrency that capped OPH signing — see
    sketches.OPH_CHUNK_DOCS); word mode keeps the per-doc loop (token
    joining is Python-bound either way)."""
    mode, size = spec
    if mode == "char":
        from ..functions.hashing import char_ngram_sets_batch

        CHUNK = 512
        if len(texts) <= CHUNK:
            return char_ngram_sets_batch(texts, k=size)
        vs, cs = [], []
        for i in range(0, len(texts), CHUNK):
            v, _s, c = char_ngram_sets_batch(texts[i : i + CHUNK], k=size)
            vs.append(v)
            cs.append(c)
        values = np.concatenate(vs)
        counts = np.concatenate(cs)
        starts = np.cumsum(counts) - counts
        return values, starts, counts
    sets = [word_ngram_hashes(t, size) for t in texts]
    counts = np.array([len(s) for s in sets], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    allv = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
    return allv, starts, counts


def pairwise_jaccard(
    a_idx: np.ndarray, b_idx: np.ndarray, allv: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Jaccard for P endpoint-index pairs over ragged unique-shingle segments
    (``allv[starts[i]:starts[i]+counts[i]]`` = endpoint i's SORTED unique set).

    |A ∩ B| by per-pair ``np.searchsorted`` membership of the smaller set in
    the larger — two C calls per pair over zero-copy views, no per-element
    Python. (A "fully vectorized" ragged-gather + lexsort formulation was
    measured ~50x slower: it re-sorts data that is already sorted per
    segment.)
    """
    P = len(a_idx)
    if P == 0:
        return np.empty(0, dtype=np.float64)
    out = np.empty(P, dtype=np.float64)
    ca, cb = counts[a_idx], counts[b_idx]
    sa, sb = starts[a_idx], starts[b_idx]
    for p in range(P):
        na, nb = ca[p], cb[p]
        if na == 0 and nb == 0:
            out[p] = 1.0
            continue
        if na == 0 or nb == 0:
            out[p] = 0.0
            continue
        A = allv[sa[p] : sa[p] + na]
        B = allv[sb[p] : sb[p] + nb]
        if na < nb:  # probe the smaller set into the larger
            A, B = B, A
            na, nb = nb, na
        pos = np.searchsorted(A, B)
        pos[pos == na] = na - 1
        inter = int(np.count_nonzero(A[pos] == B))
        out[p] = inter / (na + nb - inter)
    return out


def _verify_score_batch(df: pd.DataFrame, texts_ref, spec, threshold: float) -> pd.DataFrame:
    """Exact-Jaccard scoring of one edge batch: shingle each unique endpoint
    once (numpy polynomial hashing per doc; texts pulled zero-copy from the
    broadcast Arrow index), then the searchsorted pairwise_jaccard kernel.

    Byte-identical endpoints short-circuit: a pair whose texts agree on a
    128-bit content hash has Jaccard exactly 1 — no shingling needed. On
    dup-heavy web corpora the bulk of candidate edges are exact copies, so
    this removes most of the verify CPU (the reference's equal-hash fast path
    before byte compare, /root/reference/src/hash_dup_remover.hpp:122-139)."""
    from ..functions.hashing import hash64

    # texts_ref holds the READY (h1, h2, texts, order, th1, th2) index
    # assembled remotely — zero per-worker build (numpy/Arrow components come
    # back zero-copy from the object store); the content hashes were
    # computed once per endpoint there, so no per-batch full-text re-hash
    index = _fetch_cached(texts_ref)
    ids = pd.unique(np.concatenate([df["a"].to_numpy(), df["b"].to_numpy()]))
    batch_texts, th1, th2 = _index_lookup_texts(index, np.asarray(ids, dtype=object))
    texts_arr = np.array([t or "" for t in batch_texts], dtype=object)
    # vectorized id -> endpoint slot (hash-based C indexer, not per-row .map)
    idx = pd.Index(ids)
    a_idx = idx.get_indexer(df["a"]).astype(np.int64)
    b_idx = idx.get_indexer(df["b"]).astype(np.int64)
    same = (th1[a_idx] == th1[b_idx]) & (th2[a_idx] == th2[b_idx])
    jac = np.ones(len(df), dtype=np.float64)
    rest = np.nonzero(~same)[0]
    if len(rest):
        need = np.unique(np.concatenate([a_idx[rest], b_idx[rest]]))
        remap = np.full(len(ids), -1, dtype=np.int64)
        remap[need] = np.arange(len(need))
        allv, starts, counts = _shingle_sets(spec, texts_arr[need])
        jac[rest] = pairwise_jaccard(
            remap[a_idx[rest]], remap[b_idx[rest]], allv, starts, counts
        )
    out = df[["a", "b"]].copy()
    out["jaccard"] = jac
    return out[out["jaccard"] >= threshold]


def build_endpoint_index(
    edges: ray.data.Dataset,
    pages: ray.data.Dataset,
    id_col: str = "url",
    text_col: str = "text",
    attr_cols=(),
) -> tuple:
    """(slim_shard_refs, text_shard_refs, attrs_present) — the sharded
    endpoint index for a MATERIALIZED numeric edge list (ah1..bh2).

    One parallel corpus scan picks the edge endpoints (id-hash membership),
    computing the id hash pair and the text content-hash pair per row;
    route + assemble tasks build ``_INDEX_SHARDS`` h1-sharded indexes, each
    split into a slim object (hashes + ids + attrs) and a texts object.
    Used by the verify scorer, by apply_cluster_labels' member gather, and
    to REBUILD the index when a checkpoint-resumed run loads numeric edges
    without a live verify stage."""
    from ..functions.hashing import hash64

    ep_parts = ray.get(
        [_edge_endpoint_pairs.remote(r) for r in _nonempty_block_refs(edges)]
    )
    eh1, eh2 = _unique_pairs(
        np.concatenate([p[0] for p in ep_parts] or [np.empty(0, np.uint64)]),
        np.concatenate([p[1] for p in ep_parts] or [np.empty(0, np.uint64)]),
    )
    ep_ref = ray.put((eh1, eh2))

    # columns the pick pass carries into the index: id + text always, plus
    # any attr columns present in the pages schema (order cols for the
    # label-attach fast path — 8 B each, negligible next to text)
    page_cols = set(pages.schema().names)
    attrs_present = [
        c for c in attr_cols if c in page_cols and c not in (id_col, text_col)
    ]
    pick_cols = [id_col, text_col, *attrs_present]

    def pick(t: pa.Table) -> pa.Table:
        # emit the id hashes computed for the membership test — the assemble
        # tasks build the READY lookup index from them, so scorer workers
        # never hash/convert the endpoint ids themselves. The TEXT
        # content-hash pair (_th1, _th2) is also computed here, in the
        # parallel corpus scan: scorers resolve byte-identical pairs from
        # these 16 bytes without touching the text itself.
        eps = _fetch_cached(ep_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(object)
        q1, q2 = _id_hash_pair(ids)
        mask = _id_member_mask_pre(eps, q1, q2)
        out = t.select(pick_cols).filter(pa.array(mask))
        texts = out[text_col].to_numpy(zero_copy_only=False).astype(object)
        texts = np.array([tx if isinstance(tx, str) else "" for tx in texts], dtype=object)
        out = out.append_column("_h1", pa.array(q1[mask], pa.uint64()))
        out = out.append_column("_h2", pa.array(q2[mask], pa.uint64()))
        out = out.append_column("_th1", pa.array(hash64(texts), pa.uint64()))
        return out.append_column("_th2", pa.array(hash64(texts, alt_key=True), pa.uint64()))

    # the endpoint texts never touch the driver: picked blocks stay in the
    # object store and remote tasks assemble them into the READY broadcast
    # index. Building the index per WORKER instead (round-2 design) cost
    # several CPU-seconds x every worker — a per-worker broadcast tax that
    # grows with cluster size and inverts scaling.
    picked = (
        pages.select_columns(pick_cols)
        .map_batches(pick, batch_format="pyarrow")
        .materialize()
    )
    block_refs = [
        ref
        for bundle in picked.iter_internal_ref_bundles()
        for ref, _meta in bundle.blocks
    ]
    if not block_refs:
        return [], [], attrs_present
    n_maps = max(1, min(len(block_refs), int(ray.cluster_resources().get("CPU", 8)) * 2))
    step = (len(block_refs) + n_maps - 1) // n_maps
    groups = [block_refs[i : i + step] for i in range(0, len(block_refs), step)]
    routed = [
        _route_index_shard.options(num_returns=_INDEX_SHARDS).remote(_INDEX_SHARDS, *g)
        for g in groups
    ]
    assembled = [
        _assemble_index_shard.remote(id_col, text_col, attrs_present, *[r[s] for r in routed])
        for s in range(_INDEX_SHARDS)
    ]
    return [a[0] for a in assembled], [a[1] for a in assembled], attrs_present


def verify_edges_jaccard(
    edges: ray.data.Dataset,
    pages: ray.data.Dataset,
    threshold: float,
    params: MinHashParams = MinHashParams(),
    id_col: str = "url",
    text_col: str = "text",
    num_partitions: int | None = None,
    broadcast_edge_budget: int | None = None,
    spread: bool = True,
    attr_cols=(),
    out: dict | None = None,
    emit_ids: bool = True,
) -> ray.data.Dataset:
    """Exact-Jaccard verification of candidate edges against the real shingles.

    ``spread=False`` skips the pre-scoring repartition — pass it when the
    edge list is already distributed over enough blocks (e.g. the fused
    edge-dedup groupby emits ~2x-CPU blocks); the repartition is an
    all-to-all barrier worth avoiding at scale.

    Dispatch on edge-list size (the candidate relation is a few % of the
    corpus by LSH design):

    * small side (default): collect the edge endpoints, stream ONE filter
      pass over the corpus to pull just their texts, broadcast that id->text
      map via ``ray.put``, and score edges in an elastic task pool — zero
      shuffles, no join actors. This is the fast path at every scale where
      the endpoint text map fits the object store (~GBs).
    * fallback: two distributed hash joins (the original formulation) when
      the edge list exceeds ``broadcast_edge_budget``.

    ``attr_cols``: extra columns the pick pass carries into the (numeric)
    endpoint index — apply_cluster_labels reuses them to skip its own
    corpus attach pass. ``out``: optional dict receiving ``index_shards``
    (list of shard refs) + ``attr_cols`` when the numeric broadcast limb ran.

    Returns edges with a ``jaccard`` column filtered to >= threshold.
    ``edges`` should be materialized by the caller (it is counted here).
    """
    numeric = "ah1" in edges.schema().names
    if not numeric:
        emit_ids = True  # string edges in = string edges out (single path)
    if broadcast_edge_budget is None:
        # numeric spine: the driver only ever merges 16 B/endpoint uint64
        # pairs and the broadcast is two sorted uint64 arrays — 16M edges is
        # ~512 MB of driver scratch, well under one worker's heap. The string
        # limb hashes endpoint STRINGS in remote tasks but broadcasts more;
        # keep its budget conservative. Above budget: distributed hash joins.
        broadcast_edge_budget = 16_000_000 if numeric else 2_000_000
    n_edges = edges.count()
    if n_edges == 0:
        if numeric:
            # keep the empty schema consistent with the non-empty output
            if emit_ids:
                return ray.data.from_arrow(
                    pa.table(
                        {
                            "a": pa.array([], pa.string()),
                            "b": pa.array([], pa.string()),
                            "jaccard": pa.array([], pa.float64()),
                        }
                    )
                )
            return ray.data.from_arrow(
                pa.table(
                    {
                        **{c: pa.array([], pa.uint64()) for c in ("ah1", "ah2", "bh1", "bh2")},
                        "jaccard": pa.array([], pa.float64()),
                    }
                )
            )
        return edges
    if n_edges <= broadcast_edge_budget:
        if numeric:
            # SHARDED endpoint index + raw-task scorer (the flagship hot
            # path); see build_endpoint_index for the scan/shard design
            shard_refs, text_refs, attrs_present = build_endpoint_index(
                edges, pages, id_col=id_col, text_col=text_col, attr_cols=attr_cols
            )
            spec = (
                params.shingle,
                params.word_n if params.shingle == "word" else params.shingle_k,
            )
            if not shard_refs:
                return ray.data.from_arrow(
                    _score_edges_numeric_shards(
                        pa.table(
                            {c: pa.array([], pa.uint64()) for c in ("ah1", "ah2", "bh1", "bh2")}
                        ),
                        [],
                        spec,
                        threshold,
                        emit_ids=emit_ids,
                    )
                )
            if out is not None:
                out["index_shards"] = shard_refs
                out["attr_cols"] = attrs_present
            edge_refs = _nonempty_block_refs(edges)
            if not edge_refs:
                return ray.data.from_arrow(
                    _score_edges_numeric_shards(
                        pa.table({c: pa.array([], pa.uint64()) for c in ("ah1", "ah2", "bh1", "bh2")}),
                        [], spec, threshold, emit_ids=emit_ids,
                    )
                )
            # fan scoring wider than the EB exchange width: ~3 tasks per CPU
            # absorbs stragglers (shingle cost varies per bucket)
            per_block = max(
                1,
                -(-int(ray.cluster_resources().get("CPU", 8)) * 3 // max(len(edge_refs), 1)),
            )
            scored = [
                _score_edges_task.remote(
                    b, shard_refs, text_refs, spec, threshold,
                    piece=i, n_pieces=per_block, emit_ids=emit_ids,
                )
                for b in edge_refs
                for i in range(per_block)
            ]
            return ray.data.from_arrow_refs(scored)
        # ---- string limb: endpoint hash set built WITHOUT the edge strings
        # ever visiting the driver: per-block remote tasks hash (a, b)
        # endpoints and pre-unique them; the driver only merges uint64 pairs
        ep_remote = _edge_endpoint_hashes
        ep_parts = ray.get(
            [ep_remote.remote(r) for r in _nonempty_block_refs(edges)]
        )
        eh1, eh2 = _unique_pairs(
            np.concatenate([p[0] for p in ep_parts] or [np.empty(0, np.uint64)]),
            np.concatenate([p[1] for p in ep_parts] or [np.empty(0, np.uint64)]),
        )
        ep_ref = ray.put((eh1, eh2))

        # the string-limb index carries only id + text: its scorer
        # (_verify_score_batch) resolves byte-identical pairs from text
        # hashes it computes per batch, so precomputing _th1/_th2 or attr
        # columns here would be work the assemble step immediately discards
        # (the NUMERIC limb's richer index is built in build_endpoint_index)
        pick_cols = [id_col, text_col]

        def pick(t: pa.Table) -> pa.Table:
            # emit the id hashes computed for the membership test — the
            # assemble tasks below build the READY lookup index from them, so
            # scorer workers never hash/convert the endpoint ids themselves
            eps = _fetch_cached(ep_ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(object)
            q1, q2 = _id_hash_pair(ids)
            mask = _id_member_mask_pre(eps, q1, q2)
            out = t.select(pick_cols).filter(pa.array(mask))
            out = out.append_column("_h1", pa.array(q1[mask], pa.uint64()))
            return out.append_column("_h2", pa.array(q2[mask], pa.uint64()))

        # the endpoint texts never touch the driver: picked blocks stay in
        # the object store and remote tasks assemble them into the READY
        # broadcast index (sorted hash arrays + zero-copy Arrow texts)
        # the scorers fetch. Building the index per WORKER instead (round-2
        # design) cost several CPU-seconds x every worker — a per-worker
        # broadcast tax that grows with cluster size and inverts scaling.
        picked = (
            pages.select_columns(pick_cols)
            .map_batches(pick, batch_format="pyarrow")
            .materialize()
        )

        @ray.remote
        def _assemble(*blocks):
            tabs = [
                b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
                for b in blocks
            ]
            # pandas-backed pipelines emit empty blocks whose inferred schema
            # (null types) mismatches the real one — keep non-empty only and
            # unify to the first real schema before concat
            cols = [id_col, text_col, "_h1", "_h2"]
            tabs = [t for t in tabs if t.num_rows > 0]
            if not tabs:
                empty = np.empty(0, dtype=np.uint64)
                none_arr = pa.array([], pa.string())
                return empty, empty, none_arr, np.empty(0, np.int64), empty, empty
            schema = tabs[0].select(cols).schema
            tab = pa.concat_tables([t.select(cols).cast(schema) for t in tabs])
            h1 = tab["_h1"].to_numpy()
            h2 = tab["_h2"].to_numpy()
            order = np.argsort(h1, kind="stable").astype(np.int64)
            texts = tab[text_col]
            if isinstance(texts, pa.ChunkedArray):
                texts = texts.combine_chunks()
            # the text content-hash pair is computed HERE, once per endpoint —
            # the scorer's byte-identical shortcut otherwise re-SipHashes
            # every unique endpoint's full text on every edge batch it
            # appears in (endpoints recur across batches)
            from ..functions.hashing import hash64

            tnorm = np.array(
                [t if isinstance(t, str) else "" for t in texts.to_pylist()],
                dtype=object,
            )
            th1 = hash64(tnorm)
            th2 = hash64(tnorm, alt_key=True)
            # ready (h1, h2, texts, order, th1, th2) tuple — texts/th stay in
            # original tab order; ``order[pos]`` maps a sorted probe back
            return h1[order], h2[order], texts, order, th1, th2

        block_refs = [
            ref for bundle in picked.iter_internal_ref_bundles() for ref, _meta in bundle.blocks
        ]
        texts_ref = _assemble.remote(*block_refs)
        # scoring parallelism = block count; the edge list often lands in a
        # handful of groupby output blocks, so spread it before the pool
        # (unless the caller already did — spread=False)
        if spread:
            n_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
            edges = edges.repartition(n_blocks)
        spec = (params.shingle, params.word_n if params.shingle == "word" else params.shingle_k)
        return edges.map_batches(
            _verify_score_batch,
            fn_kwargs={"texts_ref": texts_ref, "spec": spec, "threshold": threshold},
            batch_format="pandas",
        )
    if numeric:
        return _verify_edges_join_numeric(
            edges, pages, threshold, params=params, id_col=id_col,
            text_col=text_col, num_partitions=num_partitions,
        )
    return _verify_edges_join(
        edges, pages, threshold, params=params, id_col=id_col,
        text_col=text_col, num_partitions=num_partitions,
    )


def _verify_edges_join(
    edges: ray.data.Dataset,
    pages: ray.data.Dataset,
    threshold: float,
    params: MinHashParams = MinHashParams(),
    id_col: str = "url",
    text_col: str = "text",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Join-based verify (the >broadcast-budget path).

    Joins the slim edge list back to text twice (a side, b side) via Ray's
    hash join, then recomputes true shingle Jaccard per pair — the analogue of
    the reference comparing actual bytes after hash routing.

    Callers should pass a *materialized* ``edges`` dataset: chaining the
    upstream actor pools + sort + two hash joins into one lazy plan can
    deadlock on small CPU counts (every operator pins actors/CPUs at once).
    """
    from ..util import coalesce_schema_blocks

    num_partitions = num_partitions or default_join_partitions()
    texts = pages.select_columns([id_col, text_col])
    # map_groups-produced edge lists can contain schema-less empty blocks
    # that the Arrow hash join rejects — normalize first
    edges = coalesce_schema_blocks(edges)
    ea = (
        edges.join(texts, "inner", num_partitions=num_partitions, on=("a",), right_on=(id_col,))
        .rename_columns({text_col: "_text_a"})
        .materialize()  # two join operators in one plan can over-pin aggregator actors
    )
    # empty join partitions skip the rename Project and keep the pre-rename
    # schema; the second hash join then sees mixed schemas and rejects the
    # key ("No match or multiple matches") — drop the empties first
    ea = coalesce_schema_blocks(ea)
    eab = ea.join(
        texts, "inner", num_partitions=num_partitions, on=("b",), right_on=(id_col,)
    ).rename_columns({text_col: "_text_b"})

    spec = (params.shingle, params.word_n if params.shingle == "word" else params.shingle_k)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        P = len(df)
        both = np.concatenate(
            [df["_text_a"].to_numpy(dtype=object), df["_text_b"].to_numpy(dtype=object)]
        )
        # normalize nulls to "" (astype(str) would turn None into the literal
        # string "None" — a real one-token document in word-shingle mode,
        # diverging from the broadcast verify path's `t or ""` handling)
        both = np.array([t if isinstance(t, str) else "" for t in both], dtype=object)
        uniq, inv = np.unique(both, return_inverse=True)
        allv, starts, counts = _shingle_sets(spec, uniq)
        out = df[["a", "b"]].copy()
        out["jaccard"] = pairwise_jaccard(inv[:P], inv[P:], allv, starts, counts)
        return out[out["jaccard"] >= threshold]

    return eab.map_batches(score, batch_format="pandas")


def _verify_edges_join_numeric(
    edges: ray.data.Dataset,
    pages: ray.data.Dataset,
    threshold: float,
    params: MinHashParams = MinHashParams(),
    id_col: str = "url",
    text_col: str = "text",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Join-based verify for the numeric spine (the >broadcast-budget scale
    path): pages are projected to (h1, h2, id, text) in one slim pass, then
    the hash-pair edge list hash-joins that projection twice (a side, b
    side). Joining on the uint64 ``h1`` carries the 2^-64 birthday load of
    the join key alone; the ``h2`` equality is re-checked post-join so the
    effective identity stays 128-bit. Emits the string (a, b, jaccard)
    contract, exactly like the broadcast limb."""
    from ..util import coalesce_schema_blocks

    num_partitions = num_partitions or default_join_partitions()

    def project(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(object)
        q1, q2 = _id_hash_pair(ids)
        return pa.table(
            {
                "_ph1": pa.array(q1, pa.uint64()),
                "_ph2": pa.array(q2, pa.uint64()),
                id_col: t[id_col],
                text_col: t[text_col],
            }
        )

    texts = pages.select_columns([id_col, text_col]).map_batches(
        project, batch_format="pyarrow"
    )
    edges = coalesce_schema_blocks(edges)
    ea = (
        edges.join(texts, "inner", num_partitions=num_partitions, on=("ah1",), right_on=("_ph1",))
        .rename_columns({text_col: "_text_a", id_col: "a", "_ph2": "_check_a"})
        .materialize()
    )
    ea = coalesce_schema_blocks(ea)
    eab = ea.join(
        texts, "inner", num_partitions=num_partitions, on=("bh1",), right_on=("_ph1",)
    ).rename_columns({text_col: "_text_b", id_col: "b", "_ph2": "_check_b"})

    spec = (params.shingle, params.word_n if params.shingle == "word" else params.shingle_k)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        # h2 re-check: drop 64-bit h1 coincidences the join key let through
        df = df[
            (df["_check_a"].to_numpy() == df["ah2"].to_numpy())
            & (df["_check_b"].to_numpy() == df["bh2"].to_numpy())
        ]
        P = len(df)
        both = np.concatenate(
            [df["_text_a"].to_numpy(dtype=object), df["_text_b"].to_numpy(dtype=object)]
        )
        both = np.array([t if isinstance(t, str) else "" for t in both], dtype=object)
        uniq, inv = np.unique(both, return_inverse=True)
        allv, starts, counts = _shingle_sets(spec, uniq)
        out = df[["a", "b"]].copy()
        out["jaccard"] = pairwise_jaccard(inv[:P], inv[P:], allv, starts, counts)
        return out[out["jaccard"] >= threshold]

    return eab.map_batches(score, batch_format="pandas")


def dedup_edges_minhash(
    pages: ray.data.Dataset,
    params: MinHashParams = MinHashParams(),
    id_col: str = "url",
    text_col: str = "text",
    order_cols=("warc_ts", "url"),
    verify: bool = True,
    threshold: float | None = None,
    signer_concurrency=None,
    max_bucket: int = 256,
    out: dict | None = None,
    emit: str = "ids",  # "ids" (public string contract) | "numeric" (flagship)
    sign_pages: ray.data.Dataset | None = None,
    extra_band_rows: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """pages -> verified near-duplicate candidate edges (a, b)[, jaccard].

    The full candidate half of the MinHash pipeline; feed the result into
    stages.components.connected_components and stages.representative.

    Incremental reuse: ``sign_pages`` restricts the SIGNING pass to a subset
    of ``pages`` (default: all of them), and ``extra_band_rows`` unions
    pre-computed band rows into the LSH input — together they let a caller
    persist one corpus's band rows once (write_parquet) and re-sign only the
    new side on later runs (see stages.crossdedup.sign_reference_bands). The
    extra rows MUST have been signed with the same params and the same
    numeric/string id mode as this call (numeric when ``verify=True``), and
    ``pages`` must still cover every signed doc — the verify stage gathers
    endpoint texts from ``pages``.
    """
    threshold = params.threshold() if threshold is None else threshold
    # NUMERIC SPINE (verify mode): band rows and candidate edges carry
    # 128-bit id-hash pairs instead of id strings — the exchange ships 24 B
    # fixed per band row (vs the id string repeated per band), every sort and
    # groupby in the hot path is a numeric kernel, and the verify stage
    # re-attaches string ids from its endpoint-text index (built anyway).
    # verify=False callers get string edges directly (old path) since there
    # is no index to translate hashes back.
    numeric = bool(verify)
    slim_cols = [id_col, text_col] if numeric else sorted(set([id_col, text_col, *order_cols]))
    slim = (sign_pages if sign_pages is not None else pages).select_columns(slim_cols)
    sign_kwargs = {
        "params": params,
        "text_col": text_col,
        "id_col": id_col,
        "order_cols": order_cols,
        "numeric_ids": numeric,
    }
    if signer_concurrency is None:
        # default: elastic task pool — scales to free CPUs, no actor startup
        band_rows = slim.map_batches(
            sign_and_band, fn_kwargs=sign_kwargs, batch_format="pyarrow", batch_size=2048
        )
    else:
        band_rows = slim.map_batches(
            SignAndBand,
            fn_constructor_kwargs=sign_kwargs,
            batch_format="pyarrow",
            batch_size=2048,
            concurrency=signer_concurrency,
        )
    # the same (a, b) pair can surface from several bands (~9x duplication at
    # typical configs) — dedup the slim edge list before the expensive
    # verify. The edge-bucket key (_ebucket = hash(a) % EB) is emitted INSIDE
    # the LSH per-bucket pass, so the dedup exchange routes directly on it:
    # duplicate pairs share `a`, hence share a bucket. One task exchange +
    # per-bucket Arrow group_by-distinct replaces BOTH former limbs (a
    # driver-serial drop_duplicates that grew linearly with the corpus, and a
    # Dataset groupby whose aggregator spawn was a flat multi-second cost);
    # ~6.7 s -> ~1.5 s at 2.3M raw edges, and it scales with CPUs. EB is
    # sized to 2x CPUs so the deduped blocks are already spread wide enough
    # for the verify task pool (no repartition barrier needed).
    if extra_band_rows is not None:
        # persisted rows from a prior signing run (same params + id mode,
        # enforced by the caller contract in the docstring)
        band_rows = band_rows.union(extra_band_rows)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    # edge-dedup exchange width: 2x CPUs, capped — the deduped edge list is
    # a few % of the corpus, and widening past ~32 reducers only multiplies
    # slice objects (measured 3x slower dedup at EB=64 vs 32 on 16.5M band
    # rows / 32 CPUs) while the verify pool re-spreads the blocks anyway
    EB = max(8, min(ncpu * 2, 32))
    edges = lsh_candidate_edges(
        band_rows, id_col=id_col, order_cols=order_cols, max_bucket=max_bucket,
        emit_edge_bucket=EB, numeric_ids=numeric,
    )

    if numeric:

        def _dedup_bucket(t: pa.Table | None) -> pa.Table:
            cols = ["ah1", "ah2", "bh1", "bh2"]
            if t is None or t.num_rows == 0:
                return pa.table({c: pa.array([], pa.uint64()) for c in cols})
            return t.select(cols).group_by(cols).aggregate([])

    else:

        def _dedup_bucket(t: pa.Table | None) -> pa.Table:
            if t is None or t.num_rows == 0:
                return pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
            # Arrow group_by-distinct: vectorized C++, no Python objects
            return t.select(["a", "b"]).group_by(["a", "b"]).aggregate([])

    edges = _hash_exchange_tasks(edges, "_ebucket", EB, _dedup_bucket)
    if verify:
        edges = verify_edges_jaccard(
            edges, pages, threshold, params=params, id_col=id_col, text_col=text_col,
            spread=False, attr_cols=order_cols, out=out,
            emit_ids=(emit != "numeric"),
        )
    return edges
