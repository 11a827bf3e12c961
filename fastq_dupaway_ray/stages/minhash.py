"""MinHash signatures + LSH banding candidate generation (north-rule core).

Generalizes the reference's exact set-membership dedup
(/root/reference/src/hash_dup_remover.hpp:105-148) to Jaccard near-duplicates:

    shingle (char k-grams) -> K-permutation MinHash -> b band keys
    -> hash exchange on band_key -> candidate edges -> verify -> components

Stage design for scale:
* Signing is an elastic **task pool** (``sign_and_band``): the permutation
  matrix is built once per worker process (``_cached_hasher``), so tasks
  scale to whatever CPUs are free with no actor startup.
* Band keys are emitted as an exploded slim table (band_key, doc id) — b
  rows per doc, no text payload — and co-located by the task hash exchange
  (``stages/exchange.py``), which ships only ~b*24 bytes per document.
* Hot buckets (boilerplate pages) are handled two ways: a hard per-bucket
  cap with **star-edge emission** (each member pairs with the bucket minimum,
  O(n) edges instead of O(n^2)), and optional salting of oversized buckets.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import word_ngram_hashes
from ..functions.sketches import MinHasher, MinHashParams
from . import exchange

_HASHER_CACHE: dict = {}
# edges ``verify_edges_jaccard`` scores against the broadcast endpoint index;
# above it the edges meet the page texts in two ``cogroup``s. Read at call
# time, so a test can force the exchange limb by patching it.
VERIFY_EDGE_BUDGET = 16_000_000


def _cached_hasher(params: MinHashParams) -> MinHasher:
    """Once-per-worker-process MinHasher (permutation matrix) — the setup
    cost lives here so the signer runs as an elastic TASK pool instead of
    a fixed-size actor pool (tasks scale to whatever CPUs are free, with no
    actor-startup latency; the state is cheap to build and pure-functional)."""
    h = _HASHER_CACHE.get(params)
    if h is None:
        h = _HASHER_CACHE.setdefault(params, MinHasher(params))
    return h


def sign_and_band(
    batch: pa.Table,
    params: MinHashParams = MinHashParams(),
    text_col: str = "text",
    id_col: str = "url",
    order_cols=("warc_ts", "url"),
    numeric_ids: bool = False,
) -> pa.Table:
    """Task-pool signer: text -> MinHash -> exploded band-key rows."""
    hasher = _cached_hasher(params)
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
                "h1": pa.array(np.repeat(h1, params.bands), pa.uint64()),
                "h2": pa.array(np.repeat(h2, params.bands), pa.uint64()),
            }
        )
    cols = {
        "band_key": pa.array(keys.ravel(), pa.uint64()),
        # ids repeat ``bands`` times each; dictionary-encoding them would
        # ship each url's bytes once per block + int32 indices, but MEASURED
        # SLOWER end-to-end on a single node (+10s/1M docs at 32 CPUs: Arrow
        # dictionary unification in the shuffle reduce outweighs the wire
        # savings when "the wire" is shared memory). Revisit on a real
        # multi-node cluster where network bytes dominate.
        id_col: _repeat_col(batch[id_col], params.bands),
    }
    for c in order_cols:
        if c != id_col:
            cols[c] = _repeat_col(batch[c], params.bands)
    return pa.table(cols)


def _repeat_col(arr, times: int):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    idx = np.repeat(np.arange(len(arr), dtype=np.int64), times)
    return arr.take(pa.array(idx))


def lsh_candidate_edges(
    band_rows: ray.data.Dataset,
    id_col: str = "url",
    order_cols=("warc_ts", "url"),
    max_bucket: int = 256,
    num_shuffle_buckets: int | None = None,
    emit_edge_bucket: int | None = None,
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

    Shuffle shape: the task hash exchange (``exchange.hash_exchange``)
    co-locates complete band buckets by ``band_key % B``; each of the B
    reduce tasks sorts its rows once and runs the vectorized star pass over
    all its band keys (no per-bucket Python call). Edge output is
    bit-identical for any B.

    ``emit_edge_bucket``: when set, each emitted edge also carries an
    ``_ebucket = hash(a) % emit_edge_bucket`` column, so the caller's
    duplicate-edge exchange can route DIRECTLY on it, with no separate
    bucketize pass over the whole edge list.
    """
    order_cols = [c for c in order_cols]
    B = num_shuffle_buckets or exchange.default_shuffle_buckets()

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
    return exchange.hash_exchange(band_rows, "band_key", B, fn)


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


_EDGE_HASH_COLS = ("ah1", "ah2", "bh1", "bh2")  # numeric-spine edge endpoints
_IDX_SALT = np.uint64(0xC2B2AE3D27D4EB4F)


def _id_hash_pair(vals: np.ndarray):
    from ..functions.hashing import combine_hash64, hash64

    # h2 must be an INDEPENDENT hash of the values (different SipHash key);
    # deriving it from h1 would collapse the 128-bit check to 64 bits
    h1 = hash64(vals)
    h2 = combine_hash64(hash64(vals, alt_key=True), np.full(len(h1), _IDX_SALT, dtype=np.uint64))
    return h1, h2


def _column_id_pair(t: pa.Table, col: str):
    """``_id_hash_pair`` of one column of a batch (a ``semi_filter`` key)."""
    return _id_hash_pair(t[col].to_numpy(zero_copy_only=False).astype(object))


@ray.remote
def _hash_pair_shard(arr: pa.Array):
    return _id_hash_pair(arr.to_numpy(zero_copy_only=False).astype(object))


@ray.remote
def _edge_endpoint_pairs(block):
    """Unique (h1, h2) endpoint pairs from a NUMERIC edge block — the
    endpoints already are id-hash pairs, so this is a pure uint64 unique."""
    block = exchange.as_arrow_block(block)  # internal refs can be pandas blocks
    q1 = np.concatenate([block["ah1"].to_numpy(), block["bh1"].to_numpy()])
    q2 = np.concatenate([block["ah2"].to_numpy(), block["bh2"].to_numpy()])
    return exchange._unique_pairs(q1, q2)


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
    (same concat + stable-argsort + zero-copy-slice shape as the exchange map)."""
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
        pos, found = exchange._pair_lookup_pos(h1s, h2s, q1[m], q2[m])
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
    """Column ``what`` ("ids" | "th1" | "th2") for SORTED composite keys
    (shard groups are contiguous). keys must be >= 0. th1/th2 return numpy;
    ids return Arrow."""
    if what in ("th1", "th2"):
        idx = 2 if what == "th1" else 3
        out = np.empty(len(keys), dtype=np.uint64)
        for s, sl, slots in _shard_iter_groups(keys):
            out[sl] = shards[s][idx][slots]
        return out
    parts = [
        shards[s][4].take(pa.array(slots, pa.int64()))
        for s, _sl, slots in _shard_iter_groups(keys)
    ]
    return pa.concat_arrays(parts) if parts else pa.array([], pa.string())


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
    directly (the flagship path; apply_cluster_labels attaches the ids)."""
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
                **{c: pa.array([], pa.uint64()) for c in _EDGE_HASH_COLS},
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
    shard_refs, text_refs, spec, threshold: float, emit_ids: bool,
    piece: int, n_pieces: int, *blocks,
) -> pa.Table:
    """Raw-task scorer: a group of whole edge blocks, or one SLICE of one
    block, against the sharded index. Raw tasks on purpose — wrapping the
    (already materialized) edge blocks back into a Dataset map_batches
    costs a whole extra execution round (~1-2 s fixed). The blocks arrive
    as ``*blocks`` so Ray resolves them; a group is scored as one table, so
    each endpoint is shingled once per task. ``piece``/``n_pieces`` slice a
    single block inside the task (zero-copy) when the scorer fan-out exceeds
    the block count — one task per EB block left straggler waves at 32
    CPUs. ``text_refs`` stay UNRESOLVED (plain ObjectRefs in a list) so a
    task whose pairs are all byte-identical never ships a text shard."""
    # internal refs can be pandas blocks
    tabs = [exchange.as_arrow_block(b) for b in blocks]
    block = (
        tabs[0] if len(tabs) == 1
        else pa.concat_tables(tabs, promote_options="default").combine_chunks()
    )
    if n_pieces > 1:
        n = block.num_rows
        start = (n * piece) // n_pieces
        stop = (n * (piece + 1)) // n_pieces
        block = block.slice(start, stop - start)
    shards = ray.get(list(shard_refs))
    return _score_edges_numeric_shards(
        block, shards, spec, threshold, text_refs=text_refs, emit_ids=emit_ids
    )


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
    split into a slim object (hashes + ids + attrs) and a texts object,
    one entry per page row of an endpoint. Used by the verify scorer and, as
    its cluster-member source, by apply_cluster_labels."""
    from ..functions.hashing import hash64

    ep_parts = ray.get(
        [_edge_endpoint_pairs.remote(r) for r in exchange.nonempty_block_refs(edges)]
    )
    eh1, eh2 = exchange._unique_pairs(
        np.concatenate([p[0] for p in ep_parts] or [np.empty(0, np.uint64)]),
        np.concatenate([p[1] for p in ep_parts] or [np.empty(0, np.uint64)]),
    )
    ep_ref = ray.put((eh1, eh2))

    def pick(t: pa.Table) -> pa.Table:
        # columns the pick pass carries into the index: id + text always,
        # plus whichever attr columns the batch holds (order cols for the
        # label-attach fast path — 8 B each, negligible next to text). Read
        # off the batch, not ``pages.schema()``: on a lazy ``pages`` that
        # probe executes the whole upstream chain once more
        pick_cols = [id_col, text_col] + [
            c for c in attr_cols if c in t.column_names and c not in (id_col, text_col)
        ]
        # emit the id hashes computed for the membership test — the assemble
        # tasks build the READY lookup index from them, so scorer workers
        # never hash/convert the endpoint ids themselves. The TEXT
        # content-hash pair (_th1, _th2) is also computed here, in the
        # parallel corpus scan: scorers resolve byte-identical pairs from
        # these 16 bytes without touching the text itself.
        eps = exchange.fetch_cached(ep_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(object)
        q1, q2 = _id_hash_pair(ids)
        mask = exchange._pair_lookup_pos(*eps, q1, q2)[1]
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
    picked = pages.map_batches(pick, batch_format="pyarrow").materialize()
    schema = picked.schema()  # a materialized dataset's: no execution
    attrs_present = [
        c for c in attr_cols if schema and c in schema.names and c not in (id_col, text_col)
    ]
    block_refs = [
        ref
        for bundle in picked.iter_internal_ref_bundles()
        for ref, _meta in bundle.blocks
    ]
    if not block_refs:
        return [], [], attrs_present
    routed = [
        _route_index_shard.options(num_returns=_INDEX_SHARDS).remote(_INDEX_SHARDS, *g)
        for g in exchange.group_for_maps(block_refs)
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
    attr_cols=(),
    out: dict | None = None,
    emit_ids: bool = True,
) -> ray.data.Dataset:
    """Exact-Jaccard verification of NUMERIC candidate edges (``ah1, ah2,
    bh1, bh2`` id-hash pairs, as ``lsh_candidate_edges(numeric_ids=True)``
    emits them) against the real shingles. Other edge schemas raise
    ``ValueError``.

    Dispatch on edge-list size (the candidate relation is a few % of the
    corpus by LSH design):

    * small side (default): one parallel corpus scan picks the endpoint
      texts into a sharded index (``build_endpoint_index``) and raw tasks
      score the edge blocks against it — zero shuffles, no join actors. The
      driver only merges 16 B/endpoint uint64 pairs: 16M edges is ~512 MB
      of driver scratch, well under one worker's heap.
    * above ``VERIFY_EDGE_BUDGET`` edges: two ``exchange.cogroup``s attach
      the endpoint texts and score the pairs (``_verify_edges_cogroup``).

    ``attr_cols``: extra columns the pick pass carries into the endpoint
    index — apply_cluster_labels reuses them to skip its own corpus attach
    pass. ``out``: optional dict receiving ``index_shards`` (list of shard
    refs) + ``attr_cols`` when the broadcast limb ran (the cogroup limb
    builds no index).

    Returns (a, b, jaccard) string-id edges filtered to >= threshold, or
    (ah1, ah2, bh1, bh2, jaccard) with ``emit_ids=False``, on both limbs.
    ``edges`` should be materialized by the caller (it is counted here).
    """
    names = edges.schema().names
    if not set(_EDGE_HASH_COLS) <= set(names):
        raise ValueError(
            f"verify_edges_jaccard needs numeric edges with columns {list(_EDGE_HASH_COLS)}"
            f" (lsh_candidate_edges(numeric_ids=True)); got {names}"
        )
    spec = (params.shingle, params.word_n if params.shingle == "word" else params.shingle_k)

    def empty() -> ray.data.Dataset:
        # keep the empty schema consistent with the non-empty output
        no_edges = pa.table({c: pa.array([], pa.uint64()) for c in _EDGE_HASH_COLS})
        return ray.data.from_arrow(
            _score_edges_numeric_shards(no_edges, [], spec, threshold, emit_ids=emit_ids)
        )

    n_edges = edges.count()
    if n_edges == 0:
        return empty()
    if n_edges > VERIFY_EDGE_BUDGET:
        return _verify_edges_cogroup(
            edges, pages, threshold, spec, id_col=id_col, text_col=text_col, emit_ids=emit_ids
        )
    # SHARDED endpoint index + raw-task scorer (the flagship hot path); see
    # build_endpoint_index for the scan/shard design
    shard_refs, text_refs, attrs_present = build_endpoint_index(
        edges, pages, id_col=id_col, text_col=text_col, attr_cols=attr_cols
    )
    if not shard_refs:
        return empty()
    if out is not None:
        out["index_shards"] = shard_refs
        out["attr_cols"] = attrs_present
    edge_blocks = exchange._nonempty_blocks(edges)
    if not edge_blocks:
        return empty()
    edge_refs = [ref for ref, _meta in edge_blocks]
    # scorer fan-out sized by the edges it scores, as an exchange sizes its
    # reducers: up to ~3 tasks per CPU absorbs stragglers (shingle cost
    # varies per bucket), but a small edge list takes fewer tasks, each
    # scoring a group of whole blocks (an endpoint is shingled once per
    # task). Only above one task per block are blocks split into pieces.
    n_tasks = exchange.exchange_fanout(
        int(ray.cluster_resources().get("CPU", 8)) * 3,
        n_edges,
        sum(meta.size_bytes or 0 for _ref, meta in edge_blocks),
    )
    score = functools.partial(
        _score_edges_task.remote, shard_refs, text_refs, spec, threshold, emit_ids
    )
    if n_tasks <= len(edge_refs):
        cut = [len(edge_refs) * i // n_tasks for i in range(n_tasks + 1)]
        scored = [score(0, 1, *edge_refs[a:b]) for a, b in zip(cut, cut[1:])]
    else:
        per_block = -(-n_tasks // len(edge_refs))
        scored = [score(i, per_block, b) for b in edge_refs for i in range(per_block)]
    return ray.data.from_arrow_refs(scored)


def _verify_edges_cogroup(
    edges: ray.data.Dataset,
    pages: ray.data.Dataset,
    threshold: float,
    spec,
    id_col: str = "url",
    text_col: str = "text",
    emit_ids: bool = True,
) -> ray.data.Dataset:
    """Verify above ``VERIFY_EDGE_BUDGET``: two ``exchange.cogroup``s. The
    first meets the edges with the page rows on endpoint a's id-hash pair
    ``(ah1, ah2)`` and attaches its id and text, the second does the same for
    endpoint b and scores the pairs in its buckets. Each join is on the full
    128-bit pair, one output row per matching page row, as the broadcast
    limb emits them: string (a, b, jaccard), or (ah1, ah2, bh1, bh2,
    jaccard) with ``emit_ids=False``."""
    slim = pages.select_columns([id_col, text_col])

    def texts_for(end: str):
        h1, h2 = f"{end}h1", f"{end}h2"

        def project(t: pa.Table) -> pa.Table:
            q1, q2 = _id_hash_pair(t[id_col].to_numpy(zero_copy_only=False).astype(object))
            return pa.table(
                {
                    h1: pa.array(q1, pa.uint64()),
                    h2: pa.array(q2, pa.uint64()),
                    end: t[id_col],
                    f"_text_{end}": t[text_col],
                }
            )

        return slim.map_batches(project, batch_format="pyarrow")

    def attach(end: str):
        def fn(e: pa.Table, p: pa.Table) -> pa.Table:
            on = [f"{end}h1", f"{end}h2"]
            if not p.num_columns:  # no page rows at all
                p = pa.table(
                    {**{c: pa.array([], pa.uint64()) for c in on},
                     end: pa.array([], pa.string()), f"_text_{end}": pa.array([], pa.string())}
                )
            return e.join(p, keys=on, join_type="inner", use_threads=False)

        return fn

    def score(e: pa.Table, p: pa.Table) -> pa.Table:
        if not e.num_columns:  # no edge met a page row
            no_edges = pa.table({c: pa.array([], pa.uint64()) for c in _EDGE_HASH_COLS})
            e = attach("a")(no_edges, pa.table({}))
        e = attach("b")(e, p)
        n = e.num_rows
        both = e["_text_a"].to_pylist() + e["_text_b"].to_pylist()
        both = np.array([t if isinstance(t, str) else "" for t in both], dtype=object)
        uniq, inv = np.unique(both, return_inverse=True)
        allv, starts, counts = _shingle_sets(spec, uniq)
        jac = pairwise_jaccard(inv[:n], inv[n:], allv, starts, counts)
        out = e.select(["a", "b"] if emit_ids else list(_EDGE_HASH_COLS))
        out = out.append_column("jaccard", pa.array(jac, pa.float64()))
        return out.filter(pa.array(jac >= threshold))

    with_a = exchange.cogroup(edges, texts_for("a"), "ah1", attach("a"))
    return exchange.cogroup(with_a, texts_for("b"), "bh1", score)


def dedup_edges_minhash(
    pages: ray.data.Dataset,
    params: MinHashParams = MinHashParams(),
    id_col: str = "url",
    text_col: str = "text",
    order_cols=("warc_ts", "url"),
    verify: bool = True,
    threshold: float | None = None,
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
    band_rows = slim.map_batches(
        sign_and_band, fn_kwargs=sign_kwargs, batch_format="pyarrow", batch_size=2048
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
            cols = list(_EDGE_HASH_COLS)
            if t is None or t.num_rows == 0:
                return pa.table({c: pa.array([], pa.uint64()) for c in cols})
            return t.select(cols).group_by(cols).aggregate([])

    else:

        def _dedup_bucket(t: pa.Table | None) -> pa.Table:
            if t is None or t.num_rows == 0:
                return pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
            # Arrow group_by-distinct: vectorized C++, no Python objects
            return t.select(["a", "b"]).group_by(["a", "b"]).aggregate([])

    edges = exchange.hash_exchange(edges, "_ebucket", EB, _dedup_bucket)
    if verify:
        edges = verify_edges_jaccard(
            edges, pages, threshold, params=params, id_col=id_col, text_col=text_col,
            attr_cols=order_cols, out=out,
            emit_ids=(emit != "numeric"),
        )
    return edges
