"""SimHash + Hamming-ball bucketing (the reference's --distance fuzzy mode at scale).

Mirrors tail-hamming dedup (/root/reference/src/comparator.cpp:76-91, default
d=2 /root/reference/src/main.cpp:34): two documents are near-duplicates when
their 64-bit SimHash signatures differ in <= d bits. Candidate generation uses
the pigeonhole principle exactly like the reference's same-length requirement
narrows comparisons: split the signature into d+1 chunks — any pair within
Hamming distance d agrees on at least one chunk — and co-locate on the chunk key.

Verification is exact (popcount of XOR), so the chunk bucketing only affects
recall of the *candidate* stage, never precision. Candidate recall is 100%
for pairs within distance d by the pigeonhole argument; VERIFICATION of a
chunk group is complete (all-pairs) only for groups up to the dense-pass cap
(3..64 members). Larger groups fall back to salted star/chain verification,
which guarantees connectivity to the group head but can miss member-member
pairs that are within d of each other yet > d from the head — at clustering
time (connected components) such members still join the head's cluster, so
the effect is limited to edge-level recall in hot groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import hamming64
from ..functions.sketches import simhash_chunks

SIMHASH_COL = "simhash64"


def _sig_col(i: int) -> str:
    return SIMHASH_COL if i == 0 else f"{SIMHASH_COL}_{i + 1}"


def sign_simhash(batch: pa.Table, text_col: str = "text", token_ngram: int = 2,
                 text_cols=None, feature: str = "word", shingle_k: int = 8,
                 length_key: bool = False) -> pa.Table:
    """Stateless task form: text -> 64-bit SimHash column (batch-vectorized
    feature hashing — one hash_array call per batch, segment-summed votes).
    ``text_cols`` with several entries signs each mate separately (paired
    tail-hamming, reference EP3): one sig column per text column.

    ``length_key=True`` also emits ``_lenkey`` — a mixed hash of the
    per-side codepoint lengths — for the candidate stage to fold into its
    bucket keys. The reference's Hamming predicate requires EQUAL lengths
    (/root/reference/src/seq_utils.cpp:65-72 asserts it), so same-length
    bucketing loses no true pair while shattering the hot buckets that
    narrow chunk widths (large Hamming balls) otherwise produce."""
    import pyarrow.compute as pc

    from ..functions.hashing import combine_hash64
    from ..functions.sketches import simhash64_batch

    cols = list(text_cols) if text_cols else [text_col]
    for i, col in enumerate(cols):
        sigs = simhash64_batch(batch[col].to_pylist(), token_ngram,
                               feature=feature, shingle_k=shingle_k)
        batch = batch.append_column(_sig_col(i), pa.array(sigs, pa.uint64()))
    if length_key:
        lens = [
            pc.fill_null(pc.utf8_length(batch[c]), 0)
            .cast(pa.uint64())
            .to_numpy(zero_copy_only=False)
            .astype(np.uint64)
            for c in cols
        ]
        batch = batch.append_column(
            "_lenkey", pa.array(combine_hash64(*lens), pa.uint64())
        )
    return batch


def emit_chunk_keys(batch: pa.Table, distance: int, id_col: str = "url",
                    order_cols=("warc_ts",), n_sides: int = 1,
                    length_col: str | None = None) -> pa.Table:
    """Explode each signed row into d+1 (chunk_key, id, sig...) rows.

    Paired mode pigeonholes on the FIRST mate's signature only — a pair
    within d on both sides is within d on side one, so side-one chunk
    agreement is a complete candidate condition; verify then checks every
    side exactly."""
    sig = np.asarray(batch[SIMHASH_COL].to_numpy(zero_copy_only=False), dtype=np.uint64)
    keys = simhash_chunks(sig, distance)  # (n, d+1)
    if length_col is not None:
        # same-length bucketing (see sign_simhash): equal-length docs keep
        # their chunk collisions; different lengths can never be reference
        # duplicates, so separating them costs no recall
        lk = np.asarray(
            batch[length_col].to_numpy(zero_copy_only=False), dtype=np.uint64
        )
        keys ^= lk[:, None]
    n, c = keys.shape
    idx = np.repeat(np.arange(n, dtype=np.int64), c)
    take = pa.array(idx)
    cols = {
        "chunk_key": pa.array(keys.ravel(), pa.uint64()),
        # ids repeat d+1 times; dict_encode measured slower end-to-end on a
        # single node (dictionary unification in the shuffle reduce — see
        # minhash.sign_and_band). Revisit on real multi-node network.
        id_col: _take(batch[id_col], take),
        SIMHASH_COL: pa.array(sig[idx], pa.uint64()),
    }
    for i in range(1, n_sides):
        s = np.asarray(batch[_sig_col(i)].to_numpy(zero_copy_only=False), dtype=np.uint64)
        cols[_sig_col(i)] = pa.array(s[idx], pa.uint64())
    for oc in order_cols:
        if oc != id_col:
            cols[oc] = _take(batch[oc], take)
    return pa.table(cols)


def _take(arr, take):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr.take(take)


def simhash_candidate_edges(
    pages: ray.data.Dataset,
    distance: int = 3,
    id_col: str = "url",
    text_col: str = "text",
    order_cols=("warc_ts", "url"),
    token_ngram: int = 2,
    feature: str = "word",
    shingle_k: int = 8,
    length_bucket: bool = False,
    max_bucket: int = 512,
    dense_limit: int = 64,
    text_cols=None,
) -> ray.data.Dataset:
    """pages -> verified edges (a, b, hamming) with hamming <= distance.

    Both wide steps — chunk-key co-location and duplicate-edge dedup — run
    as task hash exchanges (``stages/exchange.py``) with an Arrow-native
    per-bucket pass.

    ``text_cols`` with several entries selects paired both-mates semantics
    (reference EP3 with tail-hamming, /root/reference/src/comparator.cpp:84-91):
    each mate signed separately, candidates pigeonholed on mate one, verify
    requires EVERY side within ``distance`` (the emitted hamming is the max
    over sides).

    Verification inside the chunk bucket compares every member against the
    bucket head (first by order) — vectorized popcount, O(n) per bucket —
    plus a dense all-pairs pass for buckets up to ``dense_limit`` members so
    non-head pairs are kept when the head itself is not a near-dup of them.
    Buckets past ``dense_limit`` fall back to star-only (a pair both far
    from the head loses its direct edge) — the recall/cost knob for narrow
    chunk widths: at ``distance`` 8 a 64-bit signature leaves 7-bit chunks,
    buckets densify, and reference-parity recall work should raise
    ``dense_limit`` to ~256 (bounded ~32k vectorized popcounts per bucket);
    scale configs (``distance`` <= 6, 9+-bit chunks) keep the default.
    """
    order_cols = [c for c in order_cols]
    tcols = list(text_cols) if text_cols else [text_col]
    n_sides = len(tcols)
    sig_cols = [_sig_col(i) for i in range(n_sides)]
    slim = pages.select_columns(sorted(set([id_col, *tcols, *order_cols])))
    sign_kwargs = {"text_col": text_col, "token_ngram": token_ngram, "text_cols": tcols,
                   "feature": feature, "shingle_k": shingle_k,
                   "length_key": length_bucket}
    signed = slim.map_batches(
        sign_simhash, fn_kwargs=sign_kwargs, batch_format="pyarrow", batch_size=4096
    ).drop_columns(tcols)
    chunk_rows = signed.map_batches(
        lambda t: emit_chunk_keys(t, distance, id_col=id_col, order_cols=order_cols,
                                  n_sides=n_sides,
                                  length_col="_lenkey" if length_bucket else None),
        batch_format="pyarrow",
    )

    from .exchange import default_shuffle_buckets, hash_exchange
    from .minhash import _star_edge_indices

    B = default_shuffle_buckets()
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    # edge-dedup exchange width: same sizing rationale as dedup_edges_minhash
    EB = max(8, min(ncpu * 2, 32))

    def per_bucket_arrow(t: pa.Table | None) -> pa.Table:
        """One coarse shuffle bucket, Arrow/numpy end to end: sort by
        (chunk_key, order), dedup (chunk_key, id) via dictionary codes (no
        Python string objects), star+chain pair indices shared with the LSH
        pass, dense all-pairs for 3..64-member groups, exact hamming filter.
        Emits ``_ebucket`` so the duplicate-edge exchange routes directly."""
        ecols = {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "hamming": pa.array([], pa.int64()),
            "_ebucket": pa.array([], pa.int64()),
        }
        empty = pa.table(ecols)
        if t is None or t.num_rows == 0:
            return empty
        for i, f in enumerate(t.schema):
            if pa.types.is_dictionary(f.type):
                t = t.set_column(i, f.name, pc.cast(t.column(i), f.type.value_type))
        sort_keys = [("chunk_key", "ascending")] + [(c, "ascending") for c in order_cols]
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        ck = t["chunk_key"].to_numpy()
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        # drop duplicate (chunk_key, id) keeping the order-first row: compare
        # integer dictionary codes, not strings (vectorized C++ encode once)
        codes = pc.dictionary_encode(ids).indices.to_numpy().astype(np.int64, copy=False)
        order2 = np.lexsort((codes, ck))  # stable: ties keep order-sorted rank
        ck2, cd2 = ck[order2], codes[order2]
        dup2 = np.zeros(len(ck), dtype=bool)
        dup2[1:] = (ck2[1:] == ck2[:-1]) & (cd2[1:] == cd2[:-1])
        if dup2.any():
            sel = np.ones(len(ck), dtype=bool)
            sel[order2[dup2]] = False
            keep_idx = np.nonzero(sel)[0]
            t = t.take(pa.array(keep_idx, pa.int64()))
            ck = ck[keep_idx]
            ids = t[id_col]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
        sig_mat = [
            np.asarray(t[c].to_numpy(zero_copy_only=False), dtype=np.uint64)
            for c in sig_cols
        ]

        def ham_all(ia, ib):
            d = hamming64(sig_mat[0][ia], sig_mat[0][ib])
            for s_ in sig_mat[1:]:
                d = np.maximum(d, hamming64(s_[ia], s_[ib]))
            return d

        ai, bi = _star_edge_indices(ck, max_bucket)
        dai, dbi = _dense_pair_indices(ck, hi=dense_limit)
        ai = np.concatenate([ai, dai])
        bi = np.concatenate([bi, dbi])
        if len(ai) == 0:
            return empty
        d = ham_all(ai, bi)
        keep = d <= distance
        if not keep.any():
            return empty
        ai, bi, d = ai[keep], bi[keep], d[keep]
        a = ids.take(pa.array(ai, pa.int64()))
        b = ids.take(pa.array(bi, pa.int64()))
        from ..functions.hashing import hash64

        av = a.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": a,
                "b": b,
                "hamming": pa.array(d.astype(np.int64), pa.int64()),
                "_ebucket": pa.array(
                    (hash64(av) % np.uint64(EB)).astype(np.int64), pa.int64()
                ),
            }
        )

    def _dedup_bucket(t: pa.Table | None) -> pa.Table:
        cols = {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "hamming": pa.array([], pa.int64()),
        }
        if t is None or t.num_rows == 0:
            return pa.table(cols)
        # hamming is deterministic per (a, b), so distinct on all three
        # equals drop_duplicates on (a, b) — Arrow C++, no Python objects
        return (
            t.select(["a", "b", "hamming"]).group_by(["a", "b", "hamming"]).aggregate([])
        )

    edges = hash_exchange(chunk_rows, "chunk_key", B, per_bucket_arrow)
    return hash_exchange(edges, "_ebucket", EB, _dedup_bucket)


def _dense_pair_indices(ck: np.ndarray, lo: int = 3, hi: int = 64):
    """All-pairs (ai, bi) index arrays for runs of a SORTED key array whose
    length is in [lo, hi] — the dense verify pass that catches member-member
    pairs the star head misses. Vectorized by distinct run size: same-size
    runs share one triu template offset by each run's start."""
    n = len(ck)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = ck[1:] != ck[:-1]
    starts = np.nonzero(new_run)[0]
    sizes = np.diff(np.append(starts, n))
    sel = (sizes >= lo) & (sizes <= hi)
    if not sel.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    gs, ss = starts[sel], sizes[sel]
    ai_parts, bi_parts = [], []
    for s in np.unique(ss):
        tpl_a, tpl_b = np.triu_indices(int(s), k=1)
        g = gs[ss == s]
        ai_parts.append((g[:, None] + tpl_a[None, :]).ravel())
        bi_parts.append((g[:, None] + tpl_b[None, :]).ravel())
    return np.concatenate(ai_parts), np.concatenate(bi_parts)
