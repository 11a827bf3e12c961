"""Similarity search over an embedding column (training-data-pipeline extra).

Brute-force cosine top-k as the exact baseline: the (small) query matrix is
broadcast once via ``ray.put`` and every ``map_batches`` task computes a
vectorized batch x query matmul, emitting only its local top-k per query —
so the final reduce sees num_blocks * k candidates per query, not the corpus.

Scale path: ``ivf_topk`` — spherical-k-means coarse quantizer trained on a
driver-side sample, centroids broadcast once (``ray.put``); each task assigns
its rows to cells vectorized and scores them only against the queries probing
that cell (``nprobe`` nearest cells per query). ``nprobe == nlist`` degrades
gracefully to exact brute force (used as the oracle-checked configuration).
``HyperplaneSigner`` provides the alternative random-hyperplane sign buckets
(the embedding analogue of SimHash) for LSH-style pruning.

Also: exact embedding dedup (byte-identical vectors) via the same bucketed
keep-first pattern as stages.dedup_exact.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..util import round_half_away


def _batch_embeddings(batch: pa.Table, vec_col: str) -> np.ndarray:
    col = batch[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col.type, pa.ExtensionType):
        # Ray tensor extension (ndarray column after a pandas stage)
        arr = col.to_numpy(zero_copy_only=False)
        return np.stack(arr) if arr.dtype == object else np.asarray(arr)
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
        return col.values.to_numpy(zero_copy_only=False).reshape(len(col), dim)
    # variable list<float>: equal lengths assumed (validated by first row)
    flat = col.flatten().to_numpy(zero_copy_only=False)
    dim = len(col[0])
    return flat.reshape(len(col), dim)


class BruteForceTopK:
    """Actor-pool callable: per-batch cosine scores vs a broadcast query matrix.

    ``queries_ref`` is a ``ray.put`` handle to (query_ids, Q) — fetched once
    per actor in __init__ (zero-copy from the object store), never per batch.
    """

    def __init__(self, queries_ref, k: int, vec_col: str = "embedding", id_col: str = "vec_id"):
        self.query_ids, Q = ray.get(queries_ref)
        Q = np.asarray(Q, dtype=np.float64)
        self.Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        X = _batch_embeddings(batch, self.vec_col).astype(np.float64)
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        scores = Xn @ self.Qn.T  # (n, q)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        n, q = scores.shape
        k = min(self.k, n)
        # local top-k per query (argpartition: O(n) per query)
        top = np.argpartition(-scores, kth=k - 1, axis=0)[:k]  # (k, q)
        out_q, out_id, out_s = [], [], []
        for j in range(q):
            rows = top[:, j]
            out_q.append(np.full(k, self.query_ids[j]))
            out_id.append(ids[rows])
            out_s.append(scores[rows, j])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )


def brute_force_topk(
    vectors: ray.data.Dataset,
    queries: np.ndarray,
    query_ids,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    concurrency=(1, 8),
) -> pd.DataFrame:
    """Exact cosine top-k of every query against the whole dataset.

    Returns a small pandas frame (query_id, vec_id, score, rank) — q*k rows.
    Ties broken deterministically by (score desc, vec_id asc).
    """
    ref = ray.put((np.asarray(query_ids), np.asarray(queries)))
    partial = vectors.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={"queries_ref": ref, "k": k, "vec_col": vec_col, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=concurrency,
    )
    # final reduce: num_blocks*k rows per query — driver-small by construction
    df = partial.to_pandas()
    df = df.sort_values(["query_id", "score", id_col], ascending=[True, False, True], kind="mergesort")
    df = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    return df


def train_ivf_centroids(
    vectors: ray.data.Dataset,
    nlist: int = 64,
    train_size: int = 10_000,
    iters: int = 10,
    vec_col: str = "embedding",
    seed: int = 0x1F,
) -> np.ndarray:
    """Spherical k-means coarse quantizer on a bounded driver-side sample.

    The sample is ``limit(train_size)`` — deterministic, streams only the
    needed blocks. Centroids are unit-norm so cosine assignment is a dot
    product. Returns (nlist, dim) float64; at 100 TB the sample stays
    ``train_size`` rows, the train cost is constant.
    """
    sample = vectors.select_columns([vec_col]).limit(train_size).to_pandas()
    X = np.stack([np.asarray(v, dtype=np.float64) for v in sample[vec_col]])
    X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    rng = np.random.RandomState(seed)
    nlist = min(nlist, len(X))
    C = X[rng.choice(len(X), size=nlist, replace=False)].copy()
    for _ in range(iters):
        assign = (X @ C.T).argmax(axis=1)
        for j in range(nlist):
            m = assign == j
            if m.any():
                c = X[m].mean(axis=0)
                C[j] = c / max(float(np.linalg.norm(c)), 1e-12)
    return C


class IVFTopK:
    """Actor-pool callable: IVF-pruned cosine top-k.

    ``state_ref`` is a ``ray.put`` handle to (query_ids, Q, centroids,
    nprobe) — fetched once per actor. __init__ precomputes the inverted
    probe map cell -> query indices; __call__ assigns batch rows to cells
    (one matmul) and scores each cell's rows only against the queries that
    probe it. Emits per-(cell, query) local top-k partials; the driver
    reduce is identical to brute force.
    """

    def __init__(self, state_ref, k: int, vec_col: str = "embedding", id_col: str = "vec_id"):
        state = ray.get(state_ref) if isinstance(state_ref, ray.ObjectRef) else state_ref
        self.query_ids, Q, C, nprobe = state
        Q = np.asarray(Q, dtype=np.float64)
        self.Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
        self.C = np.asarray(C, dtype=np.float64)
        nlist = len(self.C)
        nprobe = min(nprobe, nlist)
        # top-nprobe cells per query, inverted to cell -> query rows
        probe = np.argsort(-(self.Qn @ self.C.T), axis=1)[:, :nprobe]
        self.cell_queries: dict[int, np.ndarray] = {}
        for cell in np.unique(probe):
            qrows = np.nonzero((probe == cell).any(axis=1))[0]
            self.cell_queries[int(cell)] = qrows
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        X = _batch_embeddings(batch, self.vec_col).astype(np.float64)
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        cells = (Xn @ self.C.T).argmax(axis=1)
        out_q, out_id, out_s = [], [], []
        for cell in np.unique(cells):
            qrows = self.cell_queries.get(int(cell))
            if qrows is None:
                continue
            rows = np.nonzero(cells == cell)[0]
            scores = Xn[rows] @ self.Qn[qrows].T  # (n_cell, n_probing_q)
            k = min(self.k, len(rows))
            top = np.argpartition(-scores, kth=k - 1, axis=0)[:k]
            for jj, qj in enumerate(qrows):
                r = top[:, jj]
                out_q.append(np.full(k, self.query_ids[qj]))
                out_id.append(ids[rows[r]])
                out_s.append(scores[r, jj])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    self.id_col: pa.array([], batch[self.id_col].type),
                    "score": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )


def ivf_topk(
    vectors: ray.data.Dataset,
    queries: np.ndarray,
    query_ids,
    k: int = 10,
    nlist: int = 64,
    nprobe: int = 8,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    concurrency=(1, 8),
    centroids: np.ndarray | None = None,
) -> pd.DataFrame:
    """IVF-pruned cosine top-k (approximate; exact when nprobe >= nlist).

    Same output contract as ``brute_force_topk``. Pass precomputed
    ``centroids`` to skip training (e.g. a quantizer trained once and reused
    across query rounds).
    """
    C = centroids if centroids is not None else train_ivf_centroids(vectors, nlist=nlist, vec_col=vec_col)
    ref = ray.put((np.asarray(query_ids), np.asarray(queries), C, int(nprobe)))
    partial = vectors.map_batches(
        IVFTopK,
        fn_constructor_kwargs={"state_ref": ref, "k": k, "vec_col": vec_col, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=concurrency,
    )
    df = partial.to_pandas()
    df = df.sort_values(["query_id", "score", id_col], ascending=[True, False, True], kind="mergesort")
    df = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    return df


_HP_CACHE: dict = {}


def _hyperplanes(dim: int, planes: int, seed: int) -> np.ndarray:
    """Once-per-worker hyperplane matrix (deterministic in seed) — state
    setup must not happen inside per-batch calls."""
    key = (dim, planes, seed)
    H = _HP_CACHE.get(key)
    if H is None:
        H = _HP_CACHE[key] = np.random.RandomState(seed).normal(size=(dim, planes))
    return H


class HyperplaneSigner:
    """Actor-pool callable: embedding -> 64-bit random-hyperplane sign signature."""

    def __init__(self, dim: int, vec_col: str = "embedding", seed: int = 0xA5, planes: int = 64):
        self.H = _hyperplanes(dim, planes, seed)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        X = _batch_embeddings(batch, self.vec_col).astype(np.float64)
        bits = (X @ self.H >= 0).astype(np.uint8)  # (n, 64)
        sig = np.packbits(bits, axis=1, bitorder="little").view(np.uint64).ravel()
        return batch.append_column("hp_sig", pa.array(sig, pa.uint64()))


def embedding_dedup_exact(
    vectors: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Byte-identical embedding dedup, keep min id (bucketed, vectorized)."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        blobs = np.array(
            [np.asarray(v, dtype=np.float32).tobytes() for v in df[vec_col]], dtype=object
        )
        df["_vbucket"] = pd.util.hash_array(blobs) % num_buckets
        return df

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        blob = df[vec_col].map(lambda v: np.asarray(v, dtype=np.float32).tobytes())
        df = df.assign(_blob=blob).sort_values(id_col, kind="mergesort")
        df = df.drop_duplicates(subset=["_blob"], keep="first")
        return df.drop(columns=["_blob", "_vbucket"])

    return (
        vectors.map_batches(prep, batch_format="pandas")
        .groupby("_vbucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def embedding_neardup_exact(
    vectors: ray.data.Dataset,
    threshold: float = 0.95,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    broadcast_budget: int = 2_000_000,
) -> ray.data.Dataset:
    """All-pairs cosine near-dup edges (a < b, cos_sim >= threshold).

    Exact formulation: the full (ids, matrix) is broadcast once (``ray.put``)
    and every task scores its rows against it in one float64 matmul —
    distributed over blocks, O(n^2/B) per task. The driver materialization is
    budget-gated like every other small-side shortcut in this repo: above
    ``broadcast_budget`` rows it falls back to ``embedding_neardup_lsh``
    (hyperplane-bucketed, tested recall) instead of pulling the matrix onto
    the driver.
    """
    # materialize the slim projection ONCE: the gate's count, the broadcast
    # assembly and the scoring pass all reuse these blocks — without it the
    # upstream pipeline (often augmented / transformed) executes three times
    slim = vectors.select_columns([id_col, vec_col]).materialize()
    if slim.count() > broadcast_budget:
        return embedding_neardup_lsh(
            slim, threshold=threshold, vec_col=vec_col, id_col=id_col
        )
    df = slim.to_pandas()
    ids_all = df[id_col].to_numpy()
    X = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
    norms = np.linalg.norm(X, axis=1)
    ref = ray.put((ids_all, X, norms))

    from .exchange import fetch_cached

    def score(batch: pa.Table) -> pa.Table:
        ids_a, Xa, norms_a = fetch_cached(ref)
        Xb = _batch_embeddings(batch, vec_col).astype(np.float64)
        ids_b = batch[id_col].to_numpy(zero_copy_only=False)
        nb = np.linalg.norm(Xb, axis=1)
        sims = (Xb @ Xa.T) / np.maximum(np.outer(nb, norms_a), 1e-300)
        mask = (sims >= threshold) & (ids_b[:, None] < ids_a[None, :])
        bi, ai = np.nonzero(mask)
        return pa.table(
            {
                "a": pa.array(ids_b[bi]),
                "b": pa.array(ids_a[ai]),
                "cos_sim": pa.array(round_half_away(sims[bi, ai], 6), pa.float64()),
            }
        )

    return slim.map_batches(score, batch_format="pyarrow", batch_size=2048)


def embedding_neardup_lsh(
    vectors: ray.data.Dataset,
    threshold: float = 0.95,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    planes: int = 64,
    bands: int = 8,
    seed: int = 0xA5,
    max_bucket: int = 1024,
    num_shuffle_buckets: int | None = None,
) -> ray.data.Dataset:
    """Hyperplane-LSH cosine near-dup: the 10^12-row scale path.

    Random-hyperplane sign bits (the embedding SimHash) split into ``bands``
    sub-keys; vectors agreeing on >= 1 band co-locate, then exact cosine
    verifies inside the bucket. P[band match] = (1 - theta/pi)^(planes/bands)
    per band — recall vs ``embedding_neardup_exact`` is tested, not assumed.
    Shuffle carries the vector once per band (bands * d * 4 bytes/row).
    """
    from .exchange import default_shuffle_buckets

    B = num_shuffle_buckets or default_shuffle_buckets()
    bits_per_band = planes // bands

    def band_rows(batch: pa.Table) -> pa.Table:
        X = _batch_embeddings(batch, vec_col).astype(np.float64)
        H = _hyperplanes(X.shape[1], planes, seed)  # once-per-worker cache
        bits = (X @ H >= 0).astype(np.uint64)  # (n, planes)
        n = len(bits)
        keys = np.zeros((n, bands), dtype=np.uint64)
        for b in range(bands):
            seg = bits[:, b * bits_per_band : (b + 1) * bits_per_band]
            key = np.zeros(n, dtype=np.uint64)
            for j in range(bits_per_band):
                key = (key << np.uint64(1)) | seg[:, j]
            keys[:, b] = key ^ np.uint64((b * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        idx = np.repeat(np.arange(n, dtype=np.int64), bands)
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        vec = batch[vec_col]
        if isinstance(vec, pa.ChunkedArray):
            vec = vec.combine_chunks()
        take = pa.array(idx)
        return pa.table(
            {
                "band_key": pa.array(keys.ravel(), pa.uint64()),
                id_col: ids.take(take),
                vec_col: vec.take(take),
                "_bkt": pa.array((keys.ravel() % np.uint64(B)).astype(np.int64), pa.int64()),
            }
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_s = [], [], []
        for _, grp in df.groupby("band_key", sort=False):
            grp = grp.drop_duplicates(subset=[id_col])
            if len(grp) < 2:
                continue
            grp = grp.sort_values(id_col, kind="mergesort").head(max_bucket)
            X = np.stack([np.asarray(v, dtype=np.float64) for v in grp[vec_col]])
            ids = grp[id_col].to_numpy()
            norms = np.maximum(np.linalg.norm(X, axis=1), 1e-300)
            sims = (X @ X.T) / np.outer(norms, norms)
            iu, ju = np.triu_indices(len(ids), k=1)
            m = sims[iu, ju] >= threshold
            out_a.append(ids[iu[m]])
            out_b.append(ids[ju[m]])
            out_s.append(round_half_away(sims[iu[m], ju[m]], 6))
        if not out_a:
            return pd.DataFrame({"a": [], "b": [], "cos_sim": []})
        return pd.DataFrame(
            {
                "a": np.concatenate(out_a),
                "b": np.concatenate(out_b),
                "cos_sim": np.concatenate(out_s),
            }
        )

    edges = (
        vectors.select_columns([id_col, vec_col])
        .map_batches(band_rows, batch_format="pyarrow", batch_size=4096)
        .groupby("_bkt")
        .map_groups(per_bucket, batch_format="pandas")
    )
    # same pair can surface from several bands — bucketed keep-first dedup
    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_pbkt"] = pd.util.hash_pandas_object(df["a"], index=False).to_numpy() % B
        return df

    return (
        edges.map_batches(bucket_pairs, batch_format="pandas")
        .groupby("_pbkt")
        .map_groups(lambda d: d.drop_duplicates(subset=["a", "b"]).drop(columns=["_pbkt"]), batch_format="pandas")
    )
