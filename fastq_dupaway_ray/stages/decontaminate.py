"""Benchmark decontamination — flag training documents that contain an
evaluation document's text verbatim (the overlap check every LLM training
pipeline runs before a corpus ships; substring semantics = the reference's
loose containment predicate, `/root/reference/src/comparator.cpp:60-74`,
with the contained side fixed to the eval set).

Scale shape: eval benchmarks are TINY relative to the corpus (thousands to
~10^5 needles vs billions of docs), so the eval texts broadcast once
(``ray.put`` + once-per-worker fetch) and the corpus is touched exactly once
with ZERO shuffle. Two scan limbs, switched on needle count:

- ``scan`` (few needles): per-needle ``pyarrow.compute.match_substring`` —
  a vectorized C++ kernel across the batch rows. Cost is needles x corpus
  bytes; measured fine to ~10^3 needles, linear in both beyond.
- ``ngram`` (many needles): multi-pattern Rabin–Karp. Build ONCE on the
  driver a sorted array of each needle's k-byte PREFIX hash (k = shortest
  needle, capped; same polynomial as the MinHash shingler,
  ``functions.hashing._rolling_poly_hashes``), broadcast it; each batch
  computes every k-byte window hash of the batch's concatenated UTF-8 bytes
  in one vectorized pass, finds candidate positions by ``searchsorted``
  membership (log m per window — SUB-LINEAR in needle count), then verifies
  each surviving (position, needle) with a direct byte compare. Needles too
  short for the window (< 4 bytes, incl. empty) fall back to the scan limb —
  they are degenerate as "benchmark documents" and rare by construction.

False-positive work is bounded: a candidate only reaches the byte-verify
when a 64-bit window hash collides with a needle-prefix hash (birthday-rare)
or the needle prefix truly occurs — i.e. verify cost tracks true hits, not
corpus size x needle count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

_NGRAM_BASE = 1000003  # the repo's shingle polynomial base (functions.hashing)
_K_MIN = 4  # below this a prefix hash has too little entropy to prefilter
_K_CAP = 24  # above this we'd exclude legitimately short needles' windows


def _build_ngram_index(eval_ids: np.ndarray, eval_texts: list):
    """(k, sorted prefix hashes, needle order, encoded needles, short idxs).

    Needle j's first-k-byte polynomial hash, sorted ascending with a
    parallel permutation array so a hash hit expands to its needle range via
    two searchsorteds (duplicate prefixes allowed — each needle in the range
    verifies independently).
    """
    from ..functions.hashing import _pow_vector

    enc = [t.encode("utf-8", "surrogatepass") for t in eval_texts]
    lens = np.array([len(e) for e in enc], dtype=np.int64)
    long_mask = lens >= _K_MIN
    short_idx = np.nonzero(~long_mask)[0]
    long_idx = np.nonzero(long_mask)[0]
    if len(long_idx) == 0:
        return None, None, None, enc, short_idx
    k = int(min(_K_CAP, lens[long_idx].min()))
    pow_vec = _pow_vector(_NGRAM_BASE, k)
    pref = np.zeros((len(long_idx), k), dtype=np.uint64)
    for row, j in enumerate(long_idx):
        pref[row] = np.frombuffer(enc[j][:k], dtype=np.uint8)
    hashes = (pref * pow_vec).sum(axis=1, dtype=np.uint64)
    order = np.argsort(hashes, kind="stable")
    return k, hashes[order], long_idx[order], enc, short_idx


def _scan_batch_ngram(
    t: pa.Table, text_col: str, id_col: str, idx, eval_ids, self_exclude: bool
) -> tuple:
    """One batch through the Rabin–Karp limb -> (doc_id list, eval_id list)."""
    from ..functions.hashing import _rolling_poly_hashes

    k, sorted_h, needle_of, enc_needles, _short = idx
    texts = t[text_col].to_pylist()
    doc_ids = t[id_col].to_numpy(zero_copy_only=False)
    enc = [(s or "").encode("utf-8", "surrogatepass") for s in texts]
    lens = np.array([len(e) for e in enc], dtype=np.int64)
    buf = b"".join(enc)
    data = np.frombuffer(buf, dtype=np.uint8).astype(np.uint64)
    if len(data) < k:
        return [], []
    offsets = np.zeros(len(enc), dtype=np.int64)
    offsets[1:] = np.cumsum(lens)[:-1]
    all_h = _rolling_poly_hashes(data, k, _NGRAM_BASE)
    # membership of every window hash in the sorted needle-prefix array
    pos = np.searchsorted(sorted_h, all_h)
    pos[pos == len(sorted_h)] = 0  # safe sentinel; mask re-checks equality
    hit = sorted_h[pos] == all_h
    g = np.nonzero(hit)[0]  # global byte offsets of candidate windows
    if len(g) == 0:
        return [], []
    # map each candidate to (doc, in-doc byte position); drop windows that
    # straddle a doc boundary in the concatenated buffer
    doc = np.searchsorted(offsets, g, side="right") - 1
    in_pos = g - offsets[doc]
    ok = in_pos + k <= lens[doc]
    g, doc, in_pos = g[ok], doc[ok], in_pos[ok]
    lo = np.searchsorted(sorted_h, all_h[g], side="left")
    hi = np.searchsorted(sorted_h, all_h[g], side="right")
    out_doc, out_eval = [], []
    confirmed: set = set()
    mv = memoryview(buf)
    for c in range(len(g)):
        d = int(doc[c])
        base_g = int(g[c])
        doc_end = int(offsets[d] + lens[d])
        for r in range(int(lo[c]), int(hi[c])):
            j = int(needle_of[r])
            key = (d, j)
            if key in confirmed:
                continue
            nb = enc_needles[j]
            if base_g + len(nb) > doc_end:
                continue
            if mv[base_g : base_g + len(nb)] == nb:
                eid = eval_ids[j]
                if self_exclude and doc_ids[d] == eid:
                    confirmed.add(key)  # self-pair: remember, never emit
                    continue
                confirmed.add(key)
                out_doc.append(doc_ids[d])
                out_eval.append(eid)
    return out_doc, out_eval


def contamination_pairs(
    train: ray.data.Dataset,
    eval_ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    eval_budget: int = 1_000_000,
    method: str = "auto",
    scan_needle_threshold: int = 256,
) -> ray.data.Dataset:
    """(doc_id, eval_id) for every training doc whose text contains an eval
    doc's text (self-pairs by id excluded). ``eval_ds`` must fit the budget —
    it is the benchmark being protected, not a second corpus.

    ``method``: ``"scan"`` forces the per-needle ``match_substring`` loop,
    ``"ngram"`` forces the Rabin–Karp prefix-hash prefilter, ``"auto"``
    (default) picks ngram past ``scan_needle_threshold`` needles. Measured
    at sf0.1 (64k docs, 32 cpus): ngram already wins at 100 needles (0.18 s
    vs 1.08 s) and is needle-flat to 10k (0.23 s vs 2.97 s); the threshold
    keeps tiny eval sets on the simpler kernel only because both are
    sub-second there.
    """
    from .exchange import fetch_cached

    slim = eval_ds.select_columns([id_col, text_col]).materialize()
    n_eval = slim.count()
    if n_eval > eval_budget:
        raise ValueError(
            f"contamination_pairs: eval set has {n_eval} rows (> {eval_budget}); "
            "an eval benchmark should be small — split it or raise the budget"
        )
    tabs = [t for t in ray.get(slim.to_arrow_refs()) if t.num_rows > 0]
    if not tabs:
        empty = pa.table(
            {id_col: pa.array([], pa.int64()), "eval_id": pa.array([], pa.int64())}
        )
        return ray.data.from_arrow(empty)
    ev = pa.concat_tables(tabs)
    order = pc.sort_indices(ev[id_col].combine_chunks())
    eval_ids = ev[id_col].take(order).to_numpy(zero_copy_only=False)
    eval_texts = ev[text_col].take(order).to_pylist()

    if method not in ("auto", "scan", "ngram"):
        raise ValueError(f"contamination_pairs: unknown method {method!r}")
    use_ngram = method == "ngram" or (
        method == "auto" and n_eval > scan_needle_threshold
    )

    if not use_ngram:
        ref = ray.put((eval_ids, eval_texts))

        def scan(t: pa.Table) -> pa.Table:
            ids_, texts_ = fetch_cached(ref)
            col = t[text_col].combine_chunks()
            doc_ids = t[id_col].to_numpy(zero_copy_only=False)
            out_doc, out_eval = [], []
            for eid, needle in zip(ids_, texts_):
                hit = pc.fill_null(pc.match_substring(col, needle), False).to_numpy(
                    zero_copy_only=False
                )
                hit &= doc_ids != eid
                if hit.any():
                    h = doc_ids[hit]
                    out_doc.append(h)
                    out_eval.append(np.full(len(h), eid, dtype=eval_ids.dtype))
            if not out_doc:
                return pa.table(
                    {
                        id_col: pa.array([], t.schema.field(id_col).type),
                        "eval_id": pa.array([], t.schema.field(id_col).type),
                    }
                )
            return pa.table(
                {
                    id_col: pa.array(np.concatenate(out_doc)),
                    "eval_id": pa.array(np.concatenate(out_eval)),
                }
            )

        return train.map_batches(scan, batch_format="pyarrow")

    # ---- ngram limb: index built once on the driver, broadcast once ----
    idx = _build_ngram_index(eval_ids, eval_texts)
    k, _sorted_h, _needle_of, enc_needles, short_idx = idx
    short_pairs = [(eval_ids[j], eval_texts[j]) for j in short_idx]
    idx_ref = ray.put((idx, eval_ids))

    def scan_ngram(t: pa.Table) -> pa.Table:
        idx_, eval_ids_ = fetch_cached(idx_ref)
        out_doc: list = []
        out_eval: list = []
        if idx_[0] is not None:
            d, e = _scan_batch_ngram(t, text_col, id_col, idx_, eval_ids_, True)
            out_doc.extend(d)
            out_eval.extend(e)
        if short_pairs:
            # degenerate (<4-byte) needles: per-needle vectorized kernel
            col = t[text_col].combine_chunks()
            doc_ids = t[id_col].to_numpy(zero_copy_only=False)
            for eid, needle in short_pairs:
                hit = pc.fill_null(
                    pc.match_substring(col, needle), False
                ).to_numpy(zero_copy_only=False)
                hit &= doc_ids != eid
                out_doc.extend(doc_ids[hit].tolist())
                out_eval.extend([eid] * int(hit.sum()))
        if not out_doc:
            return pa.table(
                {
                    id_col: pa.array([], t.schema.field(id_col).type),
                    "eval_id": pa.array([], t.schema.field(id_col).type),
                }
            )
        return pa.table(
            {
                id_col: pa.array(out_doc, t.schema.field(id_col).type),
                "eval_id": pa.array(out_eval, t.schema.field(id_col).type),
            }
        )

    return train.map_batches(scan_ngram, batch_format="pyarrow")
