"""MinHash and SimHash sketches (pure numpy — no Ray).

North-rule generalizations of the reference's dedup predicates:

* MinHash over character shingles generalizes set-equality dedup
  (/root/reference/src/hash_dup_remover.hpp:105-148) to Jaccard near-dup.
* SimHash with Hamming-ball bucketing generalizes the tail-hamming fuzzy mode
  (/root/reference/src/comparator.cpp:76-91, --distance, default d=2
  /root/reference/src/main.cpp:34) to 64-bit signature space.

All randomness is seeded at construction so Ray task retries are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import _MASK64, char_ngram_hashes, hash64, word_ngram_hashes

_MERSENNE61 = np.uint64((1 << 61) - 1)


@dataclass(frozen=True)
class MinHashParams:
    """Shared MinHash/LSH configuration.

    num_perms must equal bands * rows_per_band. The LSH match threshold is
    approximately (1/bands)^(1/rows_per_band); the defaults (16 bands x 8 rows)
    target Jaccard ~0.7.

    ``shingle`` selects the feature space: "char" = character k-grams
    (shingle_k), "word" = word n-grams (word_n) — the n-gram-Jaccard dedup
    variant; both signature and exact-Jaccard verify use the same space.
    """

    num_perms: int = 128
    shingle_k: int = 8
    bands: int = 16
    rows_per_band: int = 8
    seed: int = 0x5EED
    shingle: str = "char"
    word_n: int = 3
    scheme: str = "kperm"  # "kperm" = classic K permutations; "oph" = one-permutation + densification

    def shingles_of(self, text: str, unique: bool = True) -> "np.ndarray":
        if self.shingle == "word":
            return word_ngram_hashes(text, self.word_n, unique=unique)
        return char_ngram_hashes(text, self.shingle_k, unique=unique)

    def __post_init__(self):
        if self.bands * self.rows_per_band != self.num_perms:
            raise ValueError("bands * rows_per_band must equal num_perms")

    def threshold(self) -> float:
        return (1.0 / self.bands) ** (1.0 / self.rows_per_band)


class MinHasher:
    """Computes K-permutation MinHash signatures over character shingles.

    Holds the permutation coefficient matrix — load once per actor
    (stages.minhash wraps this in a map_batches actor-pool class).
    """

    def __init__(self, params: MinHashParams = MinHashParams()):
        self.params = params
        rng = np.random.RandomState(params.seed)
        # multiply-shift family h_i(x) = a_i * x + b_i with uint64 wraparound
        # (odd a_i): the MIN is decided by the well-mixed high bits, so this
        # matches mod-Mersenne universal hashing in minhash quality at ~10x
        # the throughput (no SIMD-hostile 64-bit modulo in the hot loop).
        self.a = (rng.randint(1, (1 << 61) - 1, size=params.num_perms, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        self.b = rng.randint(0, (1 << 61) - 1, size=params.num_perms, dtype=np.uint64)

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """uint64[num_perms] MinHash signature of a unique-shingle-hash set."""
        K = self.params.num_perms
        if len(shingles) == 0:
            return np.full(K, _MASK64, dtype=np.uint64)
        x = shingles.astype(np.uint64, copy=False)
        sig = np.full(K, _MASK64, dtype=np.uint64)
        # chunk the shingle axis to bound the (K, chunk) broadcast to ~1 MiB
        step = 1024
        for i in range(0, len(x), step):
            chunk = x[i : i + step]
            vals = self.a[:, None] * chunk[None, :] + self.b[:, None]
            np.minimum(sig, vals.min(axis=1), out=sig)
        return sig

    def sign_text(self, text: str) -> np.ndarray:
        if self.params.scheme == "oph":
            # duplicates can't change a bin minimum — skip the per-doc sort
            # (halves OPH signing cost; bitwise-identical signatures)
            return self.signature_oph(self.params.shingles_of(text, unique=False))
        return self.signature(self.params.shingles_of(text))

    def signature_oph(self, shingles: np.ndarray) -> np.ndarray:
        """One-permutation MinHash with optimal densification (Shrivastava,
        ICML 2017): hash every shingle ONCE, scatter-min into K bins, fill
        empty bins by borrowing from a universally-hashed source bin. ~K x
        less arithmetic than K-permutation signing at comparable LSH recall
        — the 100 TB signing path (P[sig_a[j]==sig_b[j]] ~= Jaccard holds
        bin-wise, so banding works unchanged).
        """
        K = self.params.num_perms
        sig = np.full(K, _MASK64, dtype=np.uint64)
        if len(shingles) == 0:
            return sig
        x = shingles.astype(np.uint64, copy=False) * self.a[0] + self.b[0]
        bins = (x % np.uint64(K)).astype(np.int64)
        np.minimum.at(sig, bins, x)
        empty = np.nonzero(sig == _MASK64)[0]
        # optimal densification: deterministic per-(bin, attempt) probe chain
        attempt = 1
        while len(empty):
            probe = (
                (empty.astype(np.uint64) + np.uint64(attempt)) * self.a[1 % len(self.a)]
                + self.b[1 % len(self.b)]
            ) % np.uint64(K)
            src = sig[probe.astype(np.int64)]
            ok = src != _MASK64
            sig[empty[ok]] = src[ok]
            empty = empty[~ok]
            attempt += 1
            if attempt > 64 * K:  # all-empty pathological guard
                break
        return sig

    def signatures_batch(self, texts) -> np.ndarray:
        """(n_docs, num_perms) signatures for a batch of texts.

        Char shingles take a batched path: OPH does one shingling pass over
        the concatenated batch, one flat scatter-min and batched
        densification; the classic K-permutation scheme does one shingling
        pass and a per-perm ``reduceat`` (``signatures_classic_batch``). Both
        are bit-identical to per-doc ``sign_text`` (test-pinned). Word
        shingles keep the per-doc loop.
        """
        if self.params.scheme == "oph" and self.params.shingle == "char":
            return self.signatures_oph_batch(texts)
        if self.params.shingle == "char":
            return self.signatures_classic_batch(texts)
        K = self.params.num_perms
        n = len(texts)
        sig = np.empty((n, K), dtype=np.uint64)
        for i, t in enumerate(texts):
            sig[i] = self.sign_text(t or "")
        return sig

    # Sub-batch width for batched classic signing: the per-perm pass holds
    # one 8 B x W scratch buffer (W = the chunk's raw shingle windows,
    # duplicates included); 128 docs keeps it ~L2-resident. Measured on the
    # crawl_minhash bench corpus: 0.26 s at 128 docs vs 0.31 / 0.26 / 0.36 s
    # at 64 / 256 / 512.
    CLASSIC_CHUNK_DOCS = 128

    def signatures_classic_batch(self, texts) -> np.ndarray:
        """Batched K-permutation signing over char shingles, bit-identical
        to per-doc ``signature(shingles_of(text))`` (test-pinned).

        One batch shingling pass, then per permutation a flat multiply-add
        into one reused buffer and ``np.minimum.reduceat`` over the
        contiguous per-doc window segments the shingler returns. There is no
        per-doc unique step: a repeated shingle cannot change a min, and the
        lexsort that uniqued them cost more than the arithmetic it saved.
        Measured on 1 CPU over the 3,558 post-exact docs of the
        crawl_minhash bench corpus (seed 1): 11.6% of the windows are
        within-doc repeats (1.90M raw vs 1.68M per-doc unique), and signing
        took 0.26 s without the sort vs 0.48 s with it. With the same docs
        rewritten to a 78% repeat share it still won (0.25 vs 0.32 s); only
        near a 95% share did the sort pay for itself (0.52 vs 0.43 s).
        Zero-shingle docs keep the all-``_MASK64`` signature."""
        n = len(texts)
        K = self.params.num_perms
        step = self.CLASSIC_CHUNK_DOCS
        if n > step:
            out = np.empty((n, K), dtype=np.uint64)
            for i in range(0, n, step):
                out[i : i + step] = self.signatures_classic_batch(texts[i : i + step])
            return out
        from .hashing import char_ngram_hashes_batch

        values, starts, counts = char_ngram_hashes_batch(texts, self.params.shingle_k)
        sig = np.full((n, K), _MASK64, dtype=np.uint64)
        # empty docs own no windows, so the non-empty docs' starts tile
        # ``values`` exactly (reduceat needs strictly increasing indices)
        docs = np.flatnonzero(counts)
        seg_start = starts[docs]
        hv = np.empty_like(values)
        sig_t = np.empty((K, len(docs)), dtype=np.uint64)
        for k in range(K):
            np.multiply(values, self.a[k], out=hv)
            np.add(hv, self.b[k], out=hv)
            np.minimum.reduceat(hv, seg_start, out=sig_t[k])
        sig[docs] = sig_t.T
        return sig

    # Sub-batch width for OPH signing. Signing 2048 docs in one flat pass
    # allocates ~100 MB of scratch per task; with 32 concurrent tasks the
    # first-touch page-fault burst stalls on kernel THP compaction (measured
    # 0.25-5 s wall for the SAME call depending on allocator state — the
    # source of the 2-3x run-to-run jitter in the OPH flagship). 256-doc
    # chunks keep scratch ~L3-resident and malloc-recycled: measured 0.08 s
    # stable vs 0.14-4.9 s for the monolithic pass at 32 procs.
    OPH_CHUNK_DOCS = 256

    def signatures_oph_batch(self, texts) -> np.ndarray:
        """Batched OPH signing: a sub-batch's char shingles are hashed in
        one vectorized pass and scatter-min'd into a flat (n_docs * K) bin
        array in ONE ``np.minimum.at`` call; densification probes advance for
        every still-empty (doc, bin) together per attempt. Bit-identical to
        per-doc ``signature_oph`` (same hash family, same probe chain; docs
        are independent because flat indices never cross a doc boundary)."""
        n = len(texts)
        step = self.OPH_CHUNK_DOCS
        if n > step:
            out = np.empty((n, self.params.num_perms), dtype=np.uint64)
            for i in range(0, n, step):
                out[i : i + step] = self.signatures_oph_batch(texts[i : i + step])
            return out
        from .hashing import char_ngram_hashes_batch

        p = self.params
        K = p.num_perms
        sig = np.full(n * K, _MASK64, dtype=np.uint64)
        values, starts, counts = char_ngram_hashes_batch(texts, k=p.shingle_k)
        if len(values):
            x = values * self.a[0] + self.b[0]
            bins = (x % np.uint64(K)).astype(np.int64)
            doc_base = np.repeat(np.arange(n, dtype=np.int64) * K, counts)
            np.minimum.at(sig, doc_base + bins, x)
        sig = sig.reshape(n, K)
        empty_doc, empty_bin = np.nonzero(sig == _MASK64)
        if len(empty_doc):
            # zero-shingle docs stay all-sentinel (per-doc path's early
            # return) — densifying them would spin to the pathological guard
            has = counts[empty_doc] > 0
            empty_doc, empty_bin = empty_doc[has], empty_bin[has]
        a1, b1 = self.a[1 % len(self.a)], self.b[1 % len(self.b)]
        attempt = 1
        while len(empty_bin):
            probe = ((empty_bin.astype(np.uint64) + np.uint64(attempt)) * a1 + b1) % np.uint64(K)
            src = sig[empty_doc, probe.astype(np.int64)]
            ok = src != _MASK64
            sig[empty_doc[ok], empty_bin[ok]] = src[ok]
            empty_doc, empty_bin = empty_doc[~ok], empty_bin[~ok]
            attempt += 1
            if attempt > 64 * K:  # all-empty pathological guard
                break
        return sig

    def band_keys_batch(self, sigs: np.ndarray) -> np.ndarray:
        """(n_docs, bands) band keys — same recurrence as ``band_keys``."""
        p = self.params
        bands = sigs.reshape(len(sigs), p.bands, p.rows_per_band)
        out = np.zeros((len(sigs), p.bands), dtype=np.uint64)
        mult = np.uint64(0x9E3779B97F4A7C15)
        for r in range(p.rows_per_band):
            out = (out * mult + bands[:, :, r]) & _MASK64
        out ^= (np.arange(p.bands, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        return out

    def band_keys(self, sig: np.ndarray) -> np.ndarray:
        """uint64[bands] — one hash per LSH band (band index is folded in so
        keys from different bands never collide into one groupby bucket)."""
        p = self.params
        bands = sig.reshape(p.bands, p.rows_per_band)
        # polynomial-combine the rows of each band, then mix in the band index
        out = np.zeros(p.bands, dtype=np.uint64)
        mult = np.uint64(0x9E3779B97F4A7C15)
        for r in range(p.rows_per_band):
            out = (out * mult + bands[:, r]) & _MASK64
        out ^= (np.arange(p.bands, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        return out


def minhash_jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Unbiased Jaccard estimate from two equal-config signatures."""
    return float(np.mean(sig_a == sig_b))


def simhash64(
    text: str, token_ngram: int = 2, feature: str = "word", shingle_k: int = 8
) -> int:
    """64-bit SimHash over word n-gram or character-shingle features.

    The fixed-length fuzzy signature mirroring the reference's same-length
    Hamming predicate: two near-identical documents differ in few signature
    bits, so `hamming64(sim_a, sim_b) <= d` plays the role of
    `hammingDistance(seq_a, seq_b) <= d` (/root/reference/src/seq_utils.cpp:65-72).

    ``feature="char"`` votes over overlapping ``shingle_k``-byte windows
    (multiplicity kept) instead of word n-grams: a k-character substitution
    then perturbs at most ``k * shingle_k`` of ~len(text) features, so the
    signature is far more stable under the reference's own duplicate class
    (small same-length char edits) than word n-grams, where one changed word
    flips ``n`` of ~n_words features. Measured on the planted corpus
    (scripts/recall_eval.py): char shingles reach dup-pair recall >= 0.99 vs
    the reference tail-hamming clusters; word bigrams cap near 0.91.
    """
    if feature == "char":
        h = char_ngram_hashes(text or "", shingle_k, unique=False)
        if len(h) == 0:
            return 0
    else:
        toks = text.split()
        if not toks:
            return 0
        h = _ngram_feature_hashes(hash64(toks), token_ngram)
    bits = np.unpackbits(h.view(np.uint8).reshape(len(h), 8), axis=1, bitorder="little")
    counts = bits.sum(axis=0, dtype=np.int64) * 2 - len(h)  # (+1/-1 votes)
    out_bits = (counts >= 0).astype(np.uint8)
    return int(np.packbits(out_bits, bitorder="little").view(np.uint64)[0])


_NGRAM_MULT = np.uint64(0x9E3779B97F4A7C15)


def _ngram_feature_hashes(tok_hashes: np.ndarray, n: int) -> np.ndarray:
    """Token-hash windows combined arithmetically (no string joins).

    feature_i = sum_j tok_hash[i+j] * MULT^(n-1-j) with uint64 wraparound —
    order-sensitive like the string join it replaces, ~10x cheaper. Docs with
    fewer than n tokens yield one feature over all their tokens.
    """
    m = len(tok_hashes)
    k = min(n, m)
    out = np.zeros(m - k + 1, dtype=np.uint64)
    for j in range(k):
        out = out * _NGRAM_MULT + tok_hashes[j : m - k + 1 + j]
    return out


def simhash64_batch(
    texts, token_ngram: int = 2, feature: str = "word", shingle_k: int = 8
) -> np.ndarray:
    """uint64[n] SimHash signatures, bit-identical to per-doc ``simhash64``.

    One ``hash64`` call over every TOKEN in the batch, n-gram features
    combined arithmetically (``_ngram_feature_hashes`` — no string joins),
    then per-doc bit votes via a transposed-cumsum segment sum.

    ``feature="char"`` swaps the feature stream for the batch char-shingler
    (one rolling-hash pass over the concatenated corpus bytes) — see
    :func:`simhash64` for why char shingles track the reference's
    same-length Hamming duplicate class much more faithfully.
    """
    if feature == "char":
        from .hashing import char_ngram_hashes_batch

        h, _starts, counts = char_ngram_hashes_batch(texts, shingle_k)
        out = np.zeros(len(texts), dtype=np.uint64)
        nz = np.nonzero(counts)[0]
        if len(nz) == 0:
            return out
    else:
        tok_lists = [(t or "").split() for t in texts]
        counts = np.array([max(len(tl) - token_ngram + 1, 1) if tl else 0 for tl in tok_lists], dtype=np.int64)
        out = np.zeros(len(texts), dtype=np.uint64)
        nz = np.nonzero(counts)[0]
        if len(nz) == 0:
            return out
        all_toks: list = []
        for i in nz:
            all_toks.extend(tok_lists[i])
        th = hash64(all_toks)  # ONE vectorized hash over every token in the batch
        h = np.empty(int(counts[nz].sum()), dtype=np.uint64)
        tpos = fpos = 0
        for i in nz:
            m = len(tok_lists[i])
            c = counts[i]
            h[fpos : fpos + c] = _ngram_feature_hashes(th[tpos : tpos + m], token_ngram)
            tpos += m
            fpos += c
    bits = np.unpackbits(h.view(np.uint8).reshape(len(h), 8), axis=1, bitorder="little")
    # per-doc bit votes: 64 bincounts over the doc-id vector — measured
    # ~32 us/doc vs ~450 us/doc for 2D reduceat and ~740 us/doc for the
    # transposed-cumsum formulation (both pay per-row/segment ufunc dispatch;
    # bincount is one tight C loop per bit)
    doc_ids = np.repeat(np.arange(len(nz)), counts[nz])
    sums = np.empty((len(nz), 64), dtype=np.int64)
    for b in range(64):
        sums[:, b] = np.bincount(doc_ids, weights=bits[:, b], minlength=len(nz))
    votes = sums * 2 - counts[nz][:, None]  # (+1/-1 votes)
    out_bits = (votes >= 0).astype(np.uint8)
    out[nz] = np.packbits(out_bits, axis=1, bitorder="little").view(np.uint64).ravel()
    return out


def simhash_chunks(sig: np.ndarray, distance: int) -> np.ndarray:
    """(n, distance+1) uint64 pigeonhole chunk keys for Hamming-ball bucketing.

    Splitting a 64-bit signature into d+1 chunks guarantees any two signatures
    within Hamming distance d agree exactly on at least one chunk — the bucket
    key for the candidate-generation groupby. Chunk index is folded into the key.
    """
    n_chunks = distance + 1
    sig = sig.astype(np.uint64, copy=False)
    bounds = np.linspace(0, 64, n_chunks + 1).astype(np.uint64)
    cols = []
    for c in range(n_chunks):
        lo, hi = bounds[c], bounds[c + 1]
        width = hi - lo
        mask = _MASK64 if width == 64 else np.uint64((1 << int(width)) - 1)
        chunk = (sig >> lo) & mask
        chunk ^= np.uint64((c * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF)
        cols.append(chunk)
    return np.stack(cols, axis=1)
