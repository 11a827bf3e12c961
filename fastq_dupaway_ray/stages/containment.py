"""Contained-duplicate detection — substring containment pass (north rule).

Generalizes the reference's loose prefix predicate
(/root/reference/src/comparator.cpp:60-74: the shorter record equals a prefix
of the longer) to full substring containment: a page whose text appears verbatim
inside another page is a contained duplicate (quote pages, syndicated excerpts,
template supersets).

Algorithm (one shuffle, grouped verify):

1. **Anchor scoping**: each doc emits slim ``(anchor_key, id, text_len)``
   rows. Default key: the *minimum char shingle hash* of the text — if A's
   text is a substring of B's (and len(A) >= shingle k), every shingle of A,
   including its minimum, is a shingle of B; the pair co-locates under key
   min(A) whenever B emits that key. Exact mode (``anchors=None``) has every
   doc emit each of its shingles that is some doc's minimum (broadcast
   sorted-set membership, fetched once per worker) — zero false negatives;
   the bottom-k approximate mode (``anchors=k``) trades recall for fewer rows.
2. **Text co-shuffle, once per (doc, bucket)**: anchor keys hash into B
   coarse shuffle buckets; each doc ships its text to each DISTINCT bucket
   its anchors land in — NOT once per anchor (round 1) and NOT per candidate
   pair. Bottom-k mode ships <= ``anchors`` copies; exact mode <= the doc's
   distinct hit buckets (capped by B; the documented cost of exactness).
3. **Grouped verify**: one vectorized pandas pass per bucket; within each
   anchor key (len-desc sorted, capped at ``max_bucket``) every text is
   ``str.find``-searched against the SEPARATOR-JOINED CONCATENATION of the
   strictly-longer texts — C-speed, shared haystack per group instead of
   per-pair probes (a per-pair design measured 10x slower on natural text,
   where min-shingles concentrate: ~5% distinct minima -> huge anchor groups).

Emitted edges (big, small) feed the same components/representative stages as
MinHash/SimHash — keep-first semantics then pick the earliest member.
"""

from __future__ import annotations

import bisect

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions.hashing import char_ngram_hashes

SEP = "\x00"
SEP_B = b"\x00"


def _suffix_array(buf: np.ndarray) -> np.ndarray:
    """Suffix array of a uint8 buffer by prefix doubling (Manber–Myers),
    each round one ``np.lexsort`` over (rank, rank-shifted-by-k) — O(n log n)
    rounds, all-numpy. Out-of-range second keys rank -1 (< any byte), which
    matches true suffix order: a shorter suffix that prefixes a longer one
    sorts first (the same shorter-before-extension rule as the reference's
    record compare, /root/reference/src/fastqview.cpp:56-67)."""
    n = len(buf)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = buf.astype(np.int64)
    order = np.argsort(rank, kind="stable")
    k = 1
    while k < n:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1, r2 = rank[order], key2[order]
        diff = np.empty(n, dtype=np.int64)
        diff[0] = 0
        np.cumsum((r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1]), out=diff[1:])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = diff
        if diff[-1] == n - 1:  # all ranks distinct: fully ordered
            break
        k <<= 1
    return order


def _sa_range(hay: bytes, sa: np.ndarray, needle: bytes) -> tuple[int, int]:
    """[lo, hi) slice of ``sa`` whose suffixes start with ``needle``.
    Each probe compares one ``bytes`` slice (C-speed memcmp): O(|needle| log n)."""
    m = len(needle)
    lo, hi = 0, len(sa)
    while lo < hi:
        mid = (lo + hi) // 2
        p = int(sa[mid])
        if hay[p : p + m] < needle:
            lo = mid + 1
        else:
            hi = mid
    start = lo
    hi = len(sa)
    while lo < hi:
        mid = (lo + hi) // 2
        p = int(sa[mid])
        if hay[p : p + m] <= needle:
            lo = mid + 1
        else:
            hi = mid
    return start, lo


def _doc_anchor_keys(text: str, shingle_k: int, anchors: int | None, M) -> np.ndarray:
    """A doc's anchor keys: bottom-k shingles, or (exact mode) every shingle
    that is some doc's minimum."""
    sh = char_ngram_hashes(text, shingle_k)
    if len(sh) == 0:
        return sh
    if anchors is not None:
        return sh[:anchors]  # char_ngram_hashes returns sorted-unique
    if M is None or len(M) == 0:
        return sh[:0]
    pos = np.searchsorted(M, sh)
    pos[pos >= len(M)] = len(M) - 1
    return sh[M[pos] == sh]


def emit_anchor_and_text_rows(
    batch: pa.Table,
    shingle_k: int = 8,
    anchors: int | None = 4,
    min_set_ref=None,
    num_buckets: int = 128,
    text_col: str = "text",
    id_col: str = "url",
) -> pa.Table:
    """Stateless task: per doc emit slim anchor rows (one per anchor key) AND
    one text row per DISTINCT shuffle bucket among its anchor keys (so the
    grouped verify finds every member's text in-bucket without a join).
    Text rows have ``_is_text=1`` and a null anchor key."""
    from .exchange import fetch_cached

    M = None
    if min_set_ref is not None:
        M = fetch_cached(min_set_ref) if isinstance(min_set_ref, ray.ObjectRef) else min_set_ref
    texts = batch[text_col].to_pylist()
    ids = batch[id_col].to_pylist()
    keys, bkts, out_ids, out_lens, out_texts, is_text = [], [], [], [], [], []
    B = np.uint64(num_buckets)
    for i, t in enumerate(texts):
        t = t or ""
        ak = _doc_anchor_keys(t, shingle_k, anchors, M)
        if len(ak) == 0:
            continue
        doc_bkts = (ak % B).astype(np.int64)
        n = len(ak)
        keys.extend(int(x) for x in ak)
        bkts.extend(int(x) for x in doc_bkts)
        out_ids.extend([ids[i]] * n)
        out_lens.extend([len(t)] * n)
        out_texts.extend([None] * n)
        is_text.extend([0] * n)
        for b in np.unique(doc_bkts):
            keys.append(0)
            bkts.append(int(b))
            out_ids.append(ids[i])
            out_lens.append(len(t))
            out_texts.append(t)
            is_text.append(1)
    return pa.table(
        {
            "anchor_key": pa.array(np.array(keys, dtype=np.uint64), pa.uint64()),
            "_bkt": pa.array(np.array(bkts, dtype=np.int64), pa.int64()),
            id_col: pa.array(out_ids, batch[id_col].type),
            "_len": pa.array(np.array(out_lens, dtype=np.int64), pa.int64()),
            "_text": pa.array(out_texts, pa.string()),
            "_is_text": pa.array(np.array(is_text, dtype=np.int8), pa.int8()),
        }
    )


def _min_shingle_set(pages: ray.data.Dataset, shingle_k: int, text_col: str) -> np.ndarray:
    """Distinct per-doc minimum shingle hashes, sorted uint64 (small result:
    <= one value per doc; partial-uniqued inside each batch before collect)."""

    def mins(t: pa.Table) -> pa.Table:
        out = []
        for txt in t[text_col].to_pylist():
            sh = char_ngram_hashes(txt or "", shingle_k)
            if len(sh):
                out.append(sh[0])  # char_ngram_hashes returns sorted-unique
        arr = np.unique(np.array(out, dtype=np.uint64))
        return pa.table({"m": pa.array(arr, pa.uint64())})

    parts = [
        b["m"].to_numpy()
        for b in pages.select_columns([text_col])
        .map_batches(mins, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def containment_edges(
    pages: ray.data.Dataset,
    shingle_k: int = 8,
    anchors: int | None = 4,
    id_col: str = "url",
    text_col: str = "text",
    max_bucket: int = 512,
    num_shuffle_buckets: int | None = None,
    verify: str = "find",
) -> ray.data.Dataset:
    """pages -> containment edges (a=container, b=contained).

    ``anchors=None`` selects the exact mode (broadcast min-shingle semi-join,
    zero false negatives for texts with len >= shingle_k); an integer selects
    the bottom-k approximate scale path. In the APPROXIMATE mode, anchor
    groups above ``max_bucket`` are truncated to the longest members
    (containers survive; deeply-nested short members may be missed — the
    documented hot-anchor knob). The exact mode never truncates — a silent
    cap broke exactness the first time a min-shingle group outgrew 512
    members (caught by the sf0.1 sweep, 5 missing pairs at 5k docs); a hot
    group there costs one task O(members x haystack), the stated price of
    exactness (the anchors mode is the scale path).

    Buckets are co-located by the task hash exchange
    (``stages/exchange.py``), and the duplicate-edge dedup is fused onto an
    ``_ebucket`` key routed through a second exchange.

    ``verify`` picks the in-bucket substring verifier. ``"find"`` (default)
    probes each text against the concatenation of strictly-longer group
    members with ``str.find`` (CPython two-way search: linear worst case,
    memmem-fast constants). ``"suffix_array"`` is the north rule's
    suffix-array substring pass: ONE prefix-doubled suffix array over the
    group haystack, then an O(|needle| log n) binary search per needle —
    total O((H + sum |needle|) log H) per group. Both emit the identical
    edge set (test-pinned). Measured (BASELINE.md round 3): find wins both
    on natural text (0.47 vs 0.95 s, sf0.01) AND on a periodic 200-doc
    nested chain built to stress it (2.9 vs 4.1 s) — with group size capped
    at ``max_bucket`` the scan count never outgrows the SA's lexsort
    constants, so find stays the default; the SA mode is the reusable-index
    form (one structure serves all probes — the shape to extend if groups
    ever carry thousands of members). Byte-level matching on UTF-8 is
    codepoint-exact (lead/continuation byte ranges are disjoint)."""
    from .exchange import default_shuffle_buckets, hash_exchange

    B = num_shuffle_buckets or default_shuffle_buckets()
    group_cap = max_bucket if anchors is not None else None
    slim = pages.select_columns(sorted({id_col, text_col}))
    min_ref = None
    if anchors is None:
        min_ref = ray.put(_min_shingle_set(slim, shingle_k, text_col))
    rows = slim.map_batches(
        emit_anchor_and_text_rows,
        fn_kwargs={
            "shingle_k": shingle_k,
            "anchors": anchors,
            "min_set_ref": min_ref,
            "num_buckets": B,
            "text_col": text_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
        batch_size=2048,
    )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # Within each anchor key: sort by length desc; search each text against
        # the concatenation of all STRICTLY-longer texts (separator-joined, so
        # no cross-boundary false hits), emitting one edge per (container,
        # contained) pair found — ALL containers, matching the oracle's full
        # containment join. Contained docs stay in the pool (C ⊂ A ⊂ B must
        # yield both (A,C) and (B,C)).
        edges_a, edges_b = [], []
        if len(df) == 0 or "anchor_key" not in df.columns:
            return pd.DataFrame({"a": edges_a, "b": edges_b})
        texts = dict(
            zip(df.loc[df["_is_text"] == 1, id_col], df.loc[df["_is_text"] == 1, "_text"])
        )
        adf = df[df["_is_text"] == 0]
        for _, grp in adf.groupby("anchor_key", sort=False):
            grp = grp.drop_duplicates(subset=[id_col])
            if len(grp) < 2:
                continue
            grp = grp.sort_values(["_len", id_col], ascending=[False, True],
                                  kind="mergesort")
            if group_cap is not None:
                grp = grp.head(group_cap)
            ids = grp[id_col].tolist()
            lens = grp["_len"].tolist()
            concat = ""
            end_offsets: list[int] = []  # end offset of each added text
            owners: list[int] = []  # idx of the doc covering that span
            prev_len = None
            pending: list[int] = []
            for i, doc_id in enumerate(ids):
                t = texts.get(doc_id) or ""
                # flush all strictly-longer pending docs into the haystack
                if prev_len is not None and lens[i] < prev_len:
                    for j in pending:
                        concat += (texts.get(ids[j]) or "") + SEP
                        end_offsets.append(len(concat))
                        owners.append(j)
                    pending = []
                if concat:
                    pos = concat.find(t)
                    while pos >= 0:
                        k = bisect.bisect_right(end_offsets, pos)
                        edges_a.append(ids[owners[k]])
                        edges_b.append(ids[i])
                        # jump past the covering doc — one edge per container
                        pos = concat.find(t, end_offsets[k])
                pending.append(i)
                prev_len = lens[i]
        return pd.DataFrame({"a": edges_a, "b": edges_b})

    def per_bucket_sa(df: pd.DataFrame) -> pd.DataFrame:
        # Suffix-array verifier: same group scoping/truncation as per_bucket,
        # but ONE suffix array over the whole group haystack (every member,
        # SEP-terminated so no needle crosses a boundary) and a binary-search
        # probe per needle. Occurrence positions map to owner docs via one
        # searchsorted over the cumulative span ends; owners strictly longer
        # in CHARS (the oracle's length()) than the needle emit an edge.
        edges_a, edges_b = [], []
        if len(df) == 0 or "anchor_key" not in df.columns:
            return pd.DataFrame({"a": edges_a, "b": edges_b})
        texts = dict(
            zip(df.loc[df["_is_text"] == 1, id_col], df.loc[df["_is_text"] == 1, "_text"])
        )
        adf = df[df["_is_text"] == 0]
        for _, grp in adf.groupby("anchor_key", sort=False):
            grp = grp.drop_duplicates(subset=[id_col])
            if len(grp) < 2:
                continue
            grp = grp.sort_values(["_len", id_col], ascending=[False, True],
                                  kind="mergesort")
            if group_cap is not None:
                grp = grp.head(group_cap)
            ids = grp[id_col].tolist()
            lens = grp["_len"].tolist()  # char lengths — the oracle's compare
            enc = [(texts.get(d) or "").encode("utf-8") for d in ids]
            hay = b"".join(e + SEP_B for e in enc)
            sa = _suffix_array(np.frombuffer(hay, dtype=np.uint8))
            bnd = np.cumsum(np.array([len(e) + 1 for e in enc], dtype=np.int64))
            for i, nb in enumerate(enc):
                if not nb:
                    continue
                s, e = _sa_range(hay, sa, nb)
                if e <= s:
                    continue
                owners = np.unique(np.searchsorted(bnd, sa[s:e], side="right"))
                for j in owners.tolist():
                    if lens[j] > lens[i]:  # strict > also excludes self
                        edges_a.append(ids[j])
                        edges_b.append(ids[i])
        return pd.DataFrame({"a": edges_a, "b": edges_b})

    bucket_fn = per_bucket_sa if verify == "suffix_array" else per_bucket
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    EB = max(8, min(ncpu * 2, 32))

    def per_bucket_table(t: pa.Table | None) -> pa.Table:
        # id dtype follows the input (string urls, int doc_ids, ...): an
        # all-empty reduce still sees a zero-row slice of a real block, so
        # the schema is always available except for a fully-empty dataset
        idt = t.schema.field(id_col).type if t is not None else pa.string()
        empty = pa.table(
            {
                "a": pa.array([], idt),
                "b": pa.array([], idt),
                "_ebucket": pa.array([], pa.int64()),
            }
        )
        if t is None or t.num_rows == 0:
            return empty
        # the verify itself is inherently string work (substring search over
        # concatenated haystacks) — the pandas pass stays; only the shuffle
        # machinery around it changes
        df = bucket_fn(t.to_pandas())
        if len(df) == 0:
            return empty
        from ..functions.hashing import hash64

        eb = (hash64(df["a"].to_numpy(dtype=object)) % np.uint64(EB)).astype(np.int64)
        return pa.table(
            {
                "a": pa.array(df["a"].tolist(), type=idt),
                "b": pa.array(df["b"].tolist(), type=idt),
                "_ebucket": pa.array(eb, pa.int64()),
            }
        )

    def _dedup_bucket(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            idt = t.schema.field("a").type if t is not None else pa.string()
            return pa.table({"a": pa.array([], idt), "b": pa.array([], idt)})
        return t.select(["a", "b"]).group_by(["a", "b"]).aggregate([])

    edges = hash_exchange(rows, "_bkt", B, per_bucket_table)
    return hash_exchange(edges, "_ebucket", EB, _dedup_bucket)
