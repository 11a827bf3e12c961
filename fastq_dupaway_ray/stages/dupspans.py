"""Cross-document duplicate-SPAN statistics — the detector behind
substring-level training-data dedup (Lee et al., "Deduplicating Training
Data Makes Language Models Better": duplicated >=k-length spans across
documents are the harmful class that whole-doc and paragraph dedup miss).

For every document: how many of its k-character windows also occur in at
least one OTHER document, and what fraction of the document that is. The
signal feeds filtering (drop docs past a dup-mass threshold) or marks span
ranges for surgical removal.

Shape (exact, two slim exchanges, text never shuffles):

1. **Window pass (combiner).** Each batch rolls 128-bit window identities
   over every doc's UTF-32 code points (two independent polynomial bases —
   code points match SQL ``substr`` character semantics on any input) and
   emits ONE row per distinct (window, doc): ``(w1, w2, doc_id,
   positions-in-doc count)``. Volume ~= corpus characters x 28 B — the
   honest price of EXACT cross-doc span accounting (MinHash is the cheap
   approximation when this is too dear); within-doc repeats collapse in
   the combiner.
2. **Window-owner reduce.** Buckets own windows wholly (hash exchange on
   w1), so "occurs in >= 2 distinct docs" is a per-bucket group size
   check; each bucket emits (doc_id, dup-position partial) rows.
3. **Per-doc merge.** The tiny (doc_id, n_windows) and (doc_id, n_dup)
   sides union and merge in one bucketed Arrow aggregate.

128-bit identities make a false window merge birthday-impossible
(~1e-26 at 10^12 windows); the oracle compares the actual substrings.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

_BASE1 = 1000003
_BASE2 = 1000033  # second independent polynomial (both odd)


def _id_hash64(ids: np.ndarray) -> np.ndarray:
    """id column -> uint64 exchange key: identity for integer ids, SipHash
    for strings. ONE definition — every exchange that co-locates a doc's
    rows (totals, cut rows, the doc itself) keys on it; a divergent copy
    would stop co-locating docs with their cut rows."""
    if np.issubdtype(ids.dtype, np.integer):
        return ids.astype(np.uint64)
    from ..functions.hashing import hash64

    return hash64(ids.astype(object))


def _with_id_key(t: pa.Table, col: str) -> pa.Table:
    """``t`` plus its ``_idk`` exchange key (``_id_hash64`` of ``col``)."""
    key = _id_hash64(t[col].to_numpy(zero_copy_only=False))
    return t.append_column("_idk", pa.array(key, pa.uint64()))



def _window_hashes_u32(texts: np.ndarray, k: int):
    """128-bit k-codepoint window identities for a batch of texts.

    Returns (w1, w2, doc_idx, n_windows_per_doc): one entry per window
    POSITION (multiplicity kept — the combiner collapses it per doc).
    Windows are over UTF-32 code points, matching SQL ``substr`` character
    counting for any input, not just ASCII.
    """
    from ..functions.hashing import _rolling_poly_hashes

    # null texts window as empty (the SQL oracles' length(NULL) joins drop
    # them the same way)
    enc = [(t or "").encode("utf-32-le") for t in texts]
    lens = np.array([len(e) // 4 for e in enc], dtype=np.int64)
    counts = np.maximum(lens - k + 1, 0)
    data = np.frombuffer(b"".join(enc), dtype=np.uint32).astype(np.uint64)
    total = int(counts.sum())
    w1 = np.empty(total, dtype=np.uint64)
    w2 = np.empty(total, dtype=np.uint64)
    if total == 0:
        return w1, w2, np.empty(0, dtype=np.int64), counts
    all1 = _rolling_poly_hashes(data, k, _BASE1)
    all2 = _rolling_poly_hashes(data, k, _BASE2)
    offsets = np.zeros(len(enc), dtype=np.int64)
    offsets[1:] = np.cumsum(lens)[:-1]
    has = counts > 0
    hc, hs, ho = counts[has], (np.cumsum(counts) - counts)[has], offsets[has]
    within = np.arange(total, dtype=np.int64) - np.repeat(hs, hc)
    src = np.repeat(ho, hc) + within
    dst = np.repeat(hs, hc) + within
    w1[dst] = all1[src]
    w2[dst] = all2[src]
    doc_idx = np.repeat(np.arange(len(enc), dtype=np.int64), counts)
    return w1, w2, doc_idx, counts


def dup_span_stats(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 30,
    num_buckets: int | None = None,
    round_digits: int | None = 6,
    rounds: int = 1,
) -> ray.data.Dataset:
    """(id, n_windows, n_dup_windows, dup_fraction) per document with >= 1
    window (docs shorter than ``k`` characters have no windows and are
    absent, like the SQL form). A window position counts as duplicated iff
    its text occurs in at least one other document.

    ``rounds``: the window exchange carries ~corpus-characters x 40 B —
    the price of exactness. When that exceeds cluster memory (measured: a
    1M x 400-char corpus overflows a 37 GB object store at rounds=1), set
    ``rounds=R`` to process the disjoint window-hash ranges ``w2 % R == r``
    in R sequential passes (keyed on the SECOND hash word — the exchange
    buckets by ``w1 % B``, which small R values would alias): in-flight exchange volume drops to ~1/R at the
    cost of R cheap re-hash scans of the text (window membership is a pure
    function of the hash, so the union of rounds is exactly the rounds=1
    answer). Size R ~= corpus_chars x 40 / usable_memory.
    """
    from .exchange import default_shuffle_buckets, hash_exchange

    B = num_buckets or default_shuffle_buckets()
    if rounds < 1:
        raise ValueError("dup_span_stats needs rounds >= 1")

    def window_rows(t: pa.Table, rnd: int = 0) -> pa.Table:
        texts = t[text_col].to_numpy(zero_copy_only=False).astype(object)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        id_type = t.schema.field(id_col).type  # explicit: an empty group
        # would infer a null-typed d column and break the concat/union
        w1, w2, doc_idx, counts = _window_hashes_u32(texts, k)
        if rounds > 1:
            # partition on w2, NOT w1: the exchange buckets by w1 % B and
            # B is a multiple of small rounds values, so w1 % rounds would
            # alias — each round hitting only B/gcd reducers with the SAME
            # per-reducer volume as rounds=1 (the overflow rounds exists
            # to prevent)
            mine = (w2 % np.uint64(rounds)) == np.uint64(rnd)
            w1, w2, doc_idx = w1[mine], w2[mine], doc_idx[mine]
        # collapse to one row per (window, doc) carrying the position count
        df = pd.DataFrame({"w1": w1, "w2": w2, "d": ids[doc_idx]})
        g = df.groupby(["w1", "w2", "d"], sort=False).size().reset_index(name="cnt")
        out = pa.table(
            {
                "w1": pa.array(g["w1"].to_numpy(), pa.uint64()),
                "w2": pa.array(g["w2"].to_numpy(), pa.uint64()),
                "d": pa.array(g["d"].to_numpy(), id_type),
                "cnt": pa.array(g["cnt"].to_numpy(), pa.int64()),
                "_tag": pa.array(np.zeros(len(g), dtype=np.int8)),
            }
        )
        # one (doc, total windows) row per doc rides along (tag 1, round 0
        # only) so the final merge needs no second scan of the corpus. Their
        # exchange key is the DOC hash, not a constant — a constant would
        # funnel every total row into bucket 0 (corpus-row-count skew on one
        # reducer); any bucket is correct since owner_reduce splits by tag.
        has = (counts > 0) if rnd == 0 else np.zeros(len(counts), dtype=bool)
        tot_key = _id_hash64(ids[has])
        totals = pa.table(
            {
                "w1": pa.array(tot_key, pa.uint64()),
                "w2": pa.array(np.zeros(int(has.sum()), dtype=np.uint64), pa.uint64()),
                "d": pa.array(ids[has], id_type),
                "cnt": pa.array(counts[has], pa.int64()),
                "_tag": pa.array(np.ones(int(has.sum()), dtype=np.int8)),
            }
        )
        return pa.concat_tables([out, totals])



    def owner_reduce(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            d_type = t.schema.field("d").type if t is not None else pa.int64()
            return pa.table(
                {
                    "d": pa.array([], d_type),
                    "n_windows": pa.array([], pa.int64()),
                    "n_dup": pa.array([], pa.int64()),
                }
            )
        df = t.to_pandas()
        wins = df[df["_tag"] == 0]
        totals = df[df["_tag"] == 1]
        parts = []
        if len(wins):
            gsize = wins.groupby(["w1", "w2"], sort=False)["d"].transform("size")
            dup = wins[gsize >= 2]
            if len(dup):
                per_doc = dup.groupby("d", sort=False)["cnt"].sum().reset_index()
                parts.append(
                    pd.DataFrame(
                        {"d": per_doc["d"], "n_windows": 0, "n_dup": per_doc["cnt"]}
                    )
                )
        if len(totals):
            per_doc_t = totals.groupby("d", sort=False)["cnt"].sum().reset_index()
            parts.append(
                pd.DataFrame(
                    {"d": per_doc_t["d"], "n_windows": per_doc_t["cnt"], "n_dup": 0}
                )
            )
        if not parts:
            return owner_reduce(None)
        out = pd.concat(parts, ignore_index=True)
        return pa.table(
            {
                "d": pa.array(out["d"].to_numpy()),
                "n_windows": pa.array(out["n_windows"].to_numpy(), pa.int64()),
                "n_dup": pa.array(out["n_dup"].to_numpy(), pa.int64()),
            }
        )

    src_ds = ds.select_columns([id_col, text_col])
    round_mats = [
        hash_exchange(
            src_ds.map_batches(
                window_rows, fn_kwargs={"rnd": rnd}, batch_format="pyarrow"
            ),
            "w1",
            B,
            owner_reduce,
        ).materialize()
        for rnd in range(rounds)
    ]
    # an empty round's fallback schema types d as int64; keep empties out of
    # the union whenever ANY round is non-empty (an empty round 0 must not
    # poison a string-id union — counts on materialized datasets are
    # metadata-only). All-empty keeps one mat: types are then consistent.
    round_parts = [m for m in round_mats if m.count() > 0] or round_mats[:1]
    partials = round_parts[0]
    for extra in round_parts[1:]:
        partials = partials.union(extra)

    def doc_merge(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            d_type = t.schema.field("d").type if t is not None else pa.int64()
            return pa.table(
                {
                    id_col: pa.array([], d_type),
                    "n_windows": pa.array([], pa.int64()),
                    "n_dup_windows": pa.array([], pa.int64()),
                    "dup_fraction": pa.array([], pa.float64()),
                }
            )
        agg = pa.TableGroupBy(t.select(["d", "n_windows", "n_dup"]), "d").aggregate(
            [("n_windows", "sum"), ("n_dup", "sum")]
        )
        agg = agg.rename_columns([id_col, "n_windows", "n_dup_windows"])
        frac = pc.divide(
            pc.cast(agg["n_dup_windows"], pa.float64()),
            pc.cast(agg["n_windows"], pa.float64()),
        )
        if round_digits is not None:
            # SQL ROUND is half-away-from-zero; Arrow defaults to half-to-even
            frac = pc.round(frac, round_digits, round_mode="half_towards_infinity")
        return agg.append_column("dup_fraction", frac)

    return hash_exchange(
        partials.map_batches(_with_id_key, fn_kwargs={"col": "d"}, batch_format="pyarrow"),
        "_idk",
        B,
        doc_merge,
    )


def _excise(texts: np.ndarray, cut_ranges: list, k: int):
    """Remove the characters covered by cut ranges; returns (clean texts
    list, n_removed int64[n]). ``cut_ranges[i]`` is None or a pair of
    arrays (starts, ends) — merged half-open [s, e) code-point intervals
    for doc i. One flat delta/cumsum pass over the batch's concatenated
    UTF-32 codes — no per-char Python."""
    enc = [t.encode("utf-32-le") for t in texts]
    lens = np.array([len(e) // 4 for e in enc], dtype=np.int64)
    offsets = np.zeros(len(enc) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    delta = np.zeros(total + 1, dtype=np.int32)
    for i, rng in enumerate(cut_ranges):
        if rng is None:
            continue
        s, e = rng
        if len(s) == 0:
            continue
        starts = offsets[i] + np.asarray(s, dtype=np.int64)
        ends = offsets[i] + np.minimum(np.asarray(e, dtype=np.int64), lens[i])
        np.add.at(delta, starts, 1)
        np.add.at(delta, ends, -1)
    covered = np.cumsum(delta[:-1]) > 0
    keep = ~covered
    codes = np.frombuffer(b"".join(enc), dtype=np.uint32)
    kept_codes = codes[keep]
    # prefix-sum segment counts (reduceat would misbehave at empty-doc
    # boundaries, incl. an IndexError when the LAST doc is empty)
    kc = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(keep, out=kc[1:])
    kept_per_doc = kc[offsets[1:]] - kc[offsets[:-1]]
    new_off = np.zeros(len(enc) + 1, dtype=np.int64)
    np.cumsum(kept_per_doc, out=new_off[1:])
    buf = kept_codes.tobytes()
    clean = [
        buf[new_off[i] * 4 : new_off[i + 1] * 4].decode("utf-32-le")
        for i in range(len(enc))
    ]
    return clean, lens - kept_per_doc


def remove_dup_spans(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 30,
    num_buckets: int | None = None,
    rounds: int = 1,
    cut_broadcast_budget: int = 5_000_000,
    recount_col: str | None = "n_chars",
    prefilter: bool = False,
    stats: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Surgical cross-document duplicate-span REMOVAL (Lee et al.): every
    character covered by a k-character window whose text also occurs in a
    document with a SMALLER id is excised; the first document keeps its
    copy, and within-document repeats are untouched (``dedup_lines_within``
    / ``repetition`` own that axis). Documents are rebuilt in place; rows
    are never dropped (a fully-duplicated doc becomes empty text).

    Same window machinery and ``rounds`` memory bounding as
    :func:`dup_span_stats`; the cut set (merged cut ranges per doc)
    broadcasts READY under ``cut_broadcast_budget``, else the rebuild
    falls back to ONE ``exchange.cogroup`` of the docs with their cuts by
    id hash — text moves once either way.

    ``prefilter=True`` runs the (much cheaper) :func:`dup_span_stats` pass
    first and restricts the removal's window exchange to documents with at
    least one duplicated window. That is EXACT, not approximate: a doc
    with zero duplicated windows has only globally-unique windows, so its
    window groups are singletons — they can neither receive cuts nor shift
    any multi-doc group's minimum (any doc sharing a window with another
    doc is itself in the dup set). Window volume, cut computation and the
    interval merge then scale with DUPLICATED mass instead of corpus mass.
    The restriction is a ``keep=True`` ``exchange.semi_filter`` of the
    (id, text) source on the dup docs' ids, before windowing — a broadcast
    filter under its budget, one exchange above it; exact on both limbs.
    """
    from .dedup_exact import _row_key
    from .exchange import cogroup, default_shuffle_buckets, fetch_cached, hash_exchange, semi_filter

    B = num_buckets or default_shuffle_buckets()
    if rounds < 1:
        raise ValueError("remove_dup_spans needs rounds >= 1")

    slim_src = ds.select_columns([id_col, text_col])
    if prefilter:
        if stats is None:
            # triage flows that already ran dup_span_stats should pass it in
            # via ``stats=`` — the pass costs ~1/6 of the removal and paying
            # it twice erases the prefilter's win (measured: 36%-dup corpus
            # 477 s unfiltered vs 517 s prefiltered-with-internal-stats)
            stats = dup_span_stats(
                ds,
                text_col=text_col,
                id_col=id_col,
                k=k,
                num_buckets=num_buckets,
                rounds=rounds,
            )

        def dup_doc_keys(t: pa.Table) -> pa.Table:
            # hashed in the map tasks: the key set never carries id strings
            k1, k2 = _row_key(t.filter(pc.greater(t["n_dup_windows"], 0)), [id_col])
            return pa.table({"_k1": pa.array(k1, pa.uint64()), "_k2": pa.array(k2, pa.uint64())})

        # drop CLEAN docs before windowing: n_dup_windows == 0 means every
        # window of the doc occurs in no other document, so all its window
        # groups are singletons — they can neither receive cuts nor shift
        # any multi-doc group's minimum (any doc sharing a window with
        # another is itself in the dup set). The exchange volume becomes
        # duplicated mass, not corpus mass.
        slim_src = semi_filter(
            slim_src,
            stats.map_batches(dup_doc_keys, batch_format="pyarrow"),
            functools.partial(_row_key, cols=[id_col]),
            keep=True,
        )

    def window_rows(t: pa.Table, rnd: int = 0) -> pa.Table:
        texts = t[text_col].to_numpy(zero_copy_only=False).astype(object)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        id_type = t.schema.field(id_col).type
        w1, w2, doc_idx, counts = _window_hashes_u32(texts, k)
        # window-start position within the doc
        has = counts > 0
        hc = counts[has]
        within = (
            np.arange(int(hc.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(hc) - hc, hc)
        )
        if rounds > 1:
            # w2, not w1 — see dup_span_stats: w1 % rounds aliases the
            # w1 % B exchange bucketing
            mine = (w2 % np.uint64(rounds)) == np.uint64(rnd)
            w1, w2, doc_idx, within = w1[mine], w2[mine], doc_idx[mine], within[mine]
        return pa.table(
            {
                "w1": pa.array(w1, pa.uint64()),
                "w2": pa.array(w2, pa.uint64()),
                "d": pa.array(ids[doc_idx], id_type),
                "j": pa.array(within, pa.int64()),
            }
        )

    def owner_reduce(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            d_type = t.schema.field("d").type if t is not None else pa.int64()
            return pa.table(
                {"d": pa.array([], d_type), "j": pa.array([], pa.int64())}
            )
        df = t.to_pandas()
        fd = df.groupby(["w1", "w2"], sort=False)["d"].transform("min")
        cut = df[df["d"] > fd]
        return pa.table(
            {
                "d": pa.array(cut["d"].to_numpy(), t.schema.field("d").type),
                "j": pa.array(cut["j"].to_numpy(), pa.int64()),
            }
        )

    mats = [
        hash_exchange(
            slim_src.map_batches(
                window_rows, fn_kwargs={"rnd": rnd}, batch_format="pyarrow"
            ),
            "w1",
            B,
            owner_reduce,
        ).materialize()
        for rnd in range(rounds)
    ]
    # drop empty rounds when any round produced cuts: an empty round's
    # owner_reduce(None) fallback types d int64, and unioning that with a
    # later string-id round fails at execution. All-empty keeps one mat
    # (consistent types; only the n_cuts == 0 path consumes it).
    parts = [m for m in mats if m.count() > 0] or mats[:1]
    cuts = parts[0]
    for extra in parts[1:]:
        cuts = cuts.union(extra)

    # interval-merge exchange BEFORE the rebuild decision: per-position cut
    # rows are corpus-mass-sized on duplicate-heavy corpora (measured 136M
    # rows on a 36%-duplicate 1M-page corpus — it drowned the rebuild);
    # merging each doc's [j, j+k) windows into maximal half-open ranges
    # collapses an exactly-duplicated doc to ONE row, after which the
    # broadcast limb almost always applies
    def merge_intervals(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            d_type = t.schema.field("d").type if t is not None else pa.int64()
            return pa.table(
                {
                    "d": pa.array([], d_type),
                    "s": pa.array([], pa.int64()),
                    "e": pa.array([], pa.int64()),
                }
            )
        df = t.select(["d", "j"]).to_pandas().sort_values(["d", "j"], kind="mergesort")
        d = df["d"].to_numpy()
        j = df["j"].to_numpy()
        # a window starts a new range iff it's a new doc or past the
        # previous running end; vectorized via the "gap" trick: within a
        # doc, window i extends the range iff j[i] <= j[i-1] + k
        new_doc = np.ones(len(d), dtype=bool)
        new_doc[1:] = d[1:] != d[:-1]
        gap = np.ones(len(d), dtype=bool)
        gap[1:] = j[1:] > j[:-1] + k
        start = new_doc | gap
        s = j[start]
        e = np.maximum.reduceat(j + k, np.nonzero(start)[0])
        return pa.table(
            {
                "d": pa.array(d[start], t.schema.field("d").type),
                "s": pa.array(s, pa.int64()),
                "e": pa.array(e, pa.int64()),
            }
        )

    cuts = hash_exchange(
        cuts.map_batches(_with_id_key, fn_kwargs={"col": "d"}, batch_format="pyarrow"),
        "_idk",
        B,
        merge_intervals,
    ).materialize()
    n_cuts = cuts.count()

    def rebuild_batch(t: pa.Table, lookup) -> pa.Table:
        texts = t[text_col].to_numpy(zero_copy_only=False).astype(object)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        ranges = [lookup.get(d) for d in ids.tolist()]
        clean, removed = _excise(texts, ranges, k)
        arr = pa.array(clean, pa.string())
        out = t.set_column(t.schema.get_field_index(text_col), text_col, arr)
        if recount_col is not None and recount_col in t.column_names:
            out = out.set_column(
                out.schema.get_field_index(recount_col),
                recount_col,
                pc.utf8_length(arr).cast(out.schema.field(recount_col).type),
            )
        return out.append_column("n_removed_chars", pa.array(removed, pa.int64()))

    def cut_lookup(tab: pa.Table) -> dict:
        dfc = tab.select(["d", "s", "e"]).to_pandas()
        return {d: (g["s"].to_numpy(), g["e"].to_numpy()) for d, g in dfc.groupby("d", sort=False)}

    if n_cuts == 0:
        return ds.map_batches(
            lambda t: t.append_column(
                "n_removed_chars", pa.array(np.zeros(t.num_rows, dtype=np.int64))
            ),
            batch_format="pyarrow",
        )

    if n_cuts <= cut_broadcast_budget:
        cut_tab = pa.concat_tables(
            [x for x in ray.get(cuts.to_arrow_refs()) if x.num_rows > 0]
        )
        ref = ray.put(cut_tab)

        def rebuild(t: pa.Table) -> pa.Table:
            return rebuild_batch(t, fetch_cached(ref, cut_lookup))

        return ds.map_batches(rebuild, batch_format="pyarrow")

    # payload-exchange fallback: co-locate docs with their cut RANGES by id
    # hash — the doc payload moves through exactly one exchange
    def group_rebuild(docs_t: pa.Table, cuts_t: pa.Table) -> pa.Table:
        return rebuild_batch(docs_t.drop_columns(["_idk"]), cut_lookup(cuts_t))

    docs = ds.map_batches(_with_id_key, fn_kwargs={"col": id_col}, batch_format="pyarrow")
    keyed_cuts = cuts.map_batches(_with_id_key, fn_kwargs={"col": "d"}, batch_format="pyarrow")
    return cogroup(docs, keyed_cuts, "_idk", group_rebuild, B)
