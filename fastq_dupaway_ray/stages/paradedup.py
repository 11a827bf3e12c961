"""Paragraph-level exact dedup (CCNet / RefinedWeb-style).

The reference dedups whole records by exact content identity, keep-first in
arrival order (/root/reference/src/hash_dup_remover.hpp:105-148). This stage
applies the same keep-first identity semantics at PARAGRAPH granularity: the
corpus-wide first occurrence of each exact paragraph survives, every later
occurrence is removed from its document, and each document's text is rebuilt
from its surviving paragraphs (documents left with zero paragraphs are
dropped). This is the standard web-corpus cleanup between exact-document and
near-document dedup (CCNet's shard-hash paragraph pass, RefinedWeb's exact
substring stage — boilerplate navigation/footer paragraphs repeat across
most pages of a site while the documents containing them are all unique).

Ray-Data-first shape (mirrors stages.dedup_exact — the drop-set dual):

1. a stateless ``map_batches`` splits each doc's text on ``sep`` with
   ``pyarrow.compute.split_pattern`` and emits ONE SLIM ROW PER PARAGRAPH
   OCCURRENCE: a 128-bit content identity of the paragraph, the doc's order
   key, the paragraph position, and a 128-bit doc identity. Document text
   never enters the shuffle.
2. a hash exchange on the paragraph identity co-locates equal paragraphs;
   one vectorized pass per bucket keeps the first occurrence per identity in
   ``(order_cols..., position)`` order and emits the LOSERS as
   ``(doc identity, position)`` drop entries. In a web corpus most
   paragraphs are unique, so the drop set is the small side by definition.
3. the drop set is broadcast sorted+pre-hashed (READY per the repo's
   broadcast-index protocol) and one streaming filter pass over the corpus
   re-splits each doc (deterministic), drops the losing positions, and
   rebuilds the text with ``pyarrow.compute.binary_join`` — all-Arrow, no
   Python loop over rows.

Above ``drop_broadcast_budget`` losers (or with ``exact=True``) the
paragraph-shuffle limb takes over: paragraph rows SHUFFLE WITH THEIR TEXT,
keep-first compares actual bytes inside each bucket (zero hash-collision
exposure, like the reference's setRecord equality), and a second exchange on
the doc identity reassembles documents. Two payload shuffles — the honest
cost of exactness when duplication is heavy.

Identity tradeoff: the broadcast limb drops occurrences named by
(128-bit doc hash, position) and groups paragraphs by a 128-bit content
hash — the same ~2^-128-per-pair collision budget as stages.dedup_exact,
documented there.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import combine_hash64, hash64

_SALT2 = np.uint64(0xD6E8FEB86659FD93)


# split/flatten shared with functions.textstats.dup_line_stats — the stat
# and this removal stage must split text identically
from ..functions.textstats import flatten_lines as _flatten_paragraphs


def _para_identity128(flat: pa.Array):
    """Two independent 64-bit content hashes (+ length fold) per paragraph.

    Lengths come from the vectorized Arrow ``utf8_length`` kernel (character
    counts, same as Python ``len`` on str) — a Python per-paragraph loop here
    would run once per occurrence on the hot slim pass."""
    vals = flat.to_numpy(zero_copy_only=False).astype(object)
    lens = pc.utf8_length(flat).cast(pa.uint64()).to_numpy(zero_copy_only=False)
    p1 = combine_hash64(hash64(vals), lens)
    p2 = combine_hash64(hash64(vals, alt_key=True), lens, np.full(len(vals), _SALT2, dtype=np.uint64))
    return p1, p2


def _doc_identity128(batch: pa.Table, id_cols) -> tuple:
    """128-bit doc identity from the id columns (independent SipHash keys)."""
    parts, parts2 = [], []
    for c in id_cols:
        arr = batch[c]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        vals = arr.to_numpy(zero_copy_only=False).astype(object)
        parts.append(hash64(vals))
        parts2.append(hash64(vals, alt_key=True))
    d1 = combine_hash64(*parts)
    d2 = combine_hash64(*parts2, np.full(len(d1), _SALT2, dtype=np.uint64))
    return d1, d2


def _rebuild_texts(flat: pa.Array, keep: np.ndarray, counts: np.ndarray, doc_idx: np.ndarray, sep: str):
    """Rebuild per-doc text from the kept flat paragraphs (zero Python rows).

    Returns (texts pa.Array, kept_counts int64[n_docs]).
    """
    kept_counts = np.bincount(doc_idx[keep], minlength=len(counts)).astype(np.int64)
    new_offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(kept_counts, out=new_offsets[1:])
    kept_flat = flat.filter(pa.array(keep))
    la = pa.ListArray.from_arrays(pa.array(new_offsets), kept_flat)
    return pc.binary_join(la, sep), kept_counts


def paragraph_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_cols=("doc_id",),
    order_cols=None,
    sep: str = "\n\n",
    num_buckets: int = 64,
    drop_broadcast_budget: int = 5_000_000,
    recount_col: str | None = "n_chars",
    exact: bool = False,
    counters: dict | None = None,
) -> ray.data.Dataset:
    """Corpus-wide keep-first paragraph dedup; returns rebuilt docs (lazy).

    ``id_cols`` must uniquely identify a row (so (doc, position) uniquely
    names a paragraph occurrence — no ambiguity limb is needed, unlike
    dedup_exact whose order tuples may repeat). ``order_cols`` defaults to
    ``id_cols`` and defines "first" across the corpus; position breaks ties
    within a document. ``recount_col`` (if present in the schema) is
    recomputed as the rebuilt text's length. Documents whose every paragraph
    loses are dropped from the output.
    """
    id_cols = list(id_cols)
    order_cols = list(order_cols) if order_cols is not None else list(id_cols)

    if exact:
        if counters is not None:
            # sentinel: the payload-shuffle limb rebuilds documents in place
            # and never materializes a drop list (crossdedup.py sets its
            # counter before branching for the same reason)
            counters["paragraph_drops"] = None
        return _paragraph_dedup_shuffle(
            ds, text_col, id_cols, order_cols, sep, num_buckets, recount_col
        )

    slim_cols = [*order_cols, "_pos", "_p1", "_p2", "_d1", "_dp"]

    def slim(batch: pa.Table) -> pa.Table:
        flat, doc_idx, pos, _counts = _flatten_paragraphs(batch[text_col], sep)
        p1, p2 = _para_identity128(flat)
        d1, d2 = _doc_identity128(batch, id_cols)
        cols = {c: batch[c].take(pa.array(doc_idx)) for c in order_cols}
        cols["_pos"] = pa.array(pos, pa.int64())
        cols["_p1"] = pa.array(p1, pa.uint64())
        cols["_p2"] = pa.array(p2, pa.uint64())
        cols["_d1"] = pa.array(d1[doc_idx], pa.uint64())
        # fold position into the second doc word: the drop probe is then the
        # repo-standard sorted (h1, h2) 128-bit pair lookup
        cols["_dp"] = pa.array(
            combine_hash64(d2[doc_idx], pos.astype(np.uint64)), pa.uint64()
        )
        return pa.table(cols)

    def bucket_losers(t: pa.Table | None) -> pa.Table:
        if t is None:
            return pa.table(
                {"_d1": pa.array([], pa.uint64()), "_dp": pa.array([], pa.uint64())}
            )
        if t.num_rows == 0:
            return t.select(["_d1", "_dp"])
        df = t.select(slim_cols).to_pandas()
        df = df.sort_values([*order_cols, "_pos"], kind="mergesort")
        lose = df.duplicated(subset=["_p1", "_p2"], keep="first")
        out = df.loc[lose, ["_d1", "_dp"]]
        return pa.table(
            {
                "_d1": pa.array(out["_d1"].to_numpy(), pa.uint64()),
                "_dp": pa.array(out["_dp"].to_numpy(), pa.uint64()),
            }
        )

    from .exchange import fetch_cached, hash_exchange

    slim_rows = ds.map_batches(slim, batch_format="pyarrow")
    drops = hash_exchange(slim_rows, "_p1", num_buckets, bucket_losers)
    n_drops = drops.count()
    # record BEFORE the budget gate: the count is known on both limbs here,
    # and the fallback's rebuilt output drops exactly these occurrences
    if counters is not None:
        counters["paragraph_drops"] = n_drops
    if n_drops > drop_broadcast_budget:
        return _paragraph_dedup_shuffle(
            ds, text_col, id_cols, order_cols, sep, num_buckets, recount_col
        )

    ddf = drops.to_pandas()
    if len(ddf) == 0:
        return ds  # nothing to drop (an all-empty Dataset also loses its schema)
    # READY broadcast index sorted ONCE here, not per worker. PRIMARY key is
    # _dp (the position-folded hash — uniform, so equal-key runs are
    # birthday-rare as _pair_lookup_pos assumes); sorting by _d1 instead
    # would create a length-k run for every doc with k dropped paragraphs
    # and push millions of probes into the helper's Python run-scan
    order = np.lexsort((ddf["_d1"].to_numpy(), ddf["_dp"].to_numpy()))
    drop_ref = ray.put(
        pa.table(
            {
                "_d1": pa.array(ddf["_d1"].to_numpy()[order], pa.uint64()),
                "_dp": pa.array(ddf["_dp"].to_numpy()[order], pa.uint64()),
            }
        )
    )

    def rebuild(batch: pa.Table) -> pa.Table:
        from .exchange import _pair_lookup_pos

        flat, doc_idx, pos, counts = _flatten_paragraphs(batch[text_col], sep)
        d1, d2 = _doc_identity128(batch, id_cols)
        q1 = d1[doc_idx]
        q2 = combine_hash64(d2[doc_idx], pos.astype(np.uint64))
        idx = fetch_cached(
            drop_ref, lambda t: (t["_dp"].to_numpy(), t["_d1"].to_numpy())
        )
        _, found = _pair_lookup_pos(idx[0], idx[1], q2, q1)
        texts, kept_counts = _rebuild_texts(flat, ~found, counts, doc_idx, sep)
        out = batch.set_column(
            batch.schema.get_field_index(text_col), text_col, texts
        )
        if recount_col is not None and recount_col in batch.column_names:
            out = out.set_column(
                out.schema.get_field_index(recount_col),
                recount_col,
                pc.utf8_length(texts).cast(out.schema.field(recount_col).type),
            )
        return out.filter(pa.array(kept_counts > 0))

    return ds.map_batches(rebuild, batch_format="pyarrow")


def dedup_lines_within(
    ds: ray.data.Dataset,
    text_col: str = "text",
    sep: str = "\n",
    recount_col: str | None = "n_chars",
) -> ray.data.Dataset:
    """WITHIN-document line dedup — remove every repeat of an earlier line of
    the same document (the removal twin of
    functions.textstats.dup_line_stats; corpus-wide dedup is
    :func:`paragraph_dedup`). A pure ``map_batches`` — zero shuffles, zero
    driver state: each document's decision depends only on itself, so this
    stage costs one streaming pass at any corpus size. Every document keeps
    at least its first line, so no rows are dropped.
    """
    import pandas as pd

    def fix(batch: pa.Table) -> pa.Table:
        flat, doc_idx, _pos, counts = _flatten_paragraphs(batch[text_col], sep)
        dup = (
            pd.DataFrame(
                {"d": doc_idx, "l": flat.to_numpy(zero_copy_only=False)}
            )
            .duplicated()
            .to_numpy()
        )
        texts, _kept = _rebuild_texts(flat, ~dup, counts, doc_idx, sep)
        out = batch.set_column(
            batch.schema.get_field_index(text_col), text_col, texts
        )
        if recount_col is not None and recount_col in batch.column_names:
            out = out.set_column(
                out.schema.get_field_index(recount_col),
                recount_col,
                pc.utf8_length(texts).cast(out.schema.field(recount_col).type),
            )
        return out

    return ds.map_batches(fix, batch_format="pyarrow")


def _paragraph_dedup_shuffle(
    ds: ray.data.Dataset,
    text_col: str,
    id_cols,
    order_cols,
    sep: str,
    num_buckets: int,
    recount_col: str | None,
) -> ray.data.Dataset:
    """Exact fallback: paragraphs shuffle WITH text, byte-compared keep-first,
    then a second exchange on the doc identity reassembles documents.

    Used above the drop-set budget (heavy duplication — the broadcast set
    would not be the small side) and as the ``exact=True`` mode (zero
    hash-collision exposure, like dedup_exact's paranoid limb).
    """
    from .exchange import hash_exchange

    meta_cols = [c for c in ds.schema().names if c != text_col]
    carry = [*meta_cols]

    def para_rows(batch: pa.Table) -> pa.Table:
        flat, doc_idx, pos, _counts = _flatten_paragraphs(batch[text_col], sep)
        take = pa.array(doc_idx)
        cols = {c: batch[c].take(take) for c in carry}
        cols["_para"] = flat
        cols["_pos"] = pa.array(pos, pa.int64())
        d1, _d2 = _doc_identity128(batch, id_cols)
        cols["_d1"] = pa.array(d1[doc_idx], pa.uint64())
        p1, _p2 = _para_identity128(flat)
        cols["_p1"] = pa.array(p1, pa.uint64())
        return pa.table(cols)

    rows = ds.map_batches(para_rows, batch_format="pyarrow")
    row_schema = None

    def keep_first(t: pa.Table | None) -> pa.Table:
        if t is None:
            return row_schema.empty_table() if row_schema is not None else pa.table({})
        if t.num_rows == 0:
            return t
        df = t.to_pandas()
        df = df.sort_values([*order_cols, "_pos"], kind="mergesort")
        # byte-exact: actual paragraph strings compared, not their hashes
        df = df.drop_duplicates(subset=["_para"], keep="first")
        return pa.Table.from_pandas(df, preserve_index=False, schema=t.schema)

    rows = rows.materialize()
    # the paragraph rows were built by our own Arrow map fn, so their schema
    # carries real pyarrow types (Dataset.schema().types on pandas-lineage
    # inputs may hold numpy/python types instead)
    s = rows.schema()
    row_types = dict(zip(s.names, s.types))
    row_schema = pa.schema(
        [(n, row_types[n]) for n in s.names if isinstance(row_types[n], pa.DataType)]
    ) if all(isinstance(t, pa.DataType) for t in s.types) else None
    winners = hash_exchange(rows, "_p1", num_buckets, keep_first)

    out_fields = [
        (n, pa.string() if n == text_col else row_types[n])
        for n in ds.schema().names
    ]

    def reassemble(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            if out_fields is not None:
                return pa.schema(out_fields).empty_table()
            return pa.table({})
        df = t.to_pandas().sort_values([*id_cols, "_pos"], kind="mergesort")
        # vectorized group reassembly: docs are contiguous runs after the
        # sort (grouped by the ACTUAL id values — _d1 only routes the
        # exchange; a 64-bit routing collision must not merge two docs)
        n = len(df)
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for c in id_cols:
            v = df[c].to_numpy()
            change[1:] |= v[1:] != v[:-1]
        starts = np.nonzero(change)[0]
        counts = np.diff(np.append(starts, n))
        offsets = np.zeros(len(starts) + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        la = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(df["_para"].to_numpy(), pa.string())
        )
        texts = pc.binary_join(la, sep)
        heads = df.iloc[starts]
        cols = {}
        for name, typ in out_fields or []:
            if name == text_col:
                cols[name] = texts
            elif recount_col is not None and name == recount_col:
                cols[name] = pc.utf8_length(texts).cast(typ)
            else:
                cols[name] = pa.array(heads[name].to_numpy(), typ)
        return pa.table(cols)

    return hash_exchange(winners, "_d1", num_buckets, reassemble)
