"""Corpus-trained unigram LM scoring — the CCNet-style quality signal.

CCNet ranks web documents by language-model perplexity; the self-trained
unigram form (score = mean ln p(token), p from the corpus's own token
frequencies) is its dependency-free core and a standard training-data
quality feature alongside the rule-based ratios in
``functions.textstats.quality_features``.

Two passes, both shuffle-light:

1. **Vocabulary.** A per-batch combiner emits (token, partial count) rows —
   each batch ships its DISTINCT tokens once, not its token stream. A
   token-owned bucket exchange (same shape as ``doc_frequency``) sums
   partials; the driver collects the vocab bounded by ``vocab_budget``
   (loud raise beyond — web-scale corpora hold billions of distinct
   "tokens", so the 100-TB path sets ``top_vocab``: keep the V most
   frequent tokens, pool the rest into one OOV mass, SentencePiece-style).
2. **Scoring.** The (token -> logprob) table broadcasts once (``ray.put`` +
   once-per-worker dict build); each batch splits, looks up, and means per
   doc with ``np.add.reduceat`` — the corpus streams through exactly once.

Generalizes the reference's per-record validation scoring hook (SURVEY.md
M9) into a statistical quality score. Documents with zero tokens are
dropped from the output (they have no defined mean logprob — the SQL
window form behaves identically).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..util import round_half_away


def unigram_logprob_scores(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_cols=("doc_id",),
    top_vocab: int | None = None,
    vocab_budget: int = 20_000_000,
    round_digits: int | None = 6,
) -> ray.data.Dataset:
    """(id_cols..., logprob): mean unigram log-probability per document.

    Tokenization is whitespace split of the trimmed text (the repo's
    SQL-parity convention, ``regexp_split_to_array(trim(text), '\\s+')``).
    ``top_vocab=None`` keeps the full vocabulary (exact, oracle-checked);
    an integer keeps the V most frequent tokens (count-desc, token-asc
    tiebreak) and scores the rest with one pooled OOV probability.
    """
    from .exchange import default_shuffle_buckets, fetch_cached, hash_exchange

    id_cols = list(id_cols)
    B = default_shuffle_buckets()

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        if len(df):
            # null texts tokenize as empty (str.split leaves NaN, which
            # np.concatenate chokes on and lens-masking mishandles)
            toks = df[text_col].fillna("").str.split()
            flat = (
                np.concatenate(toks.to_numpy()).astype(object)
                if toks.str.len().sum()
                else np.array([], dtype=object)
            )
            cnt = pd.Series(flat).value_counts()
        else:
            cnt = pd.Series([], dtype=np.int64)
        out = pd.DataFrame({"token": cnt.index.astype(object), "c": cnt.to_numpy()})
        out["_bkt"] = (
            pd.util.hash_array(out["token"].to_numpy(dtype=object)) % np.uint64(B)
        ).astype(np.int64)
        return out

    def merge_counts(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            return pa.table(
                {"token": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
            )
        agg = pa.TableGroupBy(t.select(["token", "c"]), "token").aggregate([("c", "sum")])
        return agg.rename_columns(["token", "c"])

    slim = ds.select_columns([text_col]).map_batches(partial_counts, batch_format="pandas")
    vocab_ds = hash_exchange(slim, "_bkt", B, merge_counts)
    tabs = [t for t in ray.get(vocab_ds.to_arrow_refs()) if t.num_rows > 0]
    if not tabs:
        empty = {c: pa.array([], pa.int64()) for c in id_cols}
        empty["logprob"] = pa.array([], pa.float64())
        return ray.data.from_arrow(pa.table(empty))
    vocab = pa.concat_tables(tabs)
    if vocab.num_rows > vocab_budget:
        raise ValueError(
            f"unigram_logprob_scores: {vocab.num_rows} distinct tokens exceeds "
            f"vocab_budget={vocab_budget}; set top_vocab to cap the table "
            "(OOV-pooled) or raise the budget"
        )
    vdf = vocab.to_pandas()
    total = int(vdf["c"].sum())
    oov_logp = None
    if top_vocab is not None and len(vdf) > top_vocab:
        vdf = vdf.sort_values(["c", "token"], ascending=[False, True], kind="mergesort")
        head = vdf.head(top_vocab)
        oov_mass = total - int(head["c"].sum())
        oov_logp = math.log(max(oov_mass, 1) / total)
        vdf = head
    logp = np.log(vdf["c"].to_numpy(dtype=np.float64) / total)
    ref = ray.put(
        (
            pa.array(vdf["token"].to_numpy(dtype=object), pa.string()),
            pa.array(logp, pa.float64()),
            oov_logp,
        )
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        def build(payload):
            toks, lps, oov = payload
            return (
                dict(zip(toks.to_pylist(), lps.to_numpy(zero_copy_only=False))),
                oov,
            )

        table, oov = fetch_cached(ref, build)
        if not len(df):
            out = {c: df[c] for c in id_cols}
            out["logprob"] = pd.Series([], dtype=np.float64)
            return pd.DataFrame(out)
        toks = df[text_col].fillna("").str.split()
        lens = toks.str.len().to_numpy()
        nz = lens > 0
        flat = (
            np.concatenate(toks.to_numpy()[nz]).astype(object)
            if nz.any()
            else np.array([], dtype=object)
        )
        vals = pd.Series(flat).map(table)
        if oov is not None:
            vals = vals.fillna(oov)
        v = vals.to_numpy(dtype=np.float64)
        seg = np.concatenate([[0], np.cumsum(lens[nz])[:-1]]).astype(np.int64)
        means = np.add.reduceat(v, seg) / lens[nz] if len(v) else np.empty(0)
        if round_digits is not None:
            means = round_half_away(means, round_digits)
        out = {c: df[c].to_numpy()[nz] for c in id_cols}
        out["logprob"] = means
        return pd.DataFrame(out)

    return ds.select_columns([*id_cols, text_col]).map_batches(score, batch_format="pandas")
