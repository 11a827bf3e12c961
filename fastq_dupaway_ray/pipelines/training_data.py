"""Composed training-data curation pipeline over a documents table.

The canonical LLM-corpus pass this engine exists for, assembled from the
stage library (each stage individually oracle-checked by the driver):

    read (pruned columns)
    -> quality filter          (functions.textstats: token/digit thresholds)
    -> language filter         (allowlist)
    -> run_dedup               (pipelines.dedup: exact keep-first, then
                                MinHash -> components -> representative)
    -> token accounting        (metrics: docs/tokens surviving each stage)

Everything streams; the only driver-side values are the per-stage counters
(the reference's --verbose summary generalized, A7)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.sketches import MinHashParams
from ..functions.textstats import quality_features
from .dedup import DedupConfig, run_dedup


def quality_language_filter(
    ds: ray.data.Dataset,
    min_tokens: int = 5,
    max_digit_ratio: float = 0.2,
    langs: tuple = ("en", "de", "fr", "es"),
) -> ray.data.Dataset:
    langs_set = set(langs)

    def f(t: pa.Table) -> pa.Table:
        if "n_chars" in t.column_names:  # quality_features recomputes it
            t = t.drop_columns(["n_chars"])
        q = quality_features(t)
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(q["n_tokens"], min_tokens),
                pc.less(q["digit_ratio"], max_digit_ratio),
            ),
            pc.is_in(q["lang"], value_set=pa.array(sorted(langs_set))),
        )
        return q.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow")


def run_training_data(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_tokens: int = 5,
    max_digit_ratio: float = 0.2,
    langs: tuple = ("en", "de", "fr", "es"),
    params: MinHashParams = MinHashParams(),
    near_dedup: bool = True,
):
    """Returns (kept: Dataset, metrics: dict)."""
    metrics = {"input": ds.count()}
    filtered = quality_language_filter(ds, min_tokens, max_digit_ratio, langs)
    out = run_dedup(
        filtered,
        DedupConfig(
            mode="minhash" if near_dedup else "exact",
            key_cols=(text_col,),
            id_col=id_col,
            text_col=text_col,
            order_cols=(id_col,),
            minhash=params,
            emit_clusters=False,
        ),
    )
    kept = out.kept.materialize()
    metrics["after_filter_and_exact"] = out.metrics["after_exact"]
    if near_dedup:
        metrics["near_dup_edges"] = out.metrics["candidate_edges"]
    metrics["kept"] = kept.count()
    metrics["total_tokens_kept"] = int(
        kept.map_batches(
            lambda t: pa.table({"n": t["n_tokens"]}), batch_format="pyarrow"
        ).sum("n")
        or 0
    )
    return kept, metrics
