"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in fastq_dupaway_ray) calls ``ray.init``/``ray.shutdown``.

``queries()`` exposes one entry per implemented operator/pipeline from
SURVEY.md §2 (+ the training-data extras); ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible one (same column names on both sides).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from fastq_dupaway_ray.queries import REGISTRY


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: pages-shaped near-dedup.

    documents lifted to the (url, warc_ts, html, text, lang) pages schema ->
    validate/quarantine -> ``run_dedup(mode="minhash")``: exact keep-first
    dedup -> MinHash/LSH near-dup -> connected components -> representative
    selection. Returns the kept pages.
    """
    import ray.data as rd

    from fastq_dupaway_ray.corpus import pages_from_documents
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup
    from fastq_dupaway_ray.sources.pages import split_quarantine

    table = pages_from_documents("/root/testdata/sf0.001")
    good, _bad = split_quarantine(rd.from_arrow(table))
    out = run_dedup(good, DedupConfig(mode="minhash"))
    return out.kept


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: fn for name, (fn, _sql) in REGISTRY.items()}


def oracle_sql() -> dict[str, str]:
    return {name: sql for name, (_fn, sql) in REGISTRY.items() if sql is not None}
