"""Metric catalogue: every name the benchmark prints, with its unit.

``END_TO_END`` are printed with ``--trace 0``; ``PER_LAYER`` with
``--trace 1``. ``LAYERS`` records, for each layer, which end-to-end metric it
should move and on which workloads the layer does work (on the others it
prints 0: the layer is not on that workload's path).
``BENCHMARK.json`` at the repository root lists the same names; a test keeps
the two in step.
"""

from __future__ import annotations

import re

END_TO_END = {
    "job_s": "s",
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_driver_rss_mb": "MB",
    "exact_dup_recall": "ratio",
    "dup_recall": "ratio",
    "merge_precision": "ratio",
    "ok_frac": "ratio",
}

# layer -> ({suffix: unit}, moves, on)
LAYERS = {
    "sources.pages": ({"s": "s", "rows_out": "count", "quarantined": "count"},
                      "job_s", "crawl_minhash crawl_simhash"),
    "sources.fastx.read": ({"s": "s", "records": "count", "malformed": "count"},
                           "job_s", "reads_exact"),
    "stages.dedup_exact": ({"s": "s", "rows_in": "count", "drops": "count"},
                           "job_s", "reads_exact crawl_minhash"),
    "stages.minhash.sign_band": ({"s": "s", "rows_in": "count", "band_rows": "count",
                                  "bytes_out": "B"}, "job_s docs_per_s", "crawl_minhash"),
    "stages.minhash.lsh": ({"s": "s", "raw_edges": "count", "max_bucket_rows": "count"},
                           "job_s via stages.minhash.candidates.s", "crawl_minhash"),
    "stages.minhash.candidates": ({"s": "s", "edges_out": "count", "bytes_out": "B",
                                   "edge_yield": "ratio"}, "job_s", "crawl_minhash"),
    "stages.simhash": ({"s": "s", "edges_out": "count"}, "job_s",
                       "crawl_simhash crawl_minhash (probe)"),
    "stages.components": ({"s": "s", "edges_in": "count", "labels": "count"},
                          "job_s", "crawl_minhash crawl_simhash"),
    "stages.representative": ({"s": "s", "near_drops": "count"},
                              "job_s", "crawl_minhash crawl_simhash"),
    "state.checkpoint": ({"s": "s", "rows": "count"}, "job_s", "crawl_minhash"),
    "sink.parquet": ({"s": "s", "rows": "count"}, "job_s", "crawl_minhash crawl_simhash"),
    "sources.fastx.sink": ({"s": "s", "records": "count"},
                           "job_s peak_driver_rss_mb", "reads_exact"),
    "trace": ({"layers_sum_s": "s", "unattributed_frac": "ratio", "overhead_s": "s"},
              "none", "crawl_minhash reads_exact crawl_simhash"),
}

PER_LAYER = {f"{layer}.{k}": unit for layer, (ms, _, _) in LAYERS.items() for k, unit in ms.items()}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
