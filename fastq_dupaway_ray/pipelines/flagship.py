"""The flagship pipeline: full web-page near-dedup with checkpoints + metrics.

``run_dedup`` in MinHash mode over a pages path (``pipelines.dedup`` holds
the one composition: pruned read -> quarantine -> exact keep-first gate ->
numeric MinHash/LSH edges + verify -> components -> representatives), plus
resumable output sinks.

Optionally checkpointed per stage under ``ckpt_root``: re-running with the
same inputs and config resumes after the last complete slim stage (exact /
edges / labels) and replays only the streaming filter passes, which read
from the durable input anyway. ``out_dir`` writes the kept pages, the
clusters and ``metrics.json`` through the same manifest machinery, so a
finished sink is skipped on re-run.
"""

from __future__ import annotations

import json
import os

from ..functions.sketches import MinHashParams
from ..state.checkpoint import checkpoint, fingerprint, input_identity
from .dedup import DedupConfig, run_dedup


def run_flagship(
    pages_path: str,
    out_dir: str | None = None,
    ckpt_root: str | None = None,
    params: MinHashParams = MinHashParams(),
    threshold: float | None = None,
):
    """Returns (kept: Dataset [lazy], clusters: Dataset, metrics: dict).

    ``metrics`` is ``run_dedup``'s counter dict (the --verbose surface, A7)
    plus ``input``. The kept (url, warc_ts) set is the same on every limb of
    the exact gate — keep-first winners are a data property, not an
    execution-path property."""
    cfg = DedupConfig(mode="minhash", minhash=params, threshold=threshold)
    out = run_dedup(pages_path, cfg, ckpt_root)
    kept, clusters = out.kept, out.clusters.materialize()
    metrics = {"input": pages_path, **out.metrics}
    if out_dir:
        # final sinks go through the same manifest machinery as stage
        # checkpoints: per-partition row counts, atomic rename, and
        # skip-if-complete on re-run (resumable output, north rule) — this is
        # the ONE pass that reads the full-column payload
        fp = fingerprint("kept", cfg, pages_path, input_identity(pages_path))
        kept = checkpoint(kept, out_dir, "kept", fp)
        clusters = checkpoint(clusters, out_dir, "clusters", fingerprint("clusters", fp))
        with open(os.path.join(out_dir, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=1)
    return kept, clusters, metrics
