"""Traced pipelines: the CLI's compositions rebuilt from the layers' public
functions, with one span around each layer call.

Spans record (name, start, end, parent, run id) in memory and are written
once, by ``Tracer.dump``, when the worker ends. A layer's self time is its
span minus the part of it that child spans cover; every layer span here is a
leaf under one ``pipeline`` root per traced pass. Each layer's result is
materialized inside its span, so lazy Ray Data work is charged to the layer
that owns it (the CLI fuses some of it across layers; ``trace.overhead_s``
shows what that costs).

Folds, where a layer has no public entry point of its own:

* ``stages.minhash.candidates`` is ``dedup_edges_minhash`` fed the
  materialized band rows (``extra_band_rows=``, ``sign_pages=`` an empty
  selection). It covers the LSH exchange, the edge-dedup exchange, the
  endpoint index and verify scoring. ``stages.minhash.lsh`` is timed on its
  own as a probe span outside the ``pipeline`` root, so it is not counted
  twice in ``trace.layers_sum_s``.
* ``stages.dedup_exact`` is ``dedup_exact`` (drop ids + keep filter); its
  drop set is not materialized on its own, so ``state.checkpoint`` covers
  the edge and label checkpoints of the checkpointed MinHash path.
* The MinHash path reads the full page columns once, where the CLI reads a
  slim projection first and the payload again at the sink.

``stages.simhash`` is timed in two places: inside the ``crawl_simhash``
pipeline, and as a probe span outside the ``pipeline`` root of the
``crawl_minhash`` pass, over its quarantined pages, so the gated workloads
measure the SimHash layer without a CLI workload of its own.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

PAGE_ORDER = ("warc_ts", "url")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "run": self.run_id, "parent": self._stack[-1] if self._stack else None,
               "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _write_parquet(ds, path: str) -> int:
    import pyarrow.dataset as pads

    ds.write_parquet(path)
    return pads.dataset(path, format="parquet").count_rows()


def _simhash_edges(ds):
    """``--compare-seq tail-hamming --simhash-parity``, as the CLI maps it."""
    from fastq_dupaway_ray.stages.simhash import simhash_candidate_edges

    return simhash_candidate_edges(
        ds, distance=8, order_cols=PAGE_ORDER, feature="char", shingle_k=6,
        length_bucket=True, dense_limit=256,
    ).materialize()


def _crawl_minhash(tr: Tracer, job: dict, out: str) -> None:
    import ray

    from fastq_dupaway_ray.functions.sketches import MinHashParams
    from fastq_dupaway_ray.sources.pages import read_pages, split_quarantine
    from fastq_dupaway_ray.stages.components import connected_components
    from fastq_dupaway_ray.stages.dedup_exact import dedup_exact
    from fastq_dupaway_ray.stages.minhash import (
        dedup_edges_minhash,
        lsh_candidate_edges,
        sign_and_band,
    )
    from fastq_dupaway_ray.stages.representative import apply_cluster_labels
    from fastq_dupaway_ray.state.checkpoint import checkpoint, fingerprint

    params = MinHashParams()
    ckpt = os.path.join(out, "ckpt")
    with tr.span("pipeline"):
        with tr.span("sources.pages") as c:
            raw = read_pages(job["input"])
            total = raw.count()
            good = split_quarantine(raw)[0].materialize()
            c["rows_out"] = good.count()
            c["quarantined"] = total - c["rows_out"]
        with tr.span("stages.dedup_exact") as c:
            exact_full = dedup_exact(good, key_cols=("text",),
                                     order_cols=PAGE_ORDER).materialize()
            c["rows_in"] = good.count()
            c["drops"] = c["rows_in"] - exact_full.count()
        exact = exact_full.select_columns(["url", "warc_ts", "text"])
        with tr.span("stages.minhash.sign_band") as c:
            bands = exact.select_columns(["url", "text"]).map_batches(
                sign_and_band, batch_format="pyarrow", batch_size=2048,
                fn_kwargs={"params": params, "text_col": "text", "id_col": "url",
                           "order_cols": PAGE_ORDER, "numeric_ids": True},
            ).materialize()
            c["rows_in"] = exact.count()
            c["band_rows"] = bands.count()
            c["bytes_out"] = bands.size_bytes()
        with tr.span("stages.minhash.candidates") as c:
            vout: dict = {}
            edges = dedup_edges_minhash(
                exact, params=params, verify=True, out=vout, emit="numeric",
                sign_pages=exact.limit(0), extra_band_rows=bands,
            ).materialize()
            c["edges_out"] = edges.count()
            c["bytes_out"] = edges.size_bytes()
        with tr.span("state.checkpoint") as c:
            edges = checkpoint(edges, ckpt, "edges", fingerprint("edges", tr.run_id))
            c["rows"] = edges.count()
        with tr.span("stages.components") as c:
            labels = connected_components(edges).materialize()
            c["edges_in"] = edges.count()
            c["labels"] = labels.count()
        with tr.span("state.checkpoint") as c:
            labels = checkpoint(labels, ckpt, "labels", fingerprint("labels", tr.run_id))
            c["rows"] = labels.count()
        with tr.span("stages.representative") as c:
            rctr: dict = {}
            kept, clusters = apply_cluster_labels(
                exact, labels, payload=exact_full, counters=rctr,
                member_attrs=(vout["index_shards"], vout["attr_cols"])
                if "index_shards" in vout else None,
            )
            clusters = clusters.materialize()
            c["near_drops"] = rctr["near_drops"]
        with tr.span("sink.parquet") as c:
            c["rows"] = (_write_parquet(kept, os.path.join(out, "kept"))
                         + _write_parquet(clusters, os.path.join(out, "kept.clusters")))
    # probe outside the pipeline root: the LSH exchange alone, on the same
    # band rows (candidates re-runs it internally)
    ncpu = int(ray.cluster_resources().get("CPU", 1))
    with tr.span("stages.minhash.lsh") as c:
        raw_edges = lsh_candidate_edges(
            bands, max_bucket=256, emit_edge_bucket=max(8, min(ncpu * 2, 32)),
            numeric_ids=True,
        ).materialize()
        c["raw_edges"] = raw_edges.count()
    # bucket skew, counted outside the span from the band rows themselves
    import pyarrow as pa
    import pyarrow.compute as pc

    keys = pa.concat_tables(ray.get(bands.select_columns(["band_key"]).to_arrow_refs()))
    counts = pc.value_counts(keys["band_key"]).field("counts")
    c["max_bucket_rows"] = int(pc.max(counts).as_py() or 0)
    # probe outside the pipeline root: the SimHash signer and edge pass
    with tr.span("stages.simhash") as c:
        c["edges_out"] = _simhash_edges(good).count()


def _crawl_simhash(tr: Tracer, job: dict, out: str) -> None:
    from fastq_dupaway_ray.sources.pages import read_pages
    from fastq_dupaway_ray.stages.components import connected_components
    from fastq_dupaway_ray.stages.representative import apply_cluster_labels

    with tr.span("pipeline"):
        with tr.span("sources.pages") as c:
            # the CLI's non-checkpointed path reads without quarantine
            ds = read_pages(job["input"]).materialize()
            c["rows_out"] = ds.count()
            c["quarantined"] = 0
        with tr.span("stages.simhash") as c:
            edges = _simhash_edges(ds)
            c["edges_out"] = edges.count()
        with tr.span("stages.components") as c:
            labels = connected_components(edges).materialize()
            c["edges_in"] = edges.count()
            c["labels"] = labels.count()
        with tr.span("stages.representative") as c:
            rctr: dict = {}
            kept, clusters = apply_cluster_labels(
                ds.select_columns(["url", "warc_ts"]), labels, payload=ds, counters=rctr,
            )
            clusters = clusters.materialize()
            c["near_drops"] = rctr["near_drops"]
        with tr.span("sink.parquet") as c:
            c["rows"] = (_write_parquet(kept, os.path.join(out, "kept"))
                         + _write_parquet(clusters, os.path.join(out, "kept.clusters")))


def _reads_exact(tr: Tracer, job: dict, out: str) -> None:
    from fastq_dupaway_ray.sources.fastx import (
        read_fastx,
        write_clusters_reference_format,
        write_fastx,
    )
    from fastq_dupaway_ray.stages.dedup_exact import dedup_exact, dedup_exact_clusters

    with tr.span("pipeline"):
        with tr.span("sources.fastx.read") as c:
            raw = read_fastx(job["input"]).materialize()
            ds = raw.map_batches(lambda t: t.filter(t["_valid"]).drop_columns(["_valid"]),
                                 batch_format="pyarrow").materialize()
            c["records"] = raw.count()
            c["malformed"] = c["records"] - ds.count()
        with tr.span("stages.dedup_exact") as c:
            kept = dedup_exact(ds, key_cols=("text",), order_cols=PAGE_ORDER).materialize()
            clusters = dedup_exact_clusters(ds, key_cols=("text",),
                                            order_cols=PAGE_ORDER).materialize()
            c["rows_in"] = ds.count()
            c["drops"] = c["rows_in"] - kept.count()
        with tr.span("sources.fastx.sink") as c:
            path = os.path.join(out, "kept.fastq")
            c["records"] = write_fastx(kept, path)
            write_clusters_reference_format(clusters, path + ".clusters", fmt="fastq")


TRACED = {"crawl_minhash": _crawl_minhash, "crawl_simhash": _crawl_simhash,
          "reads_exact": _reads_exact}


def traced_pass(tr: Tracer, job: dict, out: str) -> dict:
    t0 = time.perf_counter()
    TRACED[job["workload"]](tr, job, out)
    tr.run_id += 1
    return {"s": time.perf_counter() - t0, "rc": 0, "error": None}
