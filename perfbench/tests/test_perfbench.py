"""Tests for the benchmark's own code (no Ray session needed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import truth  # noqa: E402

SMALL_CRAWL = gen.CrawlSpec(n_base=60, hot_class_sizes=(12,), tail_class_sizes=(3, 2),
                            malformed=4, shards=2)
SMALL_READS = gen.ReadsSpec(n_reads=300, malformed=3)


def test_crawl_generator_is_deterministic_per_seed():
    a, ta = gen.build_crawl(SMALL_CRAWL, 3)
    b, tb = gen.build_crawl(SMALL_CRAWL, 3)
    c, _ = gen.build_crawl(SMALL_CRAWL, 4)
    assert a.equals(b) and ta.equals(tb)
    assert not a.equals(c)


def test_reads_generator_is_deterministic_per_seed():
    a, ta = gen.build_reads(SMALL_READS, 7)
    b, tb = gen.build_reads(SMALL_READS, 7)
    c, _ = gen.build_reads(SMALL_READS, 8)
    assert a == b and ta.equals(tb)
    assert a != c
    kinds = ta["kind"].to_pylist()
    assert kinds.count("malformed") == SMALL_READS.malformed
    assert "exact" in kinds


def test_crawl_truth_plants_every_class():
    table, tr = gen.build_crawl(SMALL_CRAWL, 5)
    kinds = set(tr["kind"].to_pylist())
    assert {"base", "exact", "near", "prefix", "ham", "malformed"} <= kinds
    texts = table["text"].to_pylist()
    urls = table["url"].to_pylist()
    assert None in texts and "" in urls


def test_cache_entry_is_sealed_and_rebuilt_when_damaged(tmp_path):
    calls = []

    def extra(entry, meta):
        calls.append(entry)
        with open(os.path.join(entry, "gt.json"), "w") as f:
            f.write("{}")
        return {"extra": True}

    root = str(tmp_path)
    entry, meta = gen.ensure_inputs(root, "w", "reads", SMALL_READS, 1, extra=extra)
    assert meta["extra"] and meta["rows"] == SMALL_READS.n_reads
    assert os.listdir(root) == [os.path.basename(entry)]  # no temp dir left
    again, _ = gen.ensure_inputs(root, "w", "reads", SMALL_READS, 1, extra=extra)
    assert again == entry and len(calls) == 1  # reused, not rebuilt
    with open(os.path.join(entry, "reads.fastq"), "ab") as f:
        f.write(b"@torn")  # a damaged entry
    with open(os.path.join(entry, "reads.fastq"), "rb") as f:
        assert f.read().endswith(b"@torn")
    gen.ensure_inputs(root, "w", "reads", SMALL_READS, 1, extra=extra)
    assert len(calls) == 2
    with open(os.path.join(entry, "reads.fastq"), "rb") as f:
        assert not f.read().endswith(b"@torn")
    os.remove(os.path.join(entry, gen.MANIFEST))  # a crash before sealing
    gen.ensure_inputs(root, "w", "reads", SMALL_READS, 1, extra=extra)
    assert len(calls) == 3


# ---- pair scoring on hand-built cluster tables ----

BASE = {"a": 1, "a2": 1, "a3": 1, "b": 2, "b2": 2, "c": 3}


def test_score_empty():
    q = truth.score_pairs({}, {}, [], [])
    assert q == {"exact_dup_recall": 1.0, "dup_recall": 1.0, "merge_precision": 1.0}


def test_score_singletons_only():
    rep = {u: u for u in BASE}
    q = truth.score_pairs(rep, BASE, [("a", "a2"), ("a", "a3"), ("b", "b2")], [("a", "a2")])
    assert q == {"exact_dup_recall": 0.0, "dup_recall": 0.0, "merge_precision": 1.0}


def test_score_everything_merged():
    rep = {u: "a" for u in BASE}
    q = truth.score_pairs(rep, BASE, [("a", "a2"), ("b", "b2")], [("a", "a3")])
    assert q["exact_dup_recall"] == 1.0 and q["dup_recall"] == 1.0
    # 15 merged pairs, of which a-a2-a3 (3) and b-b2 (1) share a base
    assert q["merge_precision"] == pytest.approx(4 / 15)


def test_score_partial():
    rep = {"a": "a", "a2": "a", "a3": "a3", "b": "b", "b2": "b", "c": "c"}
    q = truth.score_pairs(rep, BASE, [("a", "a2"), ("a", "a3"), ("b", "b2")], [("a", "a2")])
    assert q["dup_recall"] == pytest.approx(2 / 3)
    assert q["merge_precision"] == 1.0


def test_check_clusters():
    order = {"a": (1, "a"), "a2": (2, "a2"), "b": (0, "b")}
    rep = truth._check_clusters([("a", "a", True), ("a", "a2", False)], {"a"}, order)
    assert rep == {"a": "a", "a2": "a"}
    with pytest.raises(truth.CheckFailed, match="representatives"):
        truth._check_clusters([("a", "a", True), ("a", "a2", True)], {"a", "a2"}, order)
    with pytest.raises(truth.CheckFailed, match="keep-first"):
        truth._check_clusters([("a", "a", True), ("a", "b", False)], {"a"}, order)
    with pytest.raises(truth.CheckFailed, match="missing"):
        truth._check_clusters([("a", "a", True), ("a", "a2", False)], set(), order)
    # rows sharing an id are one document: listed once per row, counted once
    conflated = [("", "", True), ("", "", True), ("", "a2", False)]
    assert truth._check_clusters(conflated, {""}, order) == {"": "", "a2": ""}
    with pytest.raises(truth.CheckFailed, match="is and is not"):
        truth._check_clusters([("a", "a", True), ("a", "a", False)], {"a"}, order)


def test_jaccard():
    assert truth.jaccard("abcdefghij", "abcdefghij") == 1.0
    assert truth.jaccard("abcdefghij", "zzzzzzzzzz") == 0.0


# ---- traced layer metrics ----

def test_layer_metrics_self_time_and_attribution():
    def span(i, name, start, end, parent, counts=None):
        return {"name": name, "run": 0, "parent": parent, "start": start, "end": end,
                "counts": counts or {}}

    spans = [
        span(0, "pipeline", 0.0, 10.0, None),
        span(1, "sources.pages", 0.0, 2.0, 0, {"rows_out": 5, "quarantined": 1}),
        span(2, "state.checkpoint", 2.0, 3.0, 0, {"rows": 4}),
        span(3, "state.checkpoint", 3.0, 4.5, 0, {"rows": 6}),
        span(4, "stages.components", 4.5, 9.5, 0, {"edges_in": 7, "labels": 3}),
        span(5, "stages.minhash.lsh", 11.0, 12.0, None, {"raw_edges": 20}),
    ]
    m = run.layer_metrics(spans, job_s=8.0)
    assert set(m) == set(metrics.PER_LAYER)
    assert m["state.checkpoint.s"] == pytest.approx(2.5)
    assert m["state.checkpoint.rows"] == 10
    assert m["trace.layers_sum_s"] == pytest.approx(9.5)
    assert m["trace.unattributed_frac"] == pytest.approx(0.05)
    assert m["trace.overhead_s"] == pytest.approx(2.0)
    assert m["stages.minhash.lsh.s"] == pytest.approx(1.0)
    assert m["stages.simhash.s"] == 0.0  # not on this path


# ---- metric names ----

def test_metric_names_are_valid():
    for name in [*metrics.END_TO_END, *metrics.PER_LAYER]:
        assert metrics.NAME_RE.match(name), name


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    for m in bench["end_to_end"]:
        assert m["unit"] == metrics.END_TO_END[m["name"]]
    for m in bench["per_layer"]:
        assert m["unit"] == metrics.PER_LAYER[m["name"]]
    assert sorted([w["name"] for w in bench["workloads"]] + list(run.BY_HAND)) == sorted(
        run.WORKLOADS)
    assert bench["paths"] == ["perfbench"]
