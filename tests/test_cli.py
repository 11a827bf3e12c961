"""CLI surface mirroring the reference's flags (main.cpp:43-96), run in-process
against the shared Ray session."""

import json
import os

import pyarrow.parquet as pq
import pytest

from fastq_dupaway_ray.__main__ import main


@pytest.fixture()
def paths(pages_corpus, tmp_path):
    src, _ = pages_corpus
    return src, str(tmp_path / "out")


def test_cli_fast_mode(paths, capsys, ray_session):
    src, out = paths
    assert main(["-i", src, "-o", out, "--fast", "--verbose"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert metrics["mode"] == "exact"
    assert metrics["kept"] + metrics["duplicates"] == metrics["total"]
    t = pq.read_table(out)
    assert t.num_rows == metrics["kept"]


def test_cli_loose_with_clusters(paths, ray_session):
    src, out = paths
    assert main(["-i", src, "-o", out, "--compare-seq", "loose", "--write-clusters"]) == 0
    clusters = pq.read_table(out.rstrip("/") + ".clusters")
    assert {"cluster_id", "member", "is_representative"} <= set(clusters.column_names)


# the reference's five paired --fast --unordered id-join scenarios
# (/root/reference/test/test_unordered.py:10-48): same id-overlap structures,
# texts planted so composite (left, right) duplicates exist; expected output
# derives from the serial reference model (join then keep-first dedup).
UNORDERED_SCENARIOS = {
    "shuffled": (list(range(1, 11)), [4, 7, 5, 2, 3, 1, 6, 10, 8, 9]),
    "skewed": (list(range(1, 11)), list(range(4, 11))),
    "deletion": ([1, 2, 3, 7, 8, 9, 10], list(range(1, 11))),
    "interleaved": ([1, 2, 3, 8, 9, 10], [3, 4, 5, 6, 7, 8]),
    "not_overlapped": ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]),
}


def _pages_table(ids, side):
    import datetime

    import pyarrow as pa

    epoch = datetime.datetime(2025, 1, 1)
    urls = [f"{i:04d}" for i in ids]
    # planted composite duplicates: text depends only on id % 4 / id % 3
    texts = [f"{side}{i % 4}" if side == "L" else f"{side}{i % 3}" for i in ids]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(
                [epoch + datetime.timedelta(seconds=i) for i in ids], pa.timestamp("us")
            ),
            "html": pa.array([t.encode() for t in texts], pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids), pa.string()),
        }
    )


def _read_kept_urls(out_dir):
    import glob

    files = glob.glob(os.path.join(out_dir, "*.parquet"))
    if not files:
        return []
    return sorted(pq.read_table(out_dir)["url"].to_pylist())


@pytest.mark.parametrize("scenario", sorted(UNORDERED_SCENARIOS))
def test_cli_paired_unordered(tmp_path, scenario, ray_session):
    from fastq_dupaway_ray import refmodel

    lids, rids = UNORDERED_SCENARIOS[scenario]
    in1, in2 = str(tmp_path / "in1"), str(tmp_path / "in2")
    out1, out2 = str(tmp_path / "out1"), str(tmp_path / "out2")
    lt, rt = _pages_table(lids, "L"), _pages_table(rids, "R")
    for d, t in ((in1, lt), (in2, rt)):
        os.makedirs(d)
        pq.write_table(t, os.path.join(d, "part-0.parquet"))

    assert main(["-i", in1, "-u", in2, "-o", out1, "-p", out2, "--fast", "--unordered"]) == 0

    # expected: inner join on url, then composite keep-first in id order
    lrows = lt.to_pylist()
    rrows = rt.to_pylist()
    pairs, _unmatched = refmodel.join_unordered(lrows, rrows, key="url")
    joined = [
        {"url": l["url"], "warc_ts_l": l["warc_ts"], "text_l": l["text"], "text_r": r["text"]}
        for l, r in pairs
    ]
    ref = refmodel.dedup_hash(
        joined, keys=("text_l", "text_r"), key="url", order=lambda r: (r["warc_ts_l"], r["url"])
    )
    want = sorted(r["url"] for r in ref.kept)

    got1 = _read_kept_urls(out1)
    got2 = _read_kept_urls(out2)
    assert got1 == want, f"{scenario}: left sink mismatch"
    assert got2 == want, f"{scenario}: right sink mismatch"
    if got1:
        t1 = pq.read_table(out1)
        # projection back to the original page schema (no suffixes)
        assert {"url", "warc_ts", "html", "text", "lang"} <= set(t1.column_names)
        # left sink carries LEFT texts, right sink RIGHT texts
        by_url = {r["url"]: r["text"] for r in lt.to_pylist()}
        for u, txt in zip(t1["url"].to_pylist(), t1["text"].to_pylist()):
            assert txt == by_url[u]


def test_cli_paired_seq_loose(tmp_path, ray_session):
    """Paired sequence-based mode end-to-end (reference EP3): loose both-mates
    dedup via the CLI against the serial paired reference model."""
    import datetime

    import pyarrow as pa

    from fastq_dupaway_ray import refmodel

    epoch = datetime.datetime(2025, 1, 1)
    # prefix chains on both mates + divergent pairs
    pairs = [
        ("abcd", "xy"), ("abcd", "xyz"), ("abcdef", "xyzw"), ("abXd", "xy"),
        ("qq", "mm"), ("qq", "mn"), ("qqr", "mmn"),
    ]
    ids = list(range(1, len(pairs) + 1))

    def side_table(texts):
        return pa.table(
            {
                "url": pa.array([f"{i:04d}" for i in ids], pa.string()),
                "warc_ts": pa.array(
                    [epoch + datetime.timedelta(seconds=i) for i in ids], pa.timestamp("us")
                ),
                "html": pa.array([t.encode() for t in texts], pa.binary()),
                "text": pa.array(list(texts), pa.string()),
                "lang": pa.array(["en"] * len(ids), pa.string()),
            }
        )

    in1, in2 = str(tmp_path / "in1"), str(tmp_path / "in2")
    out1, out2 = str(tmp_path / "out1"), str(tmp_path / "out2")
    for d, t in ((in1, side_table([p[0] for p in pairs])), (in2, side_table([p[1] for p in pairs]))):
        os.makedirs(d)
        pq.write_table(t, os.path.join(d, "part-0.parquet"))

    assert main(["-i", in1, "-u", in2, "-o", out1, "-p", out2, "--compare-seq", "loose"]) == 0

    rows = [
        {"url": f"{i:04d}", "warc_ts": i, "text_1": a, "text_2": b}
        for i, (a, b) in zip(ids, pairs)
    ]
    ref = refmodel.dedup_sorted_paired(rows, mode="loose", order=lambda r: (r["warc_ts"], r["url"]))
    want = sorted(r["url"] for r in ref.kept)
    assert _read_kept_urls(out1) == want
    assert _read_kept_urls(out2) == want


def test_cli_flag_validation(paths, ray_session):
    src, out = paths
    # reference errors reproduced (main.cpp:154,161-163,143)
    assert main(["-i", src, "-o", out, "--fast", "--compare-seq", "loose"]) == 2
    assert main(["-i", src, "-o", out, "--unordered"]) == 2
    assert main(["-i", src, "-o", out, "--fast", "-m", "100"]) == 2


def test_cli_checkpointed_minhash_resume(pages_corpus, tmp_path, ray_session):
    """--checkpoint-root with --minhash runs the checkpointed flagship; a
    second run resumes from the manifests (same output, stages skipped)."""
    src, _ = pages_corpus
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    ck = str(tmp_path / "ck")
    assert main(["-i", src, "-o", out1, "--minhash", "--checkpoint-root", ck]) == 0
    assert os.path.exists(os.path.join(ck, "exact", "_MANIFEST.json"))
    assert main(["-i", src, "-o", out2, "--minhash", "--checkpoint-root", ck]) == 0
    t1, t2 = pq.read_table(out1), pq.read_table(out2)
    assert sorted(t1["url"].to_pylist()) == sorted(t2["url"].to_pylist())


def test_dedup_exact_integer_key(ray_session):
    """dedup_exact over a non-string (integer) key column — the identity
    length fold must not assume sized values."""
    import pandas as pd

    import ray.data as rd

    from fastq_dupaway_ray.stages.dedup_exact import dedup_exact

    rows = [{"url": f"u{i}", "warc_ts": i, "k": i % 5} for i in range(20)]
    kept = dedup_exact(
        rd.from_pandas(pd.DataFrame(rows)), key_cols=("k",), order_cols=("warc_ts", "url")
    ).to_pandas()
    assert sorted(kept["k"]) == [0, 1, 2, 3, 4]
    assert sorted(kept["url"]) == [f"u{i}" for i in range(5)]


def test_cli_paired_one_sided_column_survives(tmp_path, ray_session):
    """Advice r2: a column present on only ONE input side stays unsuffixed
    after the join (suffixes apply only to clashing names) and must survive
    into both sinks under its original name, not be silently dropped."""
    lids, rids = [1, 2, 3, 4, 5], [1, 2, 3, 4, 5]
    in1, in2 = str(tmp_path / "in1"), str(tmp_path / "in2")
    out1, out2 = str(tmp_path / "out1"), str(tmp_path / "out2")
    lt = _pages_table(lids, "L")
    lt = lt.append_column("crawl_batch", [["b0"] * lt.num_rows])
    rt = _pages_table(rids, "R")
    for d, t in ((in1, lt), (in2, rt)):
        os.makedirs(d)
        pq.write_table(t, os.path.join(d, "part-0.parquet"))
    assert main(["-i", in1, "-u", in2, "-o", out1, "-p", out2, "--fast", "--unordered"]) == 0
    t1, t2 = pq.read_table(out1), pq.read_table(out2)
    assert "crawl_batch" in t1.column_names
    assert "crawl_batch" in t2.column_names
    assert set(t1["crawl_batch"].to_pylist()) == {"b0"}


def test_cli_mem_limit_bounds(paths, capsys, ray_session):
    """--mem-limit outside [500, 10240] is rejected with the reference's
    error surface (/root/reference/src/main.cpp:136-144) before any work."""
    src, out = paths
    for bad in ("10", "499", "10241"):
        assert main(["-i", src, "-o", out, "--fast", "-m", bad]) == 2
        err = capsys.readouterr().err
        assert "unsupported range" in err and "--mem-limit" in err
    # boundary values are accepted
    assert main(["-i", src, "-o", out, "--fast", "-m", "500"]) == 0


def test_cli_simhash_parity_flag(paths, ray_session):
    """--compare-seq tail-hamming --simhash-parity selects the char-shingle
    length-bucketed SimHash config (the measured >=0.99-recall path)."""
    src, out = paths
    assert main(
        ["-i", src, "-o", out, "--compare-seq", "tail-hamming", "--simhash-parity"]
    ) == 0
    t = pq.read_table(out)
    assert t.num_rows > 0


def test_cli_simhash_parity_conflicts(paths, capsys, ray_session):
    src, out = paths
    for bad in (
        ["--fast", "--simhash-parity"],
        ["--compare-seq", "tail-hamming", "--exact-mirror", "--simhash-parity"],
        ["--compare-seq", "loose", "--simhash-parity"],
        # --minhash / --fast resolve the mode before --compare-seq does
        ["--minhash", "--compare-seq", "tail-hamming", "--simhash-parity"],
        ["--fast", "--compare-seq", "tail-hamming", "--simhash-parity"],
    ):
        assert main(["-i", src, "-o", out, *bad]) == 2
        assert "simhash-parity" in capsys.readouterr().err
