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


def test_cli_checkpointed_minhash_resume(pages_corpus, tmp_path, capsys, ray_session):
    """--checkpoint-root with --minhash checkpoints its slim stages; a
    second run resumes from the manifests. The resumed run has no verify
    index, so its representative stage attaches the cluster members by a
    scan — and writes the same kept rows and clusters and prints the same
    counters as the run that took them from the index."""
    src, _ = pages_corpus
    ck = str(tmp_path / "ck")
    argv = ["-i", src, "--minhash", "--checkpoint-root", ck]
    first = _cli_result(tmp_path, capsys, "o1", argv)
    manifests = {s: os.path.join(ck, s, "_MANIFEST.json") for s in ("exact", "edges", "labels")}
    written = {s: os.stat(p).st_mtime_ns for s, p in manifests.items()}
    resumed = _cli_result(tmp_path, capsys, "o2", argv)
    assert {s: os.stat(p).st_mtime_ns for s, p in manifests.items()} == written
    assert first[2]["near_dup_removed"] > 0
    assert resumed[:3] == first[:3]


def test_cli_checkpointed_minhash_execution_count(pages_corpus, tmp_path, capsys, ray_session, executions):
    """A warm ``--minhash --checkpoint-root --write-clusters`` pass runs at
    most 5 Ray Data executions: the exact drop set, the LSH band rows, the
    endpoint pick and the two sinks. Checkpoints are written by raw tasks,
    and the endpoint index reads no schema of its lazy input. A resume runs
    no more than 5 either."""
    src, _ = pages_corpus
    argv = ["-i", src, "--minhash", "--checkpoint-root", str(tmp_path / "ck")]
    executions.clear()
    warm = _cli_result(tmp_path, capsys, "warm", argv)
    assert len(executions) <= 5, executions
    executions.clear()
    resumed = _cli_result(tmp_path, capsys, "resumed", argv)
    assert len(executions) <= 5, executions
    assert resumed[:3] == warm[:3]


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


# every single-input CLI mode; the last one persists its stages
SINGLE_INPUT_MODES = {
    "fast": ["--fast"],
    "tight": [],
    "loose": ["--compare-seq", "loose"],
    "simhash": ["--compare-seq", "tail-hamming"],
    "hamming": ["--compare-seq", "tail-hamming", "--exact-mirror"],
    "minhash": ["--minhash"],
    "minhash_ckpt": ["--minhash", "--checkpoint-root", "{ckpt}"],
}
MALFORMED_URLS = {"", "bad/text/0", "bad/text/1", "bad/text/2"}


def _write_pages(path, rows):
    """One parquet part of (url, text) rows in arrival order: ``warc_ts``
    counts up by a second per row."""
    import datetime

    import pyarrow as pa

    epoch = datetime.datetime(2025, 1, 1)
    table = pa.table(
        {
            "url": pa.array([u for u, _ in rows], pa.string()),
            "warc_ts": pa.array(
                [epoch + datetime.timedelta(seconds=s) for s in range(len(rows))],
                pa.timestamp("us"),
            ),
            "html": pa.array([(t or "").encode() for _, t in rows], pa.binary()),
            "text": pa.array([t for _, t in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        }
    )
    os.makedirs(path)
    pq.write_table(table, os.path.join(path, "part-0.parquet"))
    return table.num_rows


def _malformed_pages(path, n_valid=12):
    """Valid rows with unique urls (exact copies and one-word edits planted)
    interleaved with 3 empty-url rows and 3 null-text rows."""
    words = [f"w{i}" for i in range(40)]
    base = [" ".join(words[i:] + words[:i]) for i in range(0, 40, 10)]
    rows = []
    for i in range(n_valid):
        text = base[i % len(base)]
        if i % 3 == 2:
            text = text.replace("w7", "x7")  # near copy
        rows.append((f"ok/{i}", text))
    for j in range(3):
        rows.insert(4 * j + 1, ("", base[j]))  # would dedup against valid rows
        rows.insert(4 * j + 3, (f"bad/text/{j}", None))
    return _write_pages(path, rows)


def _run_cli(argv, capsys):
    rc = main(argv)
    cap = capsys.readouterr()
    metrics = json.loads(cap.out.strip().splitlines()[-1]) if rc == 0 else None
    return rc, metrics, cap.err


def _written(path, columns=None):
    import glob

    import pyarrow as pa

    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    tabs = [pq.read_table(f, columns=columns) for f in files]
    return pa.concat_tables(tabs) if tabs else None


@pytest.mark.parametrize("n_valid", [12, 0], ids=["mixed", "all_malformed"])
@pytest.mark.parametrize("mode", sorted(SINGLE_INPUT_MODES))
def test_cli_every_mode_quarantines_malformed_rows(tmp_path, capsys, ray_session, mode, n_valid):
    """Each single-input mode reads through the quarantining reader: exit 0,
    ``total = quarantined + exact_dup_removed + near_dup_removed + kept``,
    as many rows written as ``kept`` and no malformed row in the kept output
    or the clusters."""
    src, out = str(tmp_path / "pages"), str(tmp_path / "out")
    total = _malformed_pages(src, n_valid)
    argv = [a.replace("{ckpt}", str(tmp_path / "ck")) for a in SINGLE_INPUT_MODES[mode]]
    rc, m, err = _run_cli(["-i", src, "-o", out, "--write-clusters", "--verbose", *argv], capsys)
    assert rc == 0, err
    assert m["total"] == total and m["quarantined"] == 6
    assert m["quarantined"] + m["exact_dup_removed"] + m["near_dup_removed"] + m["kept"] == total
    kept = _written(out, ["url"])
    assert (kept.num_rows if kept else 0) == m["kept"]
    assert not set(kept["url"].to_pylist() if kept else []) & MALFORMED_URLS
    clusters = _written(out + ".clusters")
    if clusters is not None:
        named = set(clusters["cluster_id"].to_pylist()) | set(clusters["member"].to_pylist())
        assert not named & MALFORMED_URLS
    if n_valid:
        assert 0 < m["kept"] < n_valid


def _cli_result(tmp_path, capsys, name, argv):
    out = str(tmp_path / name)
    rc, m, err = _run_cli(["-o", out, "--write-clusters", "--verbose", *argv], capsys)
    assert rc == 0, err
    def rows(t):
        return sorted(map(tuple, t.to_pandas().astype(str).values.tolist())) if t else []

    return rows(_written(out)), rows(_written(out + ".clusters")), m, err


def test_cli_one_composition_with_and_without_checkpoints(pages_corpus, tmp_path, capsys, ray_session):
    """``--minhash`` runs the same composition with or without
    ``--checkpoint-root`` (same kept rows, clusters and counters); a
    ``tail-hamming`` run on a root holding a ``--minhash`` checkpoint does
    not reuse it, because the fingerprints fold in the whole config."""
    from fastq_dupaway_ray.state.checkpoint import read_manifest

    src, _ = pages_corpus
    ck = str(tmp_path / "ck")
    plain = _cli_result(tmp_path, capsys, "plain", ["-i", src, "--minhash"])
    ckpt = _cli_result(tmp_path, capsys, "ckpt", ["-i", src, "--minhash", "--checkpoint-root", ck])
    assert plain[:3] == ckpt[:3]
    assert plain[2]["exact_dup_removed"] > 0 and plain[2]["near_dup_removed"] > 0
    minhash_fps = {s: read_manifest(ck, s)["fingerprint"] for s in ("exact", "edges", "labels")}

    sim = ["-i", src, "--compare-seq", "tail-hamming"]
    sim_plain = _cli_result(tmp_path, capsys, "sim_plain", sim)
    sim_ckpt = _cli_result(tmp_path, capsys, "sim_ckpt", [*sim, "--checkpoint-root", ck])
    assert sim_plain[:3] == sim_ckpt[:3]
    assert sim_ckpt[:2] != ckpt[:2]
    for stage, fp in minhash_fps.items():
        assert read_manifest(ck, stage)["fingerprint"] != fp


@pytest.mark.parametrize("mode", sorted(set(SINGLE_INPUT_MODES) - {"minhash_ckpt"}))
def test_cli_checkpoint_root_ignored_message(pages_corpus, tmp_path, capsys, ray_session, mode):
    """The ``--checkpoint-root … ignored`` message appears exactly for the
    modes that persist nothing under the root, and names them."""
    src, _ = pages_corpus
    ck = str(tmp_path / "ck")
    rc, _m, err = _run_cli(
        ["-i", src, "-o", str(tmp_path / "out"), "--verbose", *SINGLE_INPUT_MODES[mode],
         "--checkpoint-root", ck],
        capsys,
    )
    assert rc == 0, err
    persisted = os.path.exists(os.path.join(ck, "exact", "_MANIFEST.json"))
    assert persisted == mode.startswith(("minhash", "simhash"))
    assert ("--checkpoint-root ignored" in err) == (not persisted)
    if not persisted:
        named = {"fast": "--fast", "tight": "tight", "loose": "loose", "hamming": "--exact-mirror"}
        assert named[mode] in err


def test_cli_quarantine_checks_custom_id_and_text_columns(tmp_path, capsys, ray_session):
    """``--id-col``/``--text-col`` name the columns the quarantine checks."""
    src, out = str(tmp_path / "pages"), str(tmp_path / "out")
    total = _malformed_pages(src)
    t = pq.read_table(src).rename_columns(["page", "warc_ts", "html", "body", "lang"])
    pq.write_table(t, os.path.join(src, "part-0.parquet"))
    rc, m, err = _run_cli(
        ["-i", src, "-o", out, "--fast", "--verbose", "--id-col", "page", "--text-col", "body"],
        capsys,
    )
    assert rc == 0, err
    assert m["total"] == total and m["quarantined"] == 6
    assert pq.read_table(out).num_rows == m["kept"]


def test_cli_minhash_near_drops_count_rows(tmp_path, capsys, ray_session):
    """A url with two page rows, one of them a near copy of an earlier
    page, is one document: ``--minhash`` drops both rows, and with or
    without ``--checkpoint-root`` and on a resume the printed ``kept``
    equals the rows written and ``near_dup_removed`` equals the
    non-representative rows of ``.clusters``."""
    src = str(tmp_path / "pages")
    text_a = " ".join(f"w{i}" for i in range(60))
    _write_pages(
        src,
        [
            ("x/2", text_a),
            ("x/1", text_a.replace("w30", "z30")),
            ("x/1", "an unrelated page about the weather in spring " * 3),
            ("x/3", "a third page that shares nothing with the others " * 3),
        ],
    )
    ck = ["--checkpoint-root", str(tmp_path / "ck")]
    for name, extra in (("plain", []), ("ckpt", ck), ("resume", ck)):
        out = str(tmp_path / name)
        rc, m, err = _run_cli(
            ["-i", src, "-o", out, "--minhash", "--write-clusters", "--verbose", *extra], capsys
        )
        assert rc == 0, err
        kept = _written(out, ["url"])
        clusters = _written(out + ".clusters").to_pandas()
        assert sorted(kept["url"].to_pylist()) == ["x/2", "x/3"], name
        assert kept.num_rows == m["kept"], name
        assert m["near_dup_removed"] == int((~clusters["is_representative"]).sum()) == 2, name
