"""Native FASTA/FASTQ(.gz) source + sink (sources.fastx) — the reference's
actual input formats (/root/reference/src/fastqview.cpp, fastaview.cpp,
file_utils.cpp:71-79) flowing through the engine end-to-end."""

import gzip
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

REF = "/root/reference/test"

FASTQ = (
    b"@r1 first\nACGT\n+\nIIII\n"
    b"@r2\nACGTA\n+\nIIIII\n"
    b"@r3\nACGT\n+\nIII\n"  # qual len mismatch -> invalid (fastqview.cpp:117)
    b"Xr4\nACGT\n+\nIIII\n"  # bad start marker -> invalid (fastqview.cpp:92)
)

FASTA = b">a\nACGT\n>b\nGGGG\n>c\nACGT\n"


def test_parse_fastq_validation(ray_session):
    from fastq_dupaway_ray.sources.fastx import parse_fastx_bytes

    t = parse_fastx_bytes(FASTQ, "fastq")
    assert t["url"].to_pylist() == ["r1 first", "r2", "r3", "r4"]
    assert t["_valid"].to_pylist() == [True, True, False, False]
    assert t["text"].to_pylist()[:2] == ["ACGT", "ACGTA"]
    # raw record bytes round-trip
    assert t["html"].to_pylist()[0] == b"@r1 first\nACGT\n+\nIIII\n"


def test_parse_fasta_and_trailing_garbage(ray_session):
    from fastq_dupaway_ray.sources.fastx import parse_fastx_bytes

    t = parse_fastx_bytes(FASTA + b">partial", "fasta")
    assert t["url"].to_pylist()[:3] == ["a", "b", "c"]
    assert t["_valid"].to_pylist() == [True, True, True, False]


def test_read_fastx_gz_and_order(ray_session, tmp_path):
    from fastq_dupaway_ray.sources.fastx import read_fastx

    p = str(tmp_path / "in.fastq.gz")
    with gzip.open(p, "wb") as f:
        f.write(FASTQ)
    ds = read_fastx(p)
    df = ds.to_pandas()
    assert list(df["url"][:2]) == ["r1 first", "r2"]
    assert df["_valid"].tolist() == [True, True, False, False]
    # arrival order is encoded in warc_ts
    assert df["warc_ts"].is_monotonic_increasing


def test_read_pages_dispatches_fastx(ray_session, tmp_path):
    from fastq_dupaway_ray.sources.pages import read_pages, split_quarantine

    p = str(tmp_path / "in.fa")
    with open(p, "wb") as f:
        f.write(FASTA)
    good, bad = split_quarantine(read_pages(p))
    assert sorted(good.to_pandas()["url"]) == ["a", "b", "c"]
    assert bad.count() == 0


def test_reference_fixture_through_engine_source(ray_session):
    """The reference's own .fa fixture parses identically via the engine."""
    from fastq_dupaway_ray.sources.fastx import read_fastx

    path = os.path.join(REF, "inputs", "single_fast.fa")
    df = read_fastx(path).to_pandas()
    assert df["_valid"].all()
    rows = []
    with open(path) as f:
        rid = None
        for line in f:
            line = line.rstrip("\n")
            if line.startswith(">"):
                rid = line[1:]
            elif rid is not None:
                rows.append((rid, line))
                rid = None
    assert list(df["url"]) == [r[0] for r in rows]
    assert list(df["text"]) == [r[1] for r in rows]


def test_cli_fasta_input_and_output(ray_session, tmp_path):
    """CLI accepts a FASTA path directly (-i x.fa -o y.fa --fast) and the
    fastx sink reproduces the reference's byte format on kept records."""
    from fastq_dupaway_ray.__main__ import main

    src = os.path.join(REF, "inputs", "single_fast.fa")
    out = str(tmp_path / "kept.fa")
    assert main(["-i", src, "-o", out, "--fast"]) == 0
    kept = open(out, "rb").read()
    expected = open(os.path.join(REF, "expected", "single_fast.fa"), "rb").read()

    def ids_and_seqs(blob):
        recs = {}
        lines = blob.decode().splitlines()
        for i in range(0, len(lines) - 1, 2):
            recs[lines[i][1:]] = lines[i + 1]
        return recs

    assert ids_and_seqs(kept) == ids_and_seqs(expected)


def test_cli_fasta_to_parquet(ray_session, tmp_path):
    from fastq_dupaway_ray.__main__ import main

    src = os.path.join(REF, "inputs", "single_fast.fa")
    out = str(tmp_path / "kept")
    assert main(["-i", src, "-o", out, "--fast"]) == 0
    t = pq.read_table(out)
    assert {"url", "warc_ts", "html", "text", "lang"} <= set(t.column_names)
    assert t.num_rows > 0


def test_write_fastx_roundtrip(ray_session, tmp_path):
    from fastq_dupaway_ray.sources.fastx import read_fastx, write_fastx

    p = str(tmp_path / "in.fq")
    with open(p, "wb") as f:
        f.write(b"@r1\nACGT\n+\nIIII\n@r2\nGG\n+\nII\n")
    ds = read_fastx(p).map_batches(
        lambda t: t.filter(t["_valid"]).drop_columns(["_valid"]),
        batch_format="pyarrow",
    )
    out = str(tmp_path / "out.fq.gz")
    n = write_fastx(ds, out)
    assert n == 2
    assert gzip.open(out, "rb").read() == b"@r1\nACGT\n+\nIIII\n@r2\nGG\n+\nII\n"


def test_cli_fasta_clusters_reference_format(ray_session, tmp_path):
    """--write-clusters next to a fastx sink emits the reference's byte
    format: head id line + '--'-prefixed member lines
    (/root/reference/src/file_utils.cpp:98-112)."""
    from fastq_dupaway_ray.__main__ import main

    src = str(tmp_path / "in.fa")
    with open(src, "w") as f:
        f.write(">r1\nAAAA\n>r2\nAAAA\n>r3\nCCCC\n")
    out = str(tmp_path / "kept.fa")
    assert main(["-i", src, "-o", out, "--fast", "--write-clusters"]) == 0
    lines = open(out + ".clusters").read().splitlines()
    assert ">r1" in lines
    assert "-->r2" in lines
    assert not any(l.startswith("-->r3") for l in lines)


def test_cli_paired_fasta_sinks(ray_session, tmp_path):
    """Paired mode with .fa outputs writes the reference's byte format to
    BOTH mate files (previously fell through to parquet dirs named *.fa)."""
    from fastq_dupaway_ray.__main__ import main
    from fastq_dupaway_ray.sources.fastx import parse_fastx_bytes

    in1 = os.path.join(REF, "inputs", "paired_fast_r1.fa")
    in2 = os.path.join(REF, "inputs", "paired_fast_r2.fa")
    out1, out2 = str(tmp_path / "kept_r1.fa"), str(tmp_path / "kept_r2.fa")
    assert main(["-i", in1, "-u", in2, "-o", out1, "-p", out2, "--fast"]) == 0
    assert os.path.isfile(out1) and os.path.isfile(out2)

    def recs(path):
        t = parse_fastx_bytes(open(path, "rb").read(), "fasta")
        return sorted(zip(t["url"].to_pylist(), t["text"].to_pylist()))

    exp1 = recs(os.path.join(REF, "expected", "paired_fast_r1.fa"))
    exp2 = recs(os.path.join(REF, "expected", "paired_fast_r2.fa"))
    assert recs(out1) == exp1
    assert recs(out2) == exp2


def test_flagship_spools_fastx_once(ray_session, tmp_path):
    """run_flagship on a fastx input parses once into a parquet spool (the
    lazy read otherwise re-gunzips/re-parses on every pipeline pass)."""
    import glob

    from fastq_dupaway_ray.pipelines.dedup import spool_fastx_once
    from fastq_dupaway_ray.pipelines.flagship import run_flagship

    src = os.path.join(REF, "inputs", "single_fast.fa")
    ck = str(tmp_path / "ck")
    spool, spooled = spool_fastx_once(src, ck)
    assert spooled and glob.glob(os.path.join(spool, "*.parquet"))
    # second call reuses the fingerprinted spool (same path, no rewrite)
    spool2, _ = spool_fastx_once(src, ck)
    assert spool2 == spool
    kept, _cl, metrics = run_flagship(src, ckpt_root=ck)
    from fastq_dupaway_ray import refmodel
    from tests.test_reference_parity import _read_fasta as _read_fa

    ref_ids = sorted(
        r["url"] for r in refmodel.dedup_hash(
            [
                {"url": u, "warc_ts": i, "text": t}
                for i, (u, t) in enumerate(_read_fa(src))
            ],
            keys=("text",),
            key="url",
            order=lambda r: (r["warc_ts"], r["url"]),
        ).kept
    )
    # exact stage matches the serial reference model on this fixture (the
    # near-dup stage may remove more; exact drops are a lower bound)
    assert metrics["after_exact"] == len(ref_ids)


# ------------------------------------------------ splittable byte-range path


def _mk_fastq(path, n, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as f:
        for i in range(n):
            L = int(rng.integers(5, 40))
            seq = "".join(rng.choice(list("ACGTN"), size=L))
            # quality strings that START WITH '@' on purpose: the classic
            # FASTQ split ambiguity the shape check must disambiguate
            qual = "@" + "".join(rng.choice(list("!@#IJK"), size=L - 1))
            f.write(f"@SRR9.{i} extra words\n{seq}\n+\n{qual}\n")
    return path


def _mk_fasta(path, n, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as f:
        for i in range(n):
            L = int(rng.integers(5, 60))
            f.write(f">read.{i}\n" + "".join(rng.choice(list("ACGTN"), size=L)) + "\n")
    return path


def _read_canon(path, **kw):
    from fastq_dupaway_ray.sources.fastx import read_fastx

    df = read_fastx(path, **kw).to_pandas()
    return df.sort_values("warc_ts").reset_index(drop=True)


def test_sync_offset_agrees_with_whole_file_fasta(ray_session, tmp_path):
    p = _mk_fasta(str(tmp_path / "big.fa"), 500, seed=3)
    whole = _read_canon(p, split_bytes=1 << 30)
    for split in (256, 1000, 4096):
        sharded = _read_canon(p, split_bytes=split)
        pd.testing.assert_frame_equal(whole, sharded)


def test_sync_offset_agrees_with_whole_file_fastq(ray_session, tmp_path):
    p = _mk_fastq(str(tmp_path / "big.fq"), 500, seed=4)
    whole = _read_canon(p, split_bytes=1 << 30)
    for split in (256, 1000, 4096):
        sharded = _read_canon(p, split_bytes=split)
        pd.testing.assert_frame_equal(whole, sharded)


def test_sync_offset_every_boundary_fastq(tmp_path):
    """sync_offset lands exactly on record starts for EVERY offset — the
    pure-function property adjacent shards rely on (incl. '@'-leading
    quality lines)."""
    from fastq_dupaway_ray.sources.fastx import sync_offset

    p = _mk_fastq(str(tmp_path / "s.fq"), 40, seed=5)
    data = open(p, "rb").read()
    # true record starts: every 4th line start
    starts, pos = [], 0
    for k, line in enumerate(data.split(b"\n")[:-1]):
        if k % 4 == 0:
            starts.append(pos)
        pos += len(line) + 1
    starts.append(len(data))  # EOF sentinel
    import bisect

    for off in range(0, len(data) + 1, 7):
        want = starts[bisect.bisect_left(starts, off)]
        got = sync_offset(p, off, "fastq")
        assert got == want, (off, got, want)


def test_split_read_dedup_matches_reference_semantics(ray_session, tmp_path):
    """Keep-first dedup through the sharded path keeps the same records as
    through the whole-file path (order survives splitting)."""
    rng = np.random.default_rng(9)
    p = str(tmp_path / "dups.fa")
    seqs = ["".join(rng.choice(list("ACGT"), size=12)) for _ in range(60)]
    with open(p, "w") as f:
        for i in range(400):
            f.write(f">r.{i}\n{seqs[rng.integers(0, len(seqs))]}\n")
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup
    from fastq_dupaway_ray.sources.fastx import read_fastx
    from fastq_dupaway_ray.sources.pages import split_quarantine

    kept_urls = {}
    for split in (1 << 30, 512):
        good, _bad = split_quarantine(read_fastx(p, split_bytes=split))
        res = run_dedup(good, DedupConfig(mode="exact", emit_clusters=False))
        kept_urls[split] = sorted(res.kept.to_pandas()["url"])
    assert kept_urls[1 << 30] == kept_urls[512]
    # one kept record per distinct sequence that actually occurs
    assert len(kept_urls[512]) == len({s for s in open(p).read().split("\n")[1::2] if s})


def test_sync_offset_long_read_lines(ray_session, tmp_path):
    """Long-read FASTQ (lines far beyond any fixed lookahead window): the
    shape check must refill by NEWLINE count, not byte count — a truncated
    quality line used to mis-answer the boundary test, corrupting the
    record at the shard seam."""
    rng = np.random.default_rng(6)
    p = str(tmp_path / "longread.fq")
    with open(p, "w") as f:
        for i in range(12):
            L = int(rng.integers(6_000, 9_000))  # lines >> the old 4096 guard
            seq = "".join(rng.choice(list("ACGTN"), size=L))
            qual = "@" + "".join(rng.choice(list("!@#IJK"), size=L - 1))
            f.write(f"@LR.{i} long read\n{seq}\n+\n{qual}\n")
    from fastq_dupaway_ray.sources.fastx import sync_offset

    data = open(p, "rb").read()
    starts, pos = [], 0
    for k, line in enumerate(data.split(b"\n")[:-1]):
        if k % 4 == 0:
            starts.append(pos)
        pos += len(line) + 1
    starts.append(len(data))
    import bisect

    # probe around every record boundary and across qual-line starts
    probes = set()
    for s in starts:
        probes.update([max(0, s - 3), s, s + 1, s + 5_000])
    for off in sorted(o for o in probes if o <= len(data)):
        want = starts[bisect.bisect_left(starts, off)]
        got = sync_offset(p, off, "fastq")
        assert got == want, (off, got, want)
    # end-to-end: sharded == whole at a split that lands mid-record
    whole = _read_canon(p, split_bytes=1 << 30)
    assert whole["_valid"].all()
    for split in (10_000, 17_000):
        pd.testing.assert_frame_equal(whole, _read_canon(p, split_bytes=split))


def test_write_fastx_sharded_concat_identical(ray_session, tmp_path):
    """The sharded sink's name-ordered file concatenation must be
    byte-identical to the single-file writer, in both plain and gzip
    forms, and a re-run must skip finished parts (resumable)."""
    import glob

    from fastq_dupaway_ray.sources.fastx import write_fastx, write_fastx_sharded

    recs = b"".join(
        f"@r{i:04d}\n{'ACGT'[(i % 4)] * (3 + i % 7)}\n+\n{'I' * (3 + i % 7)}\n".encode()
        for i in range(503)
    )
    p = str(tmp_path / "in.fq")
    with open(p, "wb") as f:
        f.write(recs)
    from fastq_dupaway_ray.sources.fastx import read_fastx

    ds = (
        read_fastx(p)
        .map_batches(
            lambda t: t.filter(t["_valid"]).drop_columns(["_valid"]),
            batch_format="pyarrow",
        )
        .repartition(7)
    )
    single = str(tmp_path / "single.fq")
    n1 = write_fastx(ds, single)

    out = str(tmp_path / "shards")
    n2 = write_fastx_sharded(ds, out, ext="fastq")
    assert n1 == n2 == 503
    parts = sorted(glob.glob(out + "/part-*.fastq"))
    assert len(parts) > 1  # actually sharded
    concat = b"".join(open(f, "rb").read() for f in parts)
    assert concat == open(single, "rb").read()

    # re-run: byte-correct regardless of whether the new sort reproduces
    # the layout (matching layout -> parts skipped; differing -> wiped and
    # rewritten — never positionally mixed)
    n3 = write_fastx_sharded(ds, out, ext="fastq")
    assert n3 == 503
    parts3 = sorted(glob.glob(out + "/part-*.fastq"))
    assert b"".join(open(f, "rb").read() for f in parts3) == open(single, "rb").read()

    # deterministic skip path: single-block layout always reproduces, and a
    # crashed run's surviving part (manifest present, layout match) is kept
    import os
    import time

    out1 = str(tmp_path / "one_shard")
    write_fastx_sharded(ds.repartition(1), out1, ext="fastq")
    (part1,) = glob.glob(out1 + "/part-*.fastq")
    mtime = os.path.getmtime(part1)
    time.sleep(0.05)
    n4 = write_fastx_sharded(ds.repartition(1), out1, ext="fastq")
    assert n4 == 503 and os.path.getmtime(part1) == mtime  # skipped, not rewritten

    # gz form: concatenated gzip members decode to the same byte stream
    outgz = str(tmp_path / "shards_gz")
    write_fastx_sharded(ds, outgz, ext="fastq.gz")
    partsgz = sorted(glob.glob(outgz + "/part-*.fastq.gz"))
    cat = b"".join(open(f, "rb").read() for f in partsgz)
    assert gzip.decompress(cat) == open(single, "rb").read()


def test_write_fastx_sharded_layout_change_wipes_stale_parts(ray_session, tmp_path):
    """A re-run whose sorted block layout differs from the manifest must
    wipe the old parts instead of positionally mixing two runs' output."""
    import glob

    from fastq_dupaway_ray.sources.fastx import read_fastx, write_fastx_sharded

    def mk(n):
        return b"".join(
            f"@q{i:03d}\nAC\n+\nII\n".encode() for i in range(n)
        )

    p1 = str(tmp_path / "a.fq")
    open(p1, "wb").write(mk(60))
    ds1 = (
        read_fastx(p1)
        .map_batches(
            lambda t: t.filter(t["_valid"]).drop_columns(["_valid"]),
            batch_format="pyarrow",
        )
        .repartition(6)
    )
    out = str(tmp_path / "sh")
    n1 = write_fastx_sharded(ds1, out, ext="fastq")
    assert n1 == 60
    parts1 = set(glob.glob(out + "/part-*.fastq"))

    # different partitioning -> different layout -> full rewrite
    ds2 = (
        read_fastx(p1)
        .map_batches(
            lambda t: t.filter(t["_valid"]).drop_columns(["_valid"]),
            batch_format="pyarrow",
        )
        .repartition(3)
    )
    n2 = write_fastx_sharded(ds2, out, ext="fastq")
    assert n2 == 60
    parts2 = sorted(glob.glob(out + "/part-*.fastq"))
    concat = b"".join(open(f, "rb").read() for f in parts2)
    # concatenation is the full record stream — no mixed/stale leftovers
    assert concat.count(b"@q") == 60
    assert len(parts2) <= 3 + 1  # old 6-part layout is gone


def test_write_fastx_sharded_ext_change_and_seam_ties(ray_session, tmp_path):
    """(a) Changing ext wipes the previous run's parts (no mixed dirs);
    (b) an order-key tie straddling a block boundary disables resume
    (always rewrites) because counts+endpoints can't prove assignment."""
    import glob

    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.sources.fastx import write_fastx_sharded

    rec = b"@r\nAC\n+\nII\n"
    df = pd.DataFrame(
        {
            "html": [rec] * 30,
            "warc_ts": pd.to_datetime([f"2025-01-01 00:00:{i:02d}" for i in range(30)]),
        }
    )
    ds = rd.from_pandas(df).repartition(3)
    out = str(tmp_path / "extsw")
    write_fastx_sharded(ds, out, ext="fastq")
    write_fastx_sharded(ds, out, ext="fastq.gz")
    assert glob.glob(out + "/part-*.fastq") == []  # old ext wiped
    assert len(glob.glob(out + "/part-*.fastq.gz")) >= 1

    # seam tie: every row shares one order value -> non-resumable
    df2 = pd.DataFrame(
        {"html": [rec] * 30, "warc_ts": [pd.Timestamp("2025-01-01")] * 30}
    )
    ds2 = rd.from_pandas(df2).repartition(3)
    out2 = str(tmp_path / "ties")
    n1 = write_fastx_sharded(ds2, out2, ext="fastq")
    n2 = write_fastx_sharded(ds2, out2, ext="fastq")
    assert n1 == n2 == 30
    parts = sorted(glob.glob(out2 + "/part-*.fastq"))
    assert b"".join(open(f, "rb").read() for f in parts).count(b"@r\n") == 30


def _clusters_from_refmodel(records, marker):
    """Serial rendering of ``refmodel.dedup_hash`` clusters in the
    ``.clusters`` byte format: heads and members in sorted-id order; a loser
    that shares its head's id (a recrawl) is the representative's own id and
    gets no member line."""
    from fastq_dupaway_ray import refmodel

    rows = [{"url": i, "text": s, "warc_ts": n} for n, (i, s) in enumerate(records)]
    ref = refmodel.dedup_hash(rows, keys=("text",))
    lines = []
    for head in sorted(ref.clusters):
        lines.append(f"{marker}{head}")
        lines += [f"--{marker}{m}" for m in sorted(set(ref.clusters[head]) - {head})]
    return "".join(l + "\n" for l in lines).encode("utf-8")


# (id, sequence) records in file order
_GOLDEN_RECORDS = [
    ("r9", "ACGT"),
    ("r10", "ACGT"),  # member of r9 ("r10" < "r9" as strings)
    ("single one", "GGGG"),  # singleton; the id line keeps its space
    ("Zeta", "ACGT"),  # upper-case sorts before lower-case
    ("réad_é", "TTTT"),
    ("读取", "TTTT"),  # non-ASCII ids pin the byte-order sort
    ("😀x", "CCCA"),
    ("rec", "AAAA"),
    ("rec", "AAAA"),  # recrawl: the loser shares its head's id
    ("éa", "TTTT"),
    ("ab", "CCCA"),
]


@pytest.mark.parametrize("fmt", ["fasta", "fastq"])
@pytest.mark.parametrize(
    "case",
    ["mixed", "all_duplicates", "all_malformed"],
)
def test_cli_fast_clusters_golden(ray_session, tmp_path, fmt, case):
    """``--fast --write-clusters`` writes a ``.clusters`` side file
    byte-identical to a serial rendering of the refmodel clusters, and the
    kept file holds the first record of every identity in file order."""
    from fastq_dupaway_ray.__main__ import main

    marker = "@" if fmt == "fastq" else ">"
    ext = "fq" if fmt == "fastq" else "fa"
    records = {
        "mixed": _GOLDEN_RECORDS,
        "all_duplicates": [(f"d{i}", "ACGTACGT") for i in range(7)],
        "all_malformed": [],
    }[case]

    def rec(i, s):
        return f"{marker}{i}\n{s}\n" + (f"+\n{'I' * len(s)}\n" if fmt == "fastq" else "")

    if case == "all_malformed":
        # FASTQ: quality length mismatch; FASTA: wrong id marker
        body = "@a\nACGT\n+\nIII\n@b\nAC\n+\nI\n" if fmt == "fastq" else "@a\nACGT\n@b\nAC\n"
    else:
        body = "".join(rec(i, s) for i, s in records)
    src = tmp_path / f"in.{ext}"
    src.write_bytes(body.encode("utf-8"))
    out = str(tmp_path / f"kept.{ext}")
    assert main(["-i", str(src), "-o", out, "--fast", "--write-clusters"]) == 0

    with open(out + ".clusters", "rb") as f:
        assert f.read() == _clusters_from_refmodel(records, marker)
    seen, kept = set(), []
    for i, s in records:
        if s not in seen:
            seen.add(s)
            kept.append(rec(i, s))
    with open(out, "rb") as f:
        assert f.read() == "".join(kept).encode("utf-8")
