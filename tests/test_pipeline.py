"""Pipeline dispatch, flagship run, checkpoint/resume, extraction invariant,
quarantine and multimodal plumbing."""

import datetime
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data as rd

from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup
from fastq_dupaway_ray.pipelines.flagship import run_flagship
from fastq_dupaway_ray.sources.pages import split_quarantine
from fastq_dupaway_ray.stages.extract import extract_text_batch, verify_extraction_batch
from fastq_dupaway_ray.state.checkpoint import checkpoint, fingerprint, read_manifest


@pytest.fixture(scope="module")
def ds(ray_session, pages_corpus):
    path, _ = pages_corpus
    return rd.read_parquet(path)


def test_extraction_invariant_whole_corpus(ds):
    """extract(html) == text byte-identically per url (input_hint invariant)."""
    v = ds.map_batches(verify_extraction_batch, batch_format="pyarrow")
    assert v.count() == ds.count()
    bad = v.map_batches(lambda t: t.filter(pc.invert(t["matches"])), batch_format="pyarrow")
    assert bad.count() == 0


def test_quarantine_split(ray_session):
    t = pa.table(
        {
            "url": ["", "https://ok.example/1", None],
            "warc_ts": pa.array([datetime.datetime(2025, 1, 1)] * 3, pa.timestamp("us")),
            "html": pa.array([b"x", b"y", b"z"], pa.binary()),
            "text": ["a", "b", "c"],
            "lang": ["en"] * 3,
        }
    )
    good, bad = split_quarantine(rd.from_arrow(t))
    assert good.count() == 1
    assert bad.count() == 2


@pytest.mark.parametrize("mode", ["exact", "minhash", "simhash"])
def test_run_dedup_deterministic_kept_set(ds, mode):
    """Two runs over the same input keep the IDENTICAL url set — seeded
    hashes + deterministic tie-breaks, the property that makes Ray task
    retries reproduce identical outputs (SURVEY §4 fault-tolerance row)."""
    kwargs = {"mode": mode, "emit_clusters": False, "signer_concurrency": 2}
    if mode == "simhash":
        kwargs["distance"] = 3
    a = run_dedup(ds, DedupConfig(**kwargs)).kept.to_pandas()
    b = run_dedup(ds, DedupConfig(**kwargs)).kept.to_pandas()
    assert sorted(a["url"]) == sorted(b["url"])


@pytest.mark.parametrize("mode", ["exact", "tight", "loose", "minhash"])
def test_run_dedup_modes(ds, mode):
    out = run_dedup(ds, DedupConfig(mode=mode, signer_concurrency=2))
    m = out.metrics
    assert m["total"] == ds.count()
    assert m["kept"] + m["duplicates"] == m["total"]
    assert m["duplicates"] > 0  # corpus plants duplicates for every mode
    assert out.kept.count() == m["kept"]
    if out.clusters is not None:
        cdf = out.clusters.to_pandas()
        assert set(cdf.columns) == {"cluster_id", "member", "is_representative"}


def test_flagship_with_checkpoint_resume(pages_corpus, tmp_path, ray_session):
    path, _ = pages_corpus
    ck = str(tmp_path / "ckpt")
    out = str(tmp_path / "out")
    kept, clusters, metrics = run_flagship(path, out_dir=out, ckpt_root=ck, signer_concurrency=2)
    assert metrics["kept"] < metrics["valid"]
    assert os.path.exists(os.path.join(out, "metrics.json"))
    # the "exact" checkpoint is the SLIM drop-id artifact (the fused flagship
    # never materializes the payload between stages); its manifest carries
    # the valid-count sidecar a resuming run needs
    man = read_manifest(ck, "exact")
    assert man is not None and man["complete"] and man["rows"] == metrics["exact_dup_removed"]
    assert man["extra"]["n_valid"] == metrics["valid"]
    # resume: second run must reuse the exact checkpoint (same fingerprint)
    kept2, _, metrics2 = run_flagship(path, ckpt_root=ck, signer_concurrency=2)
    assert metrics2["after_exact"] == metrics["after_exact"]
    assert metrics2["kept"] == metrics["kept"]
    # full chain checkpointed with per-partition lineage
    for stage in ("exact", "edges", "labels"):
        m = read_manifest(ck, stage)
        assert m is not None and m["complete"]
        assert sum(p["rows"] for p in m["partitions"]) == m["rows"]


def test_checkpoint_skips_and_invalidates(ds, tmp_path):
    root = str(tmp_path)
    fp = fingerprint("stage-a", "cfg1")
    out1 = checkpoint(ds.select_columns(["url"]), root, "a", fp)
    n = out1.count()
    man1 = read_manifest(root, "a")
    assert man1["rows"] == n
    # same fingerprint: no rewrite (manifest identity preserved)
    out2 = checkpoint(ds.select_columns(["url"]), root, "a", fp)
    assert read_manifest(root, "a") == man1
    assert out2.count() == n
    # changed fingerprint: stage re-runs
    out3 = checkpoint(ds.select_columns(["url", "lang"]), root, "a", fingerprint("stage-a", "cfg2"))
    assert read_manifest(root, "a")["fingerprint"] != fp
    assert set(out3.schema().names) == {"url", "lang"}
    # a materialized input is written the same way but handed back as is
    # (no read-back of the parts just written); a matching re-run still
    # resumes from the parquet parts
    mat = ds.select_columns(["url"]).materialize()
    fpm = fingerprint("stage-m", "cfg1")
    outm = checkpoint(mat, root, "m", fpm)
    assert outm is mat
    assert read_manifest(root, "m")["rows"] == mat.count()
    again = checkpoint(mat, root, "m", fpm)
    assert again is not mat
    files = again.input_files()
    assert files and all(
        f.startswith(os.path.join(root, "m")) and f.endswith(".parquet") for f in files
    )
    assert sorted(again.to_pandas()["url"]) == sorted(mat.to_pandas()["url"])


def test_multimodal_plumbing(ds):
    from fastq_dupaway_ray.stages.multimodal import FrameSampler, image_pipeline

    small = ds.limit(32).map_batches(
        lambda t: t.select(["url", "html"]).rename_columns(["url", "payload"]),
        batch_format="pyarrow",
    )
    feats = image_pipeline(small, concurrency=2)
    t = feats.take_batch(32, batch_format="pyarrow")
    assert "image_feat" in t.schema.names and "width" in t.schema.names
    assert t["image_feat"].type.list_size == 16
    frames = small.map_batches(
        FrameSampler, fn_constructor_kwargs={"k": 4}, batch_format="pyarrow",
        batch_size=16, concurrency=2,
    ).take_batch(8, batch_format="pyarrow")
    assert frames["frame_offsets"].type.list_size == 4


def test_multimodal_require_real(ds):
    """require_real=True decodes for REAL — PNG/WAV need only the stdlib
    codecs; undecodable payloads fail loudly, never fake."""
    import numpy as np
    import pyarrow as pa

    from fastq_dupaway_ray.functions.codecs import encode_png, encode_wav
    from fastq_dupaway_ray.stages import multimodal as mm

    img = np.arange(200, dtype=np.uint8).reshape(10, 20)
    t = pa.table(
        {
            "payload": pa.array(
                [encode_png(img), encode_png(np.full((6, 9), 77, np.uint8))], pa.binary()
            )
        }
    )
    out = mm.ImageFeatures(require_real=True)(t)
    assert out["width"][0].as_py() == 20 and out["height"][0].as_py() == 10
    assert out["width"][1].as_py() == 9 and out["height"][1].as_py() == 6
    # constant image -> every grid cell equals the pixel value / 255
    flat = np.array(out["image_feat"].to_pylist()[1])
    assert np.abs(flat - 77 / 255.0).max() < 1e-3

    wav = encode_wav(np.full(500, 0.25))
    ta = pa.table({"payload": pa.array([wav], pa.binary())})
    oa = mm.AudioFeatures(require_real=True)(ta)
    assert oa["n_bytes"][0].as_py() == 500
    assert abs(np.array(oa["audio_energy"].to_pylist()[0]).mean() - 0.25) < 1e-3

    junk = pa.table({"payload": pa.array([b"not media"], pa.binary())})
    with pytest.raises(ValueError):
        mm.ImageFeatures(require_real=True)(junk)
    with pytest.raises(ValueError):
        mm.AudioFeatures(require_real=True)(junk)


def test_audio_energy_matches_slow_reference():
    """The vectorized reduceat byte-RMS equals a per-row reference computation
    (incl. empty payloads and buffer-slice edges)."""
    import numpy as np
    import pyarrow as pa

    from fastq_dupaway_ray.stages.multimodal import AudioFeatures

    payloads = [b"abcdefgh" * 13, b"", b"\x00\x01\x02", bytes(range(256)), b"x"]
    t = pa.table({"payload": pa.array(payloads, pa.binary())})
    out = AudioFeatures(bin_col="payload")(t)
    got = np.array(out["audio_energy"].to_pylist(), dtype=np.float32)
    BINS = AudioFeatures.BINS
    for i, b in enumerate(payloads):
        arr = np.frombuffer(b, dtype=np.uint8).astype(np.float32)
        bounds = (len(arr) * np.linspace(0, 1, BINS + 1)).astype(np.int64)
        for j in range(BINS):
            seg = arr[bounds[j] : bounds[j + 1]] ** 2
            want = float(np.sqrt(seg.mean())) if len(seg) else 0.0
            assert abs(got[i, j] - want) < 1e-3, (i, j, got[i, j], want)
        assert out["n_bytes"][i].as_py() == len(b)


def test_audio_and_resize_stages(ds):
    from fastq_dupaway_ray.stages.multimodal import AudioFeatures, resize_images

    out = ds.map_batches(
        AudioFeatures, fn_constructor_kwargs={"bin_col": "html"},
        batch_format="pyarrow", batch_size=64, concurrency=2,
    ).take(5)
    for r in out:
        assert r["n_bytes"] > 0
        assert len(r["audio_energy"]) == 8
        assert all(v >= 0 for v in r["audio_energy"])
    rz = resize_images(ds, bin_col="html", width=64, height=48, concurrency=2).take(3)
    for r in rz:
        assert list(r["resized_to"]) == [64, 48]
        assert len(r["image_feat"]) == 16


def test_cluster_representative_survives_duplicated_id(ray_session):
    """A representative whose url appears twice in pages must not land in
    the drop set (rows sharing an id are one logical document)."""
    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.stages.representative import apply_cluster_labels

    pages = rd.from_pandas(
        pd.DataFrame(
            [
                {"url": "a", "warc_ts": 1, "text": "t"},
                {"url": "a", "warc_ts": 2, "text": "t"},  # duplicate id of the rep
                {"url": "b", "warc_ts": 3, "text": "t"},
                {"url": "c", "warc_ts": 4, "text": "x"},
            ]
        )
    )
    labels = rd.from_pandas(
        pd.DataFrame({"node": ["a", "b"], "label": ["a", "a"]})
    )
    ctr = {}
    kept, clusters = apply_cluster_labels(pages, labels, counters=ctr)
    kdf = kept.to_pandas()
    # both 'a' rows survive (a is the representative); only 'b' drops
    assert sorted(kdf["url"]) == ["a", "a", "c"]
    cl = clusters.to_pandas()
    assert set(cl.loc[cl["is_representative"], "member"]) == {"a"}
    assert set(cl.loc[~cl["is_representative"], "member"]) == {"b"}


def test_png_gray_alpha_excludes_alpha_from_luminance(ray_session):
    """Color-type-4 (gray+alpha) PNG: the feature grid must average the
    GRAY channel only — folding alpha in corrupts the luminance."""
    import struct
    import zlib

    import numpy as np
    import pyarrow as pa

    from fastq_dupaway_ray.functions.codecs import PNG_MAGIC
    from fastq_dupaway_ray.stages.multimodal import ImageFeatures

    h, w, gray_val = 8, 8, 10
    px = np.zeros((h, w, 2), dtype=np.uint8)
    px[..., 0] = gray_val
    px[..., 1] = 255  # opaque alpha

    def chunk(typ, data):
        return (
            struct.pack(">I", len(data))
            + typ
            + data
            + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 4, 0, 0, 0)  # color type 4
    raw = np.zeros((h, 1 + w * 2), dtype=np.uint8)
    raw[:, 1:] = px.reshape(h, w * 2)
    png = (
        PNG_MAGIC
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw.tobytes()))
        + chunk(b"IEND", b"")
    )
    batch = pa.table({"payload": pa.array([png], pa.binary())})
    out = ImageFeatures(require_real=True)(batch)
    feat = np.asarray(out["image_feat"].to_pylist()[0])
    assert np.allclose(feat, gray_val / 255.0), feat


def test_crawl_pipeline_composition_end_to_end(ray_session, tmp_path):
    """The crawl-shaped composition: messy-URL canonicalization -> canonical
    URL dedup -> near-dup flagship stages -> sharded byte-format sink. Every
    stage is a round-5 surface; the test pins the whole chain running
    against a planted corpus with checkable counts."""
    import glob

    import pyarrow as pa
    import ray.data as rd

    from fastq_dupaway_ray.corpus import CorpusSpec, generate_pages
    from fastq_dupaway_ray.functions.urlnorm import normalize_urls
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup
    from fastq_dupaway_ray.sources.fastx import write_fastx_sharded
    from fastq_dupaway_ray.stages.dedup_exact import dedup_exact

    table = generate_pages(CorpusSpec(n_base=400, seed=31))
    n0 = table.num_rows

    # 1. recrawl noise: half the rows get a tracking-param/fragment variant
    #    of their url -> canonical-URL dedup must keep exactly one per page
    def messy(t: pa.Table) -> pa.Table:
        import numpy as np

        urls = t["url"].to_pylist()
        out = [
            u + ("?utm_source=feed#top" if i % 2 else "")
            for i, u in enumerate(urls)
        ]
        return t.set_column(
            t.schema.get_field_index("url"), "url", pa.array(out, pa.string())
        )

    ds = rd.from_arrow(table).repartition(8).map_batches(messy, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("url"), "url", normalize_urls(t["url"])
        ),
        batch_format="pyarrow",
    )
    dedup_url = dedup_exact(ds, key_cols=("url",), order_cols=("warc_ts", "url"))
    n1 = dedup_url.count()
    assert n1 == n0  # urls were unique pre-mess; canonicalization restores them

    # 2. content near-dedup over the canonical rows (flagship stages)
    out = run_dedup(
        dedup_url.materialize(),
        DedupConfig(mode="minhash", emit_clusters=True, signer_concurrency=2),
    )
    kept = out.kept.materialize()
    n2 = kept.count()
    assert 0 < n2 < n1  # planted dups collapsed
    assert out.clusters is not None

    # 3. sharded reference-format sink; concatenation carries every kept record
    sink = str(tmp_path / "crawl_shards")
    n3 = write_fastx_sharded(kept, sink, ext="fastq")
    assert n3 == n2
    parts = sorted(glob.glob(sink + "/part-*.fastq"))
    total_bytes = b"".join(open(f, "rb").read() for f in parts)
    assert len(total_bytes) > 0 and len(parts) >= 1
