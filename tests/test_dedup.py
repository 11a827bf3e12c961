"""Distributed dedup stages vs the serial reference-semantics mirror.

This is the engine's version of the reference's golden-file strategy
(/root/reference/test/test_seq.py, test_fast.py): identical planted corpora,
outputs compared exactly against fastq_dupaway_ray.refmodel.
"""

import pandas as pd
import pytest

import ray.data as rd

from fastq_dupaway_ray import refmodel
from fastq_dupaway_ray.stages.adjacency import dedup_adjacency
from fastq_dupaway_ray.stages.dedup_exact import dedup_exact, dedup_exact_clusters


@pytest.fixture(scope="module")
def ds(ray_session, pages_corpus):
    path, _ = pages_corpus
    return rd.read_parquet(path)


def _urls(rows):
    return sorted(r["url"] for r in rows)


def test_exact_matches_refmodel(ds, pages_rows):
    kept = dedup_exact(ds, key_cols=("text",)).to_pandas()
    ref = refmodel.dedup_hash(pages_rows, keys=("text",))
    assert sorted(kept["url"]) == _urls(ref.kept)
    # keep-first: every kept row is its group's earliest (warc_ts, url)
    assert len(kept) == len(ref.kept)


def test_exact_composite_key(ds, pages_rows):
    # paired AND-semantics: (text, lang) both must match
    kept = dedup_exact(ds, key_cols=("text", "lang")).to_pandas()
    ref = refmodel.dedup_hash(pages_rows, keys=("text", "lang"))
    assert sorted(kept["url"]) == _urls(ref.kept)
    # composite key can only keep MORE rows than single key
    kept1 = dedup_exact(ds, key_cols=("text",)).to_pandas()
    assert len(kept) >= len(kept1)


def test_exact_clusters_match_refmodel(ds, pages_rows):
    cl = dedup_exact_clusters(ds).to_pandas()
    ref = refmodel.dedup_hash(pages_rows, keys=("text",))
    ref_members = {(h, m) for h, ms in ref.clusters.items() for m in ms}
    assert set(zip(cl["cluster_id"], cl["member"])) == ref_members
    reps = cl[cl["is_representative"]]
    assert sorted(reps["member"]) == _urls(ref.kept)


@pytest.mark.parametrize("mode,distance", [("tight", 0), ("loose", 0), ("hamming", 2)])
def test_adjacency_matches_refmodel(ds, pages_rows, mode, distance):
    res = dedup_adjacency(ds, mode=mode, distance=distance)
    kept = res.kept.to_pandas()
    ref = refmodel.dedup_sorted(pages_rows, mode=mode, distance=distance)
    assert sorted(kept["url"]) == _urls(ref.kept)
    assert res.total == ref.total
    assert res.duplicates == ref.duplicates
    cl = res.clusters.to_pandas()
    ref_members = {(h, m) for h, ms in ref.clusters.items() for m in ms}
    assert set(zip(cl["cluster_id"], cl["member"])) == ref_members


def test_adjacency_seams_with_many_blocks(ray_session, pages_rows):
    # force many tiny blocks so cross-block chains exercise the seam fixup
    ds_small = rd.from_pandas(pd.DataFrame(pages_rows)).repartition(16)
    res = dedup_adjacency(ds_small, mode="loose")
    ref = refmodel.dedup_sorted(pages_rows, mode="loose")
    assert sorted(res.kept.to_pandas()["url"]) == _urls(ref.kept)


def test_tight_adjacency_equals_exact_on_keepset(ds):
    # A3 == A1 on the kept set (SURVEY.md): sorted tight == hash exact
    adj = dedup_adjacency(ds, mode="tight").kept.to_pandas()
    ex = dedup_exact(ds, key_cols=("text",)).to_pandas()
    assert sorted(adj["url"]) == sorted(ex["url"])


def _dup_url_frame():
    """Recrawled-url corpus: u1 appears twice with IDENTICAL text (the winner
    must survive keep-first); u4's duplicate-content loser at warc_ts=6
    shares its FULL (url, warc_ts) tuple with a different-content row (an
    order-tuple look-alike that must NOT be swept by a tuple-membership
    drop filter)."""
    return pd.DataFrame(
        [
            {"url": "u1", "warc_ts": 1, "text": "same text"},
            {"url": "u1", "warc_ts": 2, "text": "same text"},    # loser
            {"url": "u2", "warc_ts": 3, "text": "other text"},
            {"url": "u3", "warc_ts": 4, "text": "third text"},
            {"url": "u4", "warc_ts": 5, "text": "fourth text"},
            {"url": "u4", "warc_ts": 6, "text": "fourth text"},  # loser
            {"url": "u4", "warc_ts": 6, "text": "sixth text"},   # look-alike
        ]
    )


def test_exact_keeps_winner_of_duplicated_url(ray_session):
    """A recrawl (same url, same text, later warc_ts) must lose keep-first
    WITHOUT taking the winner row down with it, and its drop entry must not
    sweep an (url, warc_ts) look-alike carrying different content."""
    ds_dup = rd.from_pandas(_dup_url_frame())
    ctr = {}
    kept = dedup_exact(ds_dup, key_cols=("text",), counters=ctr).to_pandas()
    got = sorted(zip(kept["url"], kept["warc_ts"]))
    assert got == [("u1", 1), ("u2", 3), ("u3", 4), ("u4", 5), ("u4", 6)]
    # the surviving u4@6 row is the different-content look-alike
    assert kept.loc[(kept["url"] == "u4") & (kept["warc_ts"] == 6), "text"].tolist() == [
        "sixth text"
    ]
    if "drops" in ctr:  # slim limb ran: derived count must equal the truth
        assert len(kept) == len(_dup_url_frame()) - ctr["drops"]


def test_exact_full_tie_falls_back_to_value_compare(ray_session):
    """Two FULLY identical rows (url, warc_ts, text all equal): no slim key
    can name the loser — exactly one of them must survive."""
    rows = pd.DataFrame(
        [
            {"url": "u1", "warc_ts": 1, "text": "same"},
            {"url": "u1", "warc_ts": 1, "text": "same"},
            {"url": "u2", "warc_ts": 2, "text": "other"},
        ]
    )
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup

    out = run_dedup(rd.from_pandas(rows), DedupConfig(mode="exact", emit_clusters=False))
    kept = out.kept.to_pandas()
    assert sorted(kept["url"]) == ["u1", "u2"]
    assert out.metrics["kept"] == 2 and out.metrics["duplicates"] == 1


def test_exact_drop_ids_confirms_content_on_hit(ray_session):
    """exact_drop_ids + the flagship's exact gate: drop entries carry the
    content key, so an order-tuple look-alike with different text survives."""
    from fastq_dupaway_ray.stages.dedup_exact import exact_drop_ids, exact_gate

    df = _dup_url_frame()
    ds_dup = rd.from_pandas(df)
    drops = exact_drop_ids(ds_dup, key_cols=("text",)).materialize()
    dpd = drops.to_pandas()
    assert len(dpd) == 2 and not dpd["_ambig"].any()
    gate, n_drops = exact_gate(drops, ["text"], ["warc_ts", "url"])
    assert n_drops == 2
    kept = gate(ds_dup).to_pandas()
    got = sorted(zip(kept["url"], kept["warc_ts"]))
    assert got == [("u1", 1), ("u2", 3), ("u3", 4), ("u4", 5), ("u4", 6)]
    assert "sixth text" in kept["text"].tolist()


def test_flagship_handles_duplicate_and_tied_urls(ray_session, tmp_path):
    """End-to-end: the flagship keeps the winner of a recrawled url, and a
    full winner tie routes through the value-comparing fallback."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastq_dupaway_ray.pipelines.flagship import run_flagship

    epoch = datetime.datetime(2025, 1, 1)

    def mk(url, sec, text):
        return {
            "url": url,
            "warc_ts": epoch + datetime.timedelta(seconds=sec),
            "html": text.encode(),
            "text": text,
            "lang": "en",
        }

    # texts long + distinct enough that minhash links nothing extra
    t1 = "the quick brown fox jumps over the lazy dog repeatedly " * 3
    t2 = "completely different content about distributed systems " * 3
    t3 = "a third unrelated document discussing marine biology topics " * 3
    rows = [mk("u1", 1, t1), mk("u1", 2, t1), mk("u2", 3, t2), mk("u3", 4, t3)]
    p = str(tmp_path / "dup_pages")
    import os

    os.makedirs(p)
    pq.write_table(pa.Table.from_pylist(rows), os.path.join(p, "part-0.parquet"))
    kept, _cl, metrics = run_flagship(p)
    kdf = kept.to_pandas()
    assert sorted(zip(kdf["url"], kdf["warc_ts"])) == [
        ("u1", epoch + datetime.timedelta(seconds=1)),
        ("u2", epoch + datetime.timedelta(seconds=3)),
        ("u3", epoch + datetime.timedelta(seconds=4)),
    ]
    assert metrics["kept"] == 3 and metrics["after_exact"] == 3

    # full tie: two byte-identical rows -> fallback keeps exactly one
    rows_tie = [mk("u1", 1, t1), mk("u1", 1, t1), mk("u2", 3, t2)]
    p2 = str(tmp_path / "tie_pages")
    os.makedirs(p2)
    pq.write_table(pa.Table.from_pylist(rows_tie), os.path.join(p2, "part-0.parquet"))
    kept2, _cl2, metrics2 = run_flagship(p2)
    k2 = kept2.to_pandas()
    assert sorted(k2["url"]) == ["u1", "u2"]
    assert metrics2["kept"] == 2 and metrics2["after_exact"] == 2


def test_flagship_drop_budget_gate_matches_broadcast_limb(ray_session, tmp_path, monkeypatch):
    """A drop set past ``exchange.DROP_BROADCAST_BUDGET`` must route BOTH the
    slim and the full-column chain through the exact gate's exchange limb —
    never through the broadcast — and keep exactly the same row set. Under
    the budget the gate's sorted index is built once for both chains."""
    import datetime
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastq_dupaway_ray.pipelines.flagship import run_flagship

    epoch = datetime.datetime(2025, 1, 1)
    texts = [
        f"document number {i} with enough distinct words to avoid minhash links "
        * 3
        for i in range(12)
    ]
    rows = []
    sec = 0
    for i, t in enumerate(texts):
        for rep in range(4):  # 75% exact-duplicate corpus
            rows.append(
                {
                    "url": f"u{i}-{rep}",
                    "warc_ts": epoch + datetime.timedelta(seconds=sec),
                    "html": t.encode(),
                    "text": t,
                    "lang": "en",
                }
            )
            sec += 1
    p = str(tmp_path / "budget_pages")
    os.makedirs(p)
    pq.write_table(pa.Table.from_pylist(rows), os.path.join(p, "part-0.parquet"))

    from fastq_dupaway_ray.stages import exchange

    builds = []
    orig_build = exchange._build_key_index

    class BuildSpy:
        def remote(self, confirm, *blocks):
            builds.append(confirm)
            return orig_build.remote(confirm, *blocks)

    monkeypatch.setattr(exchange, "_build_key_index", BuildSpy())
    kept_bc, cl_bc, m_bc = run_flagship(p)  # broadcast limb (budget 5M)
    # one exact-gate index (the only confirmed key set) serves both chains
    assert builds.count(True) == 1
    monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", 1)  # forced exchange
    kept_sh, cl_sh, m_sh = run_flagship(p)
    key = lambda df: sorted(zip(df["url"], df["warc_ts"], df["text"]))
    assert key(kept_sh.to_pandas()) == key(kept_bc.to_pandas())
    assert m_sh["after_exact"] == m_bc["after_exact"] == 12
    assert m_sh["kept"] == m_bc["kept"]
    assert cl_sh.count() == cl_bc.count()


def test_hamming_scan_vec_matches_serial_reference():
    """_hamming_scan_vec (adjacent-pair prefilter + per-run matrix sweeps)
    is bit-exact vs the serial head-compare loop, incl. unicode, paired
    columns and incoming seam state."""
    import numpy as np

    from fastq_dupaway_ray.stages.adjacency import _hamming_scan_vec, _is_dup

    def naive(cols, distance, incoming_state):
        n = len(cols[0])
        dup = np.zeros(n, bool)
        state = incoming_state
        for i in range(n):
            cur = tuple(c[i] for c in cols)
            if state is not None and _is_dup("hamming", tuple(state), cur, distance):
                dup[i] = True
            else:
                state = cur
        return dup, (tuple(state) if state is not None else None)

    rng = np.random.default_rng(17)
    alpha = list("ACGT") + ["é", "𝄞"]
    for trial in range(150):
        n = int(rng.integers(0, 50))
        ncols = int(rng.integers(1, 3))
        cols = []
        for _ in range(ncols):
            texts = []
            for _ in range(n):
                if rng.random() < 0.7 and texts:
                    t = list(texts[-1])
                    for _ in range(rng.integers(0, 3)):
                        if t:
                            t[rng.integers(0, len(t))] = rng.choice(alpha)
                    texts.append("".join(t))
                else:
                    texts.append("".join(rng.choice(alpha, size=rng.integers(0, 10))))
            cols.append(np.array(sorted(texts) if ncols == 1 else texts, dtype=object))
        if n == 0:
            cols = [np.array([], dtype=object) for _ in range(ncols)]
        d = int(rng.integers(0, 4))
        inc = (
            None
            if rng.random() < 0.5 or n == 0
            else tuple(
                "".join(rng.choice(alpha, size=int(rng.integers(0, 6))))
                for _ in range(ncols)
            )
        )
        a = _hamming_scan_vec([c.copy() for c in cols], d, inc)
        b = naive(cols, d, inc)
        assert (a[0] == b[0]).all(), (trial, d, inc)
        assert a[1] == b[1], (trial, d, inc)


@pytest.mark.parametrize("limb", ["broadcast", "full_tie", "over_budget"])
def test_run_dedup_exact_clusters_every_limb(ray_session, pages_rows, monkeypatch, limb):
    """run_dedup(mode="exact") takes its clusters from the drop exchange
    whichever limb then filters the payload: they equal
    ``dedup_exact_clusters`` and the refmodel clusters, and the kept rows
    equal the refmodel's."""
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup
    from fastq_dupaway_ray.stages import dedup_exact as _exact
    from fastq_dupaway_ray.stages import exchange

    rows = list(pages_rows)
    if limb == "full_tie":
        rows.append(dict(rows[3]))  # a fully identical copy: no slim key names it
    if limb == "over_budget":
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", 0)
    shuffles = []
    orig_shuffle = _exact._dedup_exact_shuffle
    monkeypatch.setattr(
        _exact, "_dedup_exact_shuffle", lambda *a, **k: shuffles.append(1) or orig_shuffle(*a, **k)
    )

    def no_groupby(*a, **k):
        raise AssertionError("Ray groupby on an exact limb")

    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    ds_rows = rd.from_pandas(pd.DataFrame(rows))
    out = run_dedup(ds_rows, DedupConfig(mode="exact"))
    # over budget the exact gate's semi_filter exchange limb runs; only a
    # full tie still needs the value-comparing shuffle
    assert len(shuffles) == (1 if limb == "full_tie" else 0)

    ref = refmodel.dedup_hash(rows, keys=("text",))
    kept = out.kept.to_pandas()
    assert sorted(kept["url"]) == _urls(ref.kept)
    assert out.metrics["total"] == len(rows)
    assert out.metrics["kept"] == len(ref.kept)

    def triples(df):
        return sorted(zip(df["cluster_id"], df["member"], df["is_representative"]))

    cl = out.clusters.to_pandas()
    assert triples(cl) == triples(dedup_exact_clusters(ds_rows).to_pandas())
    ref_members = {(h, m) for h, ms in ref.clusters.items() for m in ms}
    assert set(zip(cl["cluster_id"], cl["member"])) == ref_members
    assert len(cl) == len(rows)


def test_run_dedup_exact_clusters_use_one_exchange(ray_session, ds, monkeypatch):
    """Exact mode with clusters runs ONE slim hash exchange and no Ray
    groupby (the broadcast limb)."""
    import ray.data

    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup
    from fastq_dupaway_ray.stages import exchange

    calls = []
    orig = exchange.hash_exchange
    monkeypatch.setattr(
        exchange, "hash_exchange", lambda *a, **k: calls.append(1) or orig(*a, **k)
    )

    def no_groupby(*a, **k):
        raise AssertionError("Ray groupby on the exact broadcast limb")

    monkeypatch.setattr(ray.data.Dataset, "groupby", no_groupby)
    out = run_dedup(ds, DedupConfig(mode="exact", emit_clusters=True))
    assert len(out.kept.to_pandas()) == out.metrics["kept"]
    assert len(out.clusters.to_pandas()) == out.metrics["total"]
    assert len(calls) == 1


def test_row_key_is_a_function_of_the_row():
    """``_row_key`` gives a row the same key whatever else shares its batch
    (nulls in other rows included): drop keys and payload probes are
    computed over different batches."""
    import datetime

    import numpy as np
    import pyarrow as pa

    from fastq_dupaway_ray.stages.dedup_exact import _row_key

    epoch = datetime.datetime(2025, 1, 1)
    t = pa.table(
        {
            "n": pa.array([3, None, 0, 7], pa.int64()),
            "ts": pa.array([epoch, epoch, None, epoch], pa.timestamp("us")),
            "url": ["a", "b", None, "d"],
        }
    )
    whole = _row_key(t, ["ts", "url", "n"])
    for i in range(t.num_rows):
        one = _row_key(t.slice(i, 1), ["ts", "url", "n"])
        assert (one[0][0], one[1][0]) == (whole[0][i], whole[1][i])
    # a null differs from the zero it is filled with
    assert whole[0][1] != _row_key(t.slice(0, 1).set_column(0, "n", pa.array([0], pa.int64())), ["ts", "url", "n"])[0][0]
    assert len(set(zip(whole[0].tolist(), whole[1].tolist()))) == t.num_rows
    assert np.asarray(whole[0]).dtype == np.uint64


def _null_ts_order(r):
    # Arrow sorts nulls last
    return (r["warc_ts"] is None, r["warc_ts"] or 0, r["url"])


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "exchange"])
def test_exact_gate_nullable_order_key_matches_refmodel(ray_session, monkeypatch, budget):
    """A loser in a null-free block is removed when another loser of the
    same drop block has a null ``warc_ts``, on both ``semi_filter`` limbs,
    and the drop count matches the output."""
    import pyarrow as pa

    from fastq_dupaway_ray.stages import exchange

    if budget is not None:
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
    # block A: 1,500 distinct rows (one full batch and more) plus a loser
    a_rows = [{"url": f"a{i}", "warc_ts": i + 10, "text": f"text {i}"} for i in range(1_500)]
    a_rows.append({"url": "a-dup", "warc_ts": 5_000, "text": "text 7"})
    # block B: a null-warc_ts loser and its winner
    b_rows = [
        {"url": "b-null", "warc_ts": None, "text": "shared"},
        {"url": "b-win", "warc_ts": 1, "text": "shared"},
        {"url": "b-solo", "warc_ts": None, "text": "solo"},
    ]
    schema = pa.schema([("url", pa.string()), ("warc_ts", pa.int64()), ("text", pa.string())])
    ds = rd.from_arrow(
        [pa.Table.from_pylist(a_rows, schema), pa.Table.from_pylist(b_rows, schema)]
    )
    ctr: dict = {}
    kept = dedup_exact(ds, counters=ctr).to_pandas()
    rows = a_rows + b_rows
    ref = refmodel.dedup_hash(rows, keys=("text",), order=_null_ts_order)
    assert sorted(kept["url"]) == _urls(ref.kept)
    assert "a-dup" not in set(kept["url"]) and "b-null" not in set(kept["url"])
    assert ctr["drops"] == len(rows) - len(kept) == 2


def test_exact_full_tie_keeps_nullable_int_column(ray_session):
    """The value-comparing full-tie limb keeps an integer column whose
    nulls sit in only some blocks as int64 (no pandas round trip turns it
    into double in those blocks and breaks the exchange's concat)."""
    import pyarrow as pa

    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.int64()), ("text", pa.string()),
         ("extra", pa.int64()), ("note", pa.string())]
    )
    a_rows = [
        {"url": "a0", "warc_ts": 1, "text": "x", "extra": None, "note": None},
        {"url": "a1", "warc_ts": 2, "text": "x", "extra": 4, "note": None},
        {"url": "a2", "warc_ts": 3, "text": "y", "extra": 5, "note": None},
    ]
    b_rows = [
        {"url": "b0", "warc_ts": 4, "text": "z", "extra": 6, "note": "n"},
        # a full (url, warc_ts, text) tie: no slim key names the loser
        {"url": "b0", "warc_ts": 4, "text": "z", "extra": 6, "note": "n"},
        {"url": "b1", "warc_ts": 5, "text": "y", "extra": 7, "note": "m"},
    ]
    ds = rd.from_arrow(
        [pa.Table.from_pylist(a_rows, schema), pa.Table.from_pylist(b_rows, schema)]
    )
    for paranoid in (False, True):
        out = dedup_exact(ds, paranoid=paranoid).materialize()
        types = dict(zip(out.schema().names, out.schema().types))
        assert types["extra"] == pa.int64() and types["note"] == pa.string()
        kept = out.take_all()
        ref = refmodel.dedup_hash(a_rows + b_rows, keys=("text",))
        assert _urls(kept) == _urls(ref.kept)
        assert sorted((r["url"], r["extra"]) for r in kept) == [
            ("a0", None), ("a2", 5), ("b0", 6)
        ]
