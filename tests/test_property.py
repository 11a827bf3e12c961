"""Property-based conformance: random corpora vs the serial reference model.

Small alphabets force hash-key collisions, duplicate runs, prefix chains and
containment by construction; every engine path must equal refmodel exactly.
max_examples kept small — each example drives a real Ray pipeline."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ray.data as rd

from fastq_dupaway_ray import refmodel
from fastq_dupaway_ray.stages.adjacency import dedup_adjacency
from fastq_dupaway_ray.stages.containment import containment_edges
from fastq_dupaway_ray.stages.dedup_exact import dedup_exact

# texts over a 3-letter alphabet, lengths 8..20 (>= shingle_k for containment)
texts_strategy = st.lists(
    st.text(alphabet="abc", min_size=8, max_size=20), min_size=2, max_size=40
)

SET = settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _rows(texts):
    return [{"url": f"u/{i:04d}", "warc_ts": i, "text": t} for i, t in enumerate(texts)]


@given(texts=texts_strategy)
@SET
def test_exact_dedup_equals_refmodel(ray_session, texts):
    rows = _rows(texts)
    ds = rd.from_pandas(pd.DataFrame(rows))
    kept = dedup_exact(ds, key_cols=("text",), order_cols=("warc_ts", "url")).to_pandas()
    ref = refmodel.dedup_hash(rows, keys=("text",))
    assert sorted(kept["url"]) == sorted(r["url"] for r in ref.kept)


@pytest.mark.parametrize("mode", ["tight", "loose"])
@given(texts=texts_strategy)
@SET
def test_adjacency_equals_refmodel(ray_session, mode, texts):
    rows = _rows(texts)
    ds = rd.from_pandas(pd.DataFrame(rows))
    res = dedup_adjacency(ds, mode=mode, order_cols=("warc_ts", "url"))
    ref = refmodel.dedup_sorted(rows, mode=mode)
    assert sorted(res.kept.to_pandas()["url"]) == sorted(r["url"] for r in ref.kept)


@given(texts=texts_strategy)
@SET
def test_containment_exact_equals_bruteforce(ray_session, texts):
    rows = _rows(texts)
    ds = rd.from_pandas(pd.DataFrame(rows))
    got = containment_edges(ds, anchors=None, id_col="url").to_pandas()
    got_set = set(zip(got["a"], got["b"])) if len(got) else set()
    want = {
        (a["url"], b["url"])
        for a in rows
        for b in rows
        if len(a["text"]) > len(b["text"]) and b["text"] in a["text"]
    }
    assert got_set == want
    # suffix-array verifier: identical edge set on the same repeat-rich texts
    sa = containment_edges(ds, anchors=None, id_col="url", verify="suffix_array").to_pandas()
    sa_set = set(zip(sa["a"], sa["b"])) if len(sa) else set()
    assert sa_set == want


@given(
    texts=st.lists(st.text(alphabet="ab", min_size=10, max_size=10), min_size=2, max_size=30),
    distance=st.integers(min_value=1, max_value=3),
)
@SET
def test_hamming_adjacency_equals_refmodel(ray_session, texts, distance):
    """Exact-mirror tail-hamming scan vs the serial reference model
    (same-length strings over {a,b} force rich hamming neighborhoods)."""
    rows = _rows(texts)
    ds = rd.from_pandas(pd.DataFrame(rows))
    res = dedup_adjacency(ds, mode="hamming", distance=distance, order_cols=("warc_ts", "url"))
    ref = refmodel.dedup_sorted(rows, mode="hamming", distance=distance)
    assert sorted(res.kept.to_pandas()["url"]) == sorted(r["url"] for r in ref.kept)


@given(
    texts=st.lists(st.text(alphabet="ab", min_size=10, max_size=10), min_size=4, max_size=30),
    distance=st.integers(min_value=1, max_value=3),
)
@SET
def test_hamming_adjacency_multiblock_equals_refmodel(ray_session, texts, distance):
    """The serial-chain hamming path with >1 block forced must still mirror
    the reference's run-carrying scan exactly (VERDICT r1 item 6)."""
    rows = _rows(texts)
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(5)
    res = dedup_adjacency(ds, mode="hamming", distance=distance, order_cols=("warc_ts", "url"))
    ref = refmodel.dedup_sorted(rows, mode="hamming", distance=distance)
    assert sorted(res.kept.to_pandas()["url"]) == sorted(r["url"] for r in ref.kept)


def _paired_rows(pairs):
    return [
        {"url": f"u/{i:04d}", "warc_ts": i, "text_1": a, "text_2": b}
        for i, (a, b) in enumerate(pairs)
    ]


@pytest.mark.parametrize("mode,distance", [("tight", 0), ("loose", 0), ("hamming", 2)])
@given(
    pairs=st.lists(
        st.tuples(
            st.text(alphabet="ab", min_size=4, max_size=10),
            st.text(alphabet="ab", min_size=4, max_size=10),
        ),
        min_size=2,
        max_size=30,
    )
)
@SET
def test_paired_adjacency_equals_refmodel(ray_session, mode, distance, pairs):
    """Paired-end sequence-based dedup (reference EP3): pair-lexicographic
    sort + both-mates predicates incl. the loose same-sided-overlap and
    both-longer head-advance rules — vs the serial paired reference model.
    Multi-block forced so seam chaining is exercised too."""
    rows = _paired_rows(pairs)
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)
    res = dedup_adjacency(
        ds,
        mode=mode,
        distance=distance,
        text_cols=("text_1", "text_2"),
        order_cols=("warc_ts", "url"),
    )
    ref = refmodel.dedup_sorted_paired(rows, mode=mode, distance=distance)
    assert sorted(res.kept.to_pandas()["url"]) == sorted(r["url"] for r in ref.kept)


@given(
    lkeys=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=25, unique=True),
    rkeys=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=25, unique=True),
)
@SET
def test_join_unordered_equals_refmodel(ray_session, lkeys, rkeys):
    """Unordered id-join matched/unmatched accounting vs the serial model
    (random overlapping/disjoint/skewed id sets — the reference's five
    unordered scenarios arise as special cases)."""
    from fastq_dupaway_ray.stages.join import join_unordered

    lrows = [{"url": f"k{k}", "warc_ts": i, "text": f"L{k}"} for i, k in enumerate(lkeys)]
    rrows = [{"url": f"k{k}", "warc_ts": i, "text": f"R{k}"} for i, k in enumerate(rkeys)]
    jr = join_unordered(
        rd.from_pandas(pd.DataFrame(lrows)), rd.from_pandas(pd.DataFrame(rrows)), key="url"
    )
    ref_pairs, ref_unmatched = refmodel.join_unordered(lrows, rrows, key="url")
    assert jr.matched == len(ref_pairs)
    assert jr.unmatched == ref_unmatched


@given(
    keys=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=300),
    n_blocks=st.integers(min_value=1, max_value=6),
    B=st.integers(min_value=1, max_value=64),
)
@SET
def test_hash_exchange_equals_pandas_groupby(ray_session, keys, n_blocks, B):
    """The task exchange (now under every slim shuffle AND adaptive in its
    reduce fan-out) must equal a plain pandas groupby-count for ANY key
    distribution, block layout, and configured bucket count — including
    skewed/colliding keys and blocks the repartition leaves empty."""
    import pyarrow as pa

    from fastq_dupaway_ray.stages.exchange import hash_exchange

    def bucket_counts(t):
        if t is None or t.num_rows == 0:
            return pa.table({"k": pa.array([], pa.uint64()), "n": pa.array([], pa.int64())})
        uk, n = np.unique(t["k"].to_numpy(), return_counts=True)
        return pa.table({"k": pa.array(uk, pa.uint64()), "n": pa.array(n, pa.int64())})

    ds = rd.from_pandas(pd.DataFrame({"k": np.array(keys, dtype=np.uint64)})).repartition(
        n_blocks
    )
    got = (
        hash_exchange(ds, "k", B, bucket_counts)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        pd.Series(np.array(keys, dtype=np.uint64))
        .value_counts()
        .rename_axis("k")
        .reset_index(name="n")
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["n"].to_numpy() == want["n"].to_numpy()).all()


@given(
    keys=st.lists(st.sampled_from("pqrst"), min_size=1, max_size=60),
    n=st.integers(min_value=1, max_value=5),
    parts=st.integers(min_value=1, max_value=6),
)
@SET
def test_cap_per_key_equals_pandas(ray_session, keys, n, parts):
    from fastq_dupaway_ray.stages.quota import cap_per_key

    df = pd.DataFrame(
        {"k": keys, "o": np.arange(len(keys), dtype=np.int64), "pay": "x"}
    )
    got = (
        cap_per_key(rd.from_pandas(df).repartition(parts), "k", "o", n)
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    exp = (
        df.sort_values(["k", "o"], kind="mergesort")
        .groupby("k", sort=False)
        .head(n)
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)


@given(
    toks=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=50),
    seq_len=st.integers(min_value=1, max_value=13),
    parts=st.integers(min_value=1, max_value=5),
)
@SET
def test_pack_sequences_equals_serial_scan(ray_session, toks, seq_len, parts):
    from fastq_dupaway_ray.stages.packing import pack_sequences

    df = pd.DataFrame(
        {
            "doc_id": np.arange(len(toks), dtype=np.int64),
            "text": [" ".join(["w"] * t) for t in toks],
        }
    )
    got = (
        pack_sequences(rd.from_pandas(df).repartition(parts), seq_len=seq_len)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    n_tok = np.array(toks, dtype=np.int64)
    off = np.concatenate([[0], np.cumsum(n_tok)[:-1]])
    assert got["n_tokens"].tolist() == n_tok.tolist()
    assert got["tok_offset"].tolist() == off.tolist()
    assert got["seq_id"].tolist() == (off // seq_len).tolist()


def test_sessionize_chunked_equals_legacy_randomized(ray_session):
    """Differential: random event streams through the chunked default and
    the legacy single-exchange path must produce identical sessions, over
    several gap/chunk configurations including chunk < gap."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.stages.windows import sessionize

    rng = np.random.default_rng(99)
    for trial, (gap_m, chunk_m) in enumerate(
        [(30, 1440), (30, 60), (90, 45), (7, 1)]
    ):
        n = 4000
        df = pd.DataFrame(
            {
                "user_id": rng.integers(0, 25, n),
                "ts": (
                    pd.Timestamp("2025-03-01").value // 1000
                    + rng.integers(0, 14 * 24 * 60, n) * 60_000_000
                    + rng.integers(0, 60_000_000, n)
                ).astype("datetime64[us]"),
                "value": np.round(rng.random(n), 2),
            }
        )
        src = rd.from_pandas(df).repartition(7)
        canon = lambda out: (
            out.to_pandas()
            .sort_values(["user_id", "session_start"])
            .reset_index(drop=True)
        )
        a = canon(
            sessionize(src, gap_minutes=gap_m, time_chunk_minutes=chunk_m)
        )
        b = canon(
            sessionize(src, gap_minutes=gap_m, time_chunk_minutes=None)
        )
        pd.testing.assert_frame_equal(a, b), (trial, gap_m, chunk_m)


def test_round_half_away_matches_duckdb_randomized():
    """round_half_away must agree with DuckDB ROUND on random values AND
    on constructed power-of-two ties at every digit count used."""
    import duckdb
    import numpy as np

    from fastq_dupaway_ray.util import round_half_away

    rng = np.random.default_rng(7)
    vals = np.concatenate(
        [
            rng.random(300) * 2000 - 1000,
            np.array([k / 512 for k in range(-8, 9)]),  # exact 6-digit ties
            np.array([k / 8 for k in range(-9, 9)]),  # exact 1-3 digit ties
        ]
    )
    for digits in (1, 2, 6):
        got = round_half_away(vals, digits)
        want = np.array(
            duckdb.sql(
                "SELECT round(v, $d) FROM (SELECT unnest($v::DOUBLE[]) AS v)",
                params={"v": [float(x) for x in vals], "d": digits},
            ).fetchall()
        ).ravel()
        assert np.allclose(got, want, rtol=0, atol=0), (
            digits,
            [(v, g, w) for v, g, w in zip(vals, got, want) if g != w][:5],
        )
