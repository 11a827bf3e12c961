"""Cross-corpus dedup (stages/crossdedup.py): exact + MinHash near modes,
broadcast and payload-exchange limbs, vs pandas / planted-arithmetic oracles."""

import pandas as pd
import pytest
import ray.data as rd

from fastq_dupaway_ray.queries import NEAR_MARKER, _near_text
from fastq_dupaway_ray.stages import exchange
from fastq_dupaway_ray.stages.crossdedup import cross_dedup_exact, cross_dedup_minhash


def _exact_corpora():
    a = pd.DataFrame(
        {
            "url": [f"a{i}" for i in range(300)],
            "text": [f"ref doc {i} content" for i in range(300)],
        }
    )
    b = pd.DataFrame(
        {
            "url": [f"b{i}" for i in range(400)],
            "text": [
                f"ref doc {i} content" if i % 3 == 0 else f"fresh doc {i}"
                for i in range(400)
            ],
        }
    )
    # B-internal duplicate NOT present in A: must survive (twice)
    b = pd.concat(
        [b, pd.DataFrame({"url": ["bx"], "text": ["fresh doc 1"]})], ignore_index=True
    )
    return a, b


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "shuffle"])
def test_cross_dedup_exact_matches_anti_membership(ray_session, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
    a, b = _exact_corpora()
    counters = {}
    out = (
        cross_dedup_exact(
            rd.from_pandas(b).repartition(5),
            rd.from_pandas(a).repartition(4),
            counters=counters,
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    exp = b[~b.text.isin(set(a.text))].sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, exp)
    # i%3==0 for i<300 only (A has 300 docs; "ref doc 3xx" is not in A)
    assert counters["contaminated_identities"] == 100
    assert "bx" in set(out.url)  # B-internal dup untouched


def test_cross_dedup_exact_no_contamination_is_identity(ray_session):
    a = pd.DataFrame({"url": ["a"], "text": ["nothing shared"]})
    b = pd.DataFrame({"url": [f"b{i}" for i in range(40)], "text": [f"t{i}" for i in range(40)]})
    out = cross_dedup_exact(rd.from_pandas(b), rd.from_pandas(a)).to_pandas()
    assert len(out) == 40


def _near_corpora():
    rows_a, rows_b = [], []
    for i in range(120):
        base = _near_text(i)
        rows_a.append({"url": f"d{i}", "text": base})
        if i % 10 == 0:  # exact copy of a reference doc -> drop
            rows_b.append({"url": f"e{i}", "text": base})
        if i % 11 == 0:  # above-threshold near copy -> drop
            rows_b.append({"url": f"m{i}", "text": base + NEAR_MARKER})
        if i % 13 == 0:  # dissimilar (reversed) -> keep
            rows_b.append({"url": f"r{i}", "text": base[::-1]})
        rows_b.append({"url": f"u{i}", "text": _near_text(i + 7_000_000)})  # fresh
        if i % 17 == 0:  # B-internal near pair: BOTH must survive
            t8 = _near_text(i + 8_000_000)
            rows_b.append({"url": f"p{i}", "text": t8})
            rows_b.append({"url": f"q{i}", "text": t8 + NEAR_MARKER})
    return pd.DataFrame(rows_a), pd.DataFrame(rows_b)


def test_cross_dedup_minhash_presigned_reference_matches_direct(ray_session, tmp_path):
    """Incremental mode: A's band rows persisted to parquet by
    sign_reference_bands, reloaded, and passed as reference_bands= must
    yield the IDENTICAL kept set as the direct (sign-everything) run."""
    import ray.data as rdd

    from fastq_dupaway_ray.stages.crossdedup import sign_reference_bands

    a, b = _near_corpora()
    bands_dir = str(tmp_path / "a_bands")
    sign_reference_bands(rd.from_pandas(a).repartition(3)).write_parquet(bands_dir)
    direct = cross_dedup_minhash(
        rd.from_pandas(b).repartition(4), rd.from_pandas(a).repartition(4)
    ).to_pandas()
    incremental = cross_dedup_minhash(
        rd.from_pandas(b).repartition(4),
        rd.from_pandas(a).repartition(4),
        reference_bands=rdd.read_parquet(bands_dir),
    ).to_pandas()
    assert sorted(incremental.url) == sorted(direct.url)
    exp_drop = {u for u in b.url if u[0] in "em"}
    assert set(b.url) - set(incremental.url) == exp_drop


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "shuffle"])
def test_cross_dedup_minhash_drops_planted_contamination(ray_session, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
    a, b = _near_corpora()
    out = cross_dedup_minhash(
        rd.from_pandas(b).repartition(4),
        rd.from_pandas(a).repartition(4),
    ).to_pandas()
    exp_drop = {u for u in b.url if u[0] in "em"}
    assert set(b.url) - set(out.url) == exp_drop
    assert list(out.columns) == ["url", "text"]
    # B-internal near pairs both survived (cross dedup must not dedup B)
    assert {u for u in out.url if u[0] in "pq"} == {u for u in b.url if u[0] in "pq"}
