"""Unordered-join scenarios mirroring /root/reference/test/test_unordered.py:10-19
(shuffled, skewed, deletion, interleaved, not_overlapped)."""

import pandas as pd
import pytest

import ray
import ray.data as rd

from fastq_dupaway_ray import refmodel
from fastq_dupaway_ray.stages.join import join_unordered


@pytest.fixture(scope="module")
def frame(ray_session, pages_rows):
    return pd.DataFrame(pages_rows)


def _run(left: pd.DataFrame, right: pd.DataFrame):
    res = join_unordered(rd.from_pandas(left), rd.from_pandas(right), key="url")
    ref_pairs, ref_unmatched = refmodel.join_unordered(
        left.to_dict("records"), right.to_dict("records"), key="url"
    )
    assert res.matched == len(ref_pairs)
    assert res.unmatched == ref_unmatched
    got_keys = sorted(res.pairs.to_pandas()["url"])
    assert got_keys == sorted(l["url"] for l, _ in ref_pairs)


def test_shuffled(frame):
    _run(frame, frame.sample(frac=1.0, random_state=1))


def test_skewed(frame):
    _run(frame.iloc[:150], frame.iloc[100:])


def test_deletion(frame):
    _run(frame, frame.drop(frame.index[::3]))


def test_interleaved(frame):
    _run(frame.iloc[::2], frame.iloc[1::2].iloc[:5]._append(frame.iloc[::2].iloc[:40]))


def test_not_overlapped(frame):
    left = frame.iloc[:50].copy()
    right = frame.iloc[50:100].copy()
    res = join_unordered(rd.from_pandas(left), rd.from_pandas(right), key="url")
    assert res.matched == 0
    assert res.unmatched == 100


def test_tied_order_duplicates_keep_exactly_one(ray_session):
    """Advice r2: when duplicate keys TIE on every order column, the broadcast
    drop-filter cannot name the loser — the key must still keep exactly one
    row (shuffle fallback), not vanish from the output."""
    import datetime

    from fastq_dupaway_ray.stages.join import _first_per_key

    ts = datetime.datetime(2025, 1, 1)
    rows = []
    for i in range(100):
        for _ in range(2):  # two rows per key, identical warc_ts (tie)
            rows.append({"url": f"u{i:03d}", "warc_ts": ts, "text": f"t{i}"})
    out = _first_per_key(
        rd.from_pandas(pd.DataFrame(rows)), "url", ("warc_ts", "url")
    ).to_pandas()
    assert sorted(out["url"]) == sorted(f"u{i:03d}" for i in range(100))


def test_tied_order_duplicates_through_join(ray_session):
    """End-to-end: the tied-duplicate left side still joins every key."""
    import datetime

    ts = datetime.datetime(2025, 1, 1)
    left = pd.DataFrame(
        [{"url": f"u{i}", "warc_ts": ts, "text": f"l{i}"} for i in range(20)] * 2
    )
    right = pd.DataFrame(
        [{"url": f"u{i}", "warc_ts": ts, "text": f"r{i}"} for i in range(20)]
    )
    res = join_unordered(rd.from_pandas(left), rd.from_pandas(right), key="url")
    assert res.matched == 20
    assert res.unmatched == 0


def test_anti_join_both_limbs_match_pandas(ray_session):
    import numpy as np

    from fastq_dupaway_ray.stages.join import anti_join

    rng = np.random.default_rng(3)
    L = pd.DataFrame({"key": rng.integers(0, 900, 5000), "val": rng.normal(size=5000)})
    R = pd.DataFrame({"key": rng.integers(400, 1300, 3000), "x": 1})
    exp = (
        L[~L["key"].isin(R["key"])].sort_values(["key", "val"]).reset_index(drop=True)
    )
    for budget in (2_000_000, 0):  # broadcast limb, then exchange+left_outer limb
        got = (
            anti_join(
                rd.from_pandas(L).repartition(7),
                rd.from_pandas(R).repartition(5),
                "key",
                broadcast_budget=budget,
            )
            .to_pandas()
            .sort_values(["key", "val"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["key", "val"]], exp[["key", "val"]])


def test_anti_join_empty_right_is_identity(ray_session):
    from fastq_dupaway_ray.stages.join import anti_join

    L = pd.DataFrame({"key": [f"k{i % 50}" for i in range(300)], "v": range(300)})
    R = pd.DataFrame({"key": pd.Series([], dtype=object)})
    assert len(anti_join(rd.from_pandas(L), rd.from_pandas(R), "key").to_pandas()) == 300


def test_anti_join_fallback_int_keys(ray_session):
    """The exchange + left_outer limb on int64 keys: the distinct-keys
    reducer must emit the key's REAL dtype (its zero-row branch derives the
    schema from the slice rather than hardcoding string — defensive, since
    the adaptive fan-out collapses tiny exchanges to one reducer)."""
    import numpy as np

    from fastq_dupaway_ray.stages.join import anti_join

    L = pd.DataFrame({"key": np.array([1, 2, 3, 4, 5] * 2000, dtype=np.int64),
                      "v": np.arange(10000)})
    R = pd.DataFrame({"key": np.array([2, 4] * 3000, dtype=np.int64)})
    got = anti_join(
        rd.from_pandas(L).repartition(8),
        rd.from_pandas(R).repartition(8),
        "key",
        broadcast_budget=0,  # force the exchange + left_outer limb
    ).to_pandas()
    assert sorted(got["key"].unique()) == [1, 3, 5]
    assert len(got) == 6000


def test_anti_join_null_keys_survive_both_limbs(ray_session):
    """Null-keyed left rows match nothing and must be KEPT (SQL equality);
    null right keys match nothing. Both limbs, string keys."""
    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.stages.join import anti_join

    L = pd.DataFrame({"key": ["a", None, "b", "c", None], "v": range(5)})
    R = pd.DataFrame({"key": ["b", None, "x"]})
    for budget in (1_000_000, 1):  # broadcast limb, then exchange limb
        got = (
            anti_join(
                rd.from_pandas(L).repartition(2),
                rd.from_pandas(R).repartition(2),
                "key",
                broadcast_budget=budget,
            )
            .to_pandas()
            .sort_values("v")
        )
        assert got["v"].tolist() == [0, 1, 3, 4], budget


def test_anti_join_groupby_born_left_blocks(ray_session):
    """A left dataset born from groupby().map_groups() (which can emit
    schema-less empty blocks) must pass through the exchange limb."""
    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.stages.join import anti_join

    L = pd.DataFrame({"key": [f"k{i%7}" for i in range(60)], "v": range(60)})
    lds = (
        rd.from_pandas(L)
        .repartition(8)
        .groupby("key")
        .map_groups(lambda df: df, batch_format="pandas")
    )
    R = pd.DataFrame({"key": ["k0", "k1"]})
    got = anti_join(
        lds, rd.from_pandas(R), "key", broadcast_budget=1
    ).to_pandas()
    assert sorted(got["key"].unique()) == ["k2", "k3", "k4", "k5", "k6"]


def test_anti_join_int64_keys_above_2_53_with_nulls_match_duckdb(ray_session):
    """Nullable int64 keys at and above 2**53 on both limbs, against DuckDB's
    NOT EXISTS. Neighbouring keys (2**53 + 2j vs 2**53 + 2j + 1) collapse to
    one float64, so any float decay on the probe, the broadcast key set, the
    exchange hash or the bucket filter shows as a wrong row. Blocks with and
    without nulls are mixed, so a per-block dtype change would also move a
    key's exchange bucket."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    from fastq_dupaway_ray.stages.join import anti_join

    big = 2**53
    rng = np.random.default_rng(7)
    lkeys = [big + int(k) for k in rng.integers(0, 400, 3000)] + [2**62 + 1, 2**62]
    lkeys = [None if i % 11 == 0 else k for i, k in enumerate(lkeys)]
    # the right side holds only the EVEN offsets: every odd left key has a
    # float64 twin in the right set but no int64 match
    rkeys = [big + 2 * int(k) for k in rng.integers(0, 200, 900)] + [2**62, None]
    L = pa.table({"key": pa.array(lkeys, pa.int64()),
                  "v": pa.array(np.arange(len(lkeys)), pa.int64())})
    R = pa.table({"key": pa.array(rkeys, pa.int64())})
    con = duckdb.connect()
    con.register("L", L)
    con.register("R", R)
    exp = con.execute(
        "SELECT v FROM L WHERE NOT EXISTS (SELECT 1 FROM R WHERE R.key = L.key) ORDER BY v"
    ).fetchnumpy()["v"].tolist()
    assert exp and any(L["key"][i].as_py() is None for i in exp)
    # mixed blocks: null-free slices next to null-bearing ones, on both sides
    # (rows 1-10 hold no null; row 0 is a null-only block)
    lblocks = [L.slice(0, 1), L.slice(1, 10), L.slice(11, 1500), L.slice(1511)]
    rblocks = [R.slice(0, 450), R.slice(450)]
    for budget in (2_000_000, 0):  # broadcast limb, then the exchange limb
        got = anti_join(
            rd.from_arrow(lblocks), rd.from_arrow(rblocks), "key",
            broadcast_budget=budget,
        )
        vals = sorted(
            v for t in ray.get(got.to_arrow_refs()) for v in t["v"].to_pylist()
        )
        assert vals == exp, budget
