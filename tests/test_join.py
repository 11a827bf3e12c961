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

    ts = datetime.datetime(2025, 1, 1)
    rows = []
    for i in range(100):
        for _ in range(2):  # two rows per key, identical warc_ts (tie)
            rows.append({"url": f"u{i:03d}", "warc_ts": ts, "text": f"t{i}"})
    # every key once on the right: the pairs are the left's first rows
    keys = pd.DataFrame({"url": [f"u{i:03d}" for i in range(100)]})
    out = join_unordered(
        rd.from_pandas(pd.DataFrame(rows)), rd.from_pandas(keys), "url", ("warc_ts", "url")
    ).pairs.to_pandas()
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


def test_anti_join_both_limbs_match_pandas(ray_session, monkeypatch):
    import numpy as np

    from fastq_dupaway_ray.stages import exchange
    from fastq_dupaway_ray.stages.join import anti_join

    rng = np.random.default_rng(3)
    L = pd.DataFrame({"key": rng.integers(0, 900, 5000), "val": rng.normal(size=5000)})
    R = pd.DataFrame({"key": rng.integers(400, 1300, 3000), "x": 1})
    exp = (
        L[~L["key"].isin(R["key"])].sort_values(["key", "val"]).reset_index(drop=True)
    )
    for budget in (2_000_000, 0):  # broadcast limb, then the exchange limb
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
        got = (
            anti_join(
                rd.from_pandas(L).repartition(7),
                rd.from_pandas(R).repartition(5),
                "key",
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


def test_anti_join_fallback_int_keys(ray_session, monkeypatch):
    """The exchange limb on int64 keys: the buckets keep the left rows'
    REAL dtype (zero-row buckets take the slices' schema rather than a
    hardcoded one — defensive, since the adaptive fan-out collapses tiny
    exchanges to one reducer)."""
    import numpy as np

    from fastq_dupaway_ray.stages import exchange
    from fastq_dupaway_ray.stages.join import anti_join

    L = pd.DataFrame({"key": np.array([1, 2, 3, 4, 5] * 2000, dtype=np.int64),
                      "v": np.arange(10000)})
    R = pd.DataFrame({"key": np.array([2, 4] * 3000, dtype=np.int64)})
    monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", 0)  # force the exchange limb
    got = anti_join(
        rd.from_pandas(L).repartition(8),
        rd.from_pandas(R).repartition(8),
        "key",
    ).to_pandas()
    assert sorted(got["key"].unique()) == [1, 3, 5]
    assert len(got) == 6000


def test_anti_join_null_keys_survive_both_limbs(ray_session, monkeypatch):
    """Null-keyed left rows match nothing and must be KEPT (SQL equality);
    null right keys match nothing. Both limbs, string keys."""
    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.stages import exchange
    from fastq_dupaway_ray.stages.join import anti_join

    L = pd.DataFrame({"key": ["a", None, "b", "c", None], "v": range(5)})
    R = pd.DataFrame({"key": ["b", None, "x"]})
    for budget in (1_000_000, 1):  # broadcast limb, then exchange limb
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
        got = (
            anti_join(
                rd.from_pandas(L).repartition(2),
                rd.from_pandas(R).repartition(2),
                "key",
            )
            .to_pandas()
            .sort_values("v")
        )
        assert got["v"].tolist() == [0, 1, 3, 4], budget


def test_anti_join_groupby_born_left_blocks(ray_session, monkeypatch):
    """A left dataset born from groupby().map_groups() (which can emit
    schema-less empty blocks) must pass through the exchange limb."""
    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.stages import exchange
    from fastq_dupaway_ray.stages.join import anti_join

    L = pd.DataFrame({"key": [f"k{i%7}" for i in range(60)], "v": range(60)})
    lds = (
        rd.from_pandas(L)
        .repartition(8)
        .groupby("key")
        .map_groups(lambda df: df, batch_format="pandas")
    )
    R = pd.DataFrame({"key": ["k0", "k1"]})
    monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", 1)
    got = anti_join(lds, rd.from_pandas(R), "key").to_pandas()
    assert sorted(got["key"].unique()) == ["k2", "k3", "k4", "k5", "k6"]


def test_anti_join_int64_keys_above_2_53_with_nulls_match_duckdb(ray_session, monkeypatch):
    """Nullable int64 keys at and above 2**53 on both limbs, against DuckDB's
    NOT EXISTS. Neighbouring keys (2**53 + 2j vs 2**53 + 2j + 1) collapse to
    one float64, so any float decay on the probe, the broadcast key set, the
    exchange hash or the bucket filter shows as a wrong row. Blocks with and
    without nulls are mixed, so a per-block dtype change would also move a
    key's exchange bucket."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    from fastq_dupaway_ray.stages import exchange
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
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
        got = anti_join(rd.from_arrow(lblocks), rd.from_arrow(rblocks), "key")
        vals = sorted(
            v for t in ray.get(got.to_arrow_refs()) for v in t["v"].to_pylist()
        )
        assert vals == exp, budget


def _duckdb_join(L, R, key: str, order: str, payload: str):
    """DuckDB oracle: the first row per key by ``order`` on each side
    (``SQL_JOIN_ORDERS_CUSTOMER``), inner-joined; and the distinct-key
    counts of ``SQL_JOIN_UNMATCHED_COUNTS``."""
    import duckdb

    con = duckdb.connect()
    con.register("lhs", L)
    con.register("rhs", R)
    first = "(SELECT * FROM {t} QUALIFY row_number() OVER (PARTITION BY {k} ORDER BY {o}) = 1)"
    pairs = con.execute(
        f"""SELECT l.{key}, l.{order} AS {order}_l, l.{payload} AS {payload}_l,
                   r.{order} AS {order}_r, r.{payload} AS {payload}_r
            FROM {first.format(t='lhs', k=key, o=order)} l
            JOIN {first.format(t='rhs', k=key, o=order)} r ON l.{key} = r.{key}"""
    ).fetchall()
    counts = con.execute(
        f"""WITH l AS (SELECT DISTINCT {key} AS key FROM lhs),
                 r AS (SELECT DISTINCT {key} AS key FROM rhs),
                 m AS (SELECT count(*) AS matched FROM l JOIN r USING (key))
            SELECT m.matched,
                   (SELECT count(*) FROM l) + (SELECT count(*) FROM r) - 2 * m.matched,
                   (SELECT count(*) FROM l), (SELECT count(*) FROM r)
            FROM m"""
    ).fetchone()
    return sorted(pairs, key=repr), tuple(counts)


def test_join_unordered_matches_duckdb(ray_session):
    """First row per key, inner join and distinct-key counts against
    DuckDB: string and int64 keys, null keys on both sides (they match
    nothing and count as one distinct key), int64 keys at and above 2**53
    next to nulls (a float64 decay merges 2**53 with 2**53 + 1), a repeated
    unmatched key, and order ties (tied rows are identical, so any pick is
    the oracle's)."""
    import pyarrow as pa

    def table(keys, key_type, order, text):
        return pa.table(
            {
                "key": pa.array(keys, key_type),
                "o": pa.array(order, pa.int64()),
                "x": pa.array(text, pa.string()),
            }
        )

    big = 2**53
    cases = {
        "string": (
            table(["a", "a", None, None, "b", "v", "v", "t", "t"], pa.string(),
                  [2, 1, 0, 5, 3, 1, 1, 4, 4],
                  ["La2", "La1", "Ln1", "Ln2", "Lb", "Lv", "Lv", "Lt", "Lt"]),
            table(["a", None, "b", "b", "w", "t"], pa.string(),
                  [0, 1, 9, 7, 1, 2], ["Ra", "Rn", "Rb2", "Rb1", "Rw", "Rt"]),
        ),
        "int64": (
            table([big, big + 1, big + 1, None, 2**62 + 1, big + 2, big + 2, None], pa.int64(),
                  [5, 3, 1, 0, 2, 4, 4, 9], ["L0", "L1b", "L1a", "Ln", "L62", "L2", "L2", "Ln2"]),
            table([big + 1, big + 3, None, 2**62 + 1, big, big], pa.int64(),
                  [1, 2, 3, 4, 8, 6], ["R1", "R3", "Rn", "R62", "R0b", "R0a"]),
        ),
    }
    for name, (L, R) in cases.items():
        want_pairs, want_counts = _duckdb_join(L, R, "key", "o", "x")
        # mixed blocks: null-free slices next to null-bearing ones
        lds = rd.from_arrow([L.slice(0, 2), L.slice(2, 3), L.slice(5)])
        rds = rd.from_arrow([R.slice(0, 1), R.slice(1)])
        res = join_unordered(lds, rds, key="key", order_cols=("o",))
        got = res.pairs.to_pandas()
        got_pairs = sorted(
            zip(got["key"].tolist(), got["o_l"], got["x_l"], got["o_r"], got["x_r"]), key=repr
        )
        assert got_pairs == want_pairs, name
        got_counts = (res.matched, res.unmatched, res.left_total, res.right_total)
        assert got_counts == want_counts, name


def test_join_unordered_with_an_empty_side(ray_session):
    """A side whose every block was filtered away reaches the pairing with
    no columns at all; the join is empty and the other side's distinct keys
    are all unmatched."""
    rows = rd.from_pandas(pd.DataFrame({"url": ["a", "b", "b"], "text": ["x", "y", "z"]}))
    none = rows.filter(lambda r: False)
    for left, right, want in ((rows, none, (0, 2, 2, 0)), (none, rows, (0, 2, 0, 2))):
        res = join_unordered(left, right)
        assert (res.matched, res.unmatched, res.left_total, res.right_total) == want
        assert res.pairs.count() == 0


def test_join_shaped_steps_never_call_dataset_join_or_groupby(ray_session, monkeypatch):
    """With ``Dataset.join`` and ``Dataset.groupby`` patched to raise, the
    unordered join, the anti-join, verify above its edge budget, the as-of
    and range joins and both set ops run and match their unpatched results
    or DuckDB oracles (the last three on their sweep queries' sf0.001
    inputs, built before the patch)."""
    import duckdb
    import numpy as np

    import ray.data

    from fastq_dupaway_ray import queries
    from fastq_dupaway_ray.functions.sketches import MinHashParams
    from fastq_dupaway_ray.stages import minhash as mh
    from fastq_dupaway_ray.stages.asof import asof_join
    from fastq_dupaway_ray.stages.join import anti_join
    from fastq_dupaway_ray.stages.rangejoin import range_join
    from fastq_dupaway_ray.stages.setops import keyed_set_op
    from test_oracle import SF, TABLES, _canon

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")

    def oracle(sql):
        return _canon(con.execute(sql).fetchdf())

    # inputs and unpatched results
    rng = np.random.default_rng(11)
    L = pd.DataFrame({"url": [f"u{i}" for i in rng.integers(0, 80, 300)], "warc_ts": np.arange(300),
                      "text": [f"l{i}" for i in range(300)]})
    R = pd.DataFrame({"url": [f"u{i}" for i in rng.integers(40, 120, 200)], "warc_ts": np.arange(200),
                      "text": [f"r{i}" for i in range(200)]})

    def joined():
        res = join_unordered(rd.from_pandas(L), rd.from_pandas(R), key="url")
        return _canon(res.pairs.to_pandas()), (res.matched, res.unmatched)

    def anti():
        return _canon(anti_join(rd.from_pandas(L), rd.from_pandas(R), "url").to_pandas())

    docs = pd.DataFrame({"url": [f"d{i}" for i in range(60)],
                         "text": [f"shared words of page {i % 20} " * 4 for i in range(60)]})
    band_rows = rd.from_pandas(docs).map_batches(
        mh.sign_and_band, fn_kwargs={"params": MinHashParams(), "numeric_ids": True},
        batch_format="pyarrow",
    )
    edges = mh.lsh_candidate_edges(band_rows, numeric_ids=True).materialize()

    def verified():
        out = mh.verify_edges_jaccard(edges, rd.from_pandas(docs), 0.5).to_pandas()
        return _canon(out)

    ev = rd.read_parquet(f"{SF}/events.parquet", columns=["event_id", "user_id", "ts"]).materialize()
    od = rd.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey", "o_orderdate"]).materialize()
    sessions = queries.q_events_sessionize(SF).materialize()
    doc_rows = queries._docs(SF)
    short = doc_rows.filter(expr="n_chars < 200").select_columns(["text"]).materialize()
    en = doc_rows.filter(expr="lang == 'en'").select_columns(["text"]).materialize()
    before = (joined(), anti(), verified())
    monkeypatch.setattr(mh, "VERIFY_EDGE_BUDGET", 0)
    assert len(before[2]) > 0 and before[2].equals(verified())

    def refuse(*_a, **_k):
        raise AssertionError("Dataset.join / Dataset.groupby called")

    monkeypatch.setattr(ray.data.Dataset, "join", refuse)
    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    got_join, got_counts = joined()
    assert got_join.equals(before[0][0]) and got_counts == before[0][1]
    assert anti().equals(before[1])
    assert verified().equals(before[2])
    asof = asof_join(
        ev, od, key="user_id", left_time="ts", right_time="o_orderdate",
        right_key="o_custkey", left_cols=("event_id",),
    ).select_columns(["event_id", "user_id", "ts", "o_orderdate"])
    rng_join = range_join(
        ev, sessions, key="user_id", left_time="ts",
        right_lo="session_start", right_hi="session_end", left_cols=("event_id",),
    ).select_columns(["event_id", "user_id", "ts", "session_start", "session_end"])
    for got, sql in (
        (asof, queries.SQL_ASOF_JOIN_EVENTS_ORDERS),
        (rng_join, queries.SQL_RANGE_JOIN_EVENTS_SESSIONS),
        (keyed_set_op(short, en, "intersect"), queries.SQL_SET_INTERSECT_DOCS),
        (keyed_set_op(short, en, "except"), queries.SQL_SET_EXCEPT_DOCS),
    ):
        mine, want = _canon(got.to_pandas()), oracle(sql)
        assert len(mine) > 0
        pd.testing.assert_frame_equal(mine, want, check_dtype=False)
