"""Tiny-input robustness: every pipeline must handle inputs far smaller than
the shuffle width (empty partitions reach map_groups as schema-less pandas
frames — the failure mode the hypothesis suite first exposed)."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

TINY = [
    {"url": "u/0", "warc_ts": 0, "text": "aaaa bbbb cccc dddd"},
    {"url": "u/1", "warc_ts": 1, "text": "aaaa bbbb cccc dddd"},
    {"url": "u/2", "warc_ts": 2, "text": "eeee ffff gggg hhhh"},
]


@pytest.fixture()
def tiny(ray_session):
    return rd.from_pandas(pd.DataFrame(TINY))


def test_tiny_minhash(tiny):
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup

    out = run_dedup(tiny, DedupConfig(mode="minhash"))
    assert out.metrics["kept"] == 2


def test_tiny_simhash(tiny):
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup

    out = run_dedup(tiny, DedupConfig(mode="simhash", distance=3))
    assert out.metrics["kept"] == 2


def test_tiny_exact_and_adjacency(tiny):
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup

    for mode in ("exact", "tight", "loose"):
        out = run_dedup(tiny, DedupConfig(mode=mode))
        assert out.metrics["kept"] == 2, mode


def test_tiny_single_row(ray_session):
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup

    one = rd.from_pandas(pd.DataFrame(TINY[:1]))
    for mode in ("exact", "minhash", "simhash", "tight", "loose"):
        out = run_dedup(one, DedupConfig(mode=mode))
        assert out.metrics["kept"] == 1, mode


def test_tiny_asof_and_range(ray_session):
    from fastq_dupaway_ray.stages.asof import asof_join
    from fastq_dupaway_ray.stages.rangejoin import range_join

    left = rd.from_pandas(pd.DataFrame({"k": [1], "t": [10], "ev": ["x"]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1], "rt": [5]}))
    out = asof_join(left, right, key="k", left_time="t", right_time="rt", left_cols=("ev",)).to_pandas()
    assert len(out) == 1 and out.iloc[0]["rt"] == 5

    intervals = rd.from_pandas(pd.DataFrame({"k": [1], "lo": [0], "hi": [20]}))
    rj = range_join(left, intervals, key="k", left_time="t", right_lo="lo", right_hi="hi", left_cols=("ev",)).to_pandas()
    assert len(rj) == 1


def test_asof_join_logs_no_schema_warning(ray_session):
    """Both sides meet in one Arrow ``cogroup``, so no operator
    emits blocks of two schemas (Ray logs "different schema" when one does),
    and every left row gets the latest right row at or before it."""
    import datetime
    import logging

    from fastq_dupaway_ray.stages.asof import asof_join

    epoch = datetime.datetime(2025, 1, 1)
    ev = pd.DataFrame(
        {
            "event_id": np.arange(40, dtype=np.int64),
            "user_id": np.arange(40, dtype=np.int64) % 7,
            "ts": [epoch + datetime.timedelta(hours=3 * i) for i in range(40)],
        }
    )
    od = pd.DataFrame(
        {
            "o_custkey": np.arange(30, dtype=np.int64) % 9,
            "o_orderdate": [epoch + datetime.timedelta(hours=5 * i) for i in range(30)],
        }
    )
    records = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    handler = Capture(level=logging.WARNING)
    log.addHandler(handler)
    level = log.level
    log.setLevel(logging.WARNING)  # the session quiets ray.data to ERROR
    try:
        out = asof_join(
            rd.from_pandas(ev).repartition(4), rd.from_pandas(od).repartition(3),
            key="user_id", left_time="ts", right_time="o_orderdate",
            right_key="o_custkey", left_cols=("event_id",),
        ).select_columns(["event_id", "user_id", "ts", "o_orderdate"]).to_pandas()
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    assert not [m for m in records if "different schema" in m]
    want = pd.merge_asof(
        ev.sort_values("ts"), od.rename(columns={"o_custkey": "user_id"}).sort_values("o_orderdate"),
        by="user_id", left_on="ts", right_on="o_orderdate", direction="backward",
    ).dropna(subset=["o_orderdate"])
    got = sorted(zip(out["event_id"], out["o_orderdate"]))
    assert got == sorted(zip(want["event_id"], want["o_orderdate"]))
    assert 0 < len(got) < len(ev)


def test_tiny_embedding_neardup(ray_session):
    from fastq_dupaway_ray.stages.ann import embedding_neardup_exact, embedding_neardup_lsh

    vecs = rd.from_pandas(
        pd.DataFrame(
            {
                "vec_id": [1, 2, 3],
                "embedding": [np.ones(8), np.ones(8), -np.ones(8)],
            }
        )
    )
    ex = embedding_neardup_exact(vecs, threshold=0.9).to_pandas()
    assert set(zip(ex["a"], ex["b"])) == {(1, 2)}
    lsh = embedding_neardup_lsh(vecs, threshold=0.9).to_pandas()
    pairs = set(zip(lsh["a"], lsh["b"])) if len(lsh) else set()
    assert pairs <= {(1, 2)}


def test_tiny_containment_and_hamming(tiny, ray_session):
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup
    from fastq_dupaway_ray.stages.containment import containment_edges

    edges = containment_edges(tiny, anchors=None, id_col="url").to_pandas()
    got = set(zip(edges["a"], edges["b"])) if len(edges) else set()
    assert got == set()  # equal-length texts: no strict containment
    out = run_dedup(tiny, DedupConfig(mode="hamming", distance=1))
    assert out.metrics["kept"] == 2  # chain path on a tiny input

    one = rd.from_pandas(pd.DataFrame(TINY[:1]))
    assert len(containment_edges(one, anchors=4, id_col="url").to_pandas()) == 0


def test_tiny_paired_modes(ray_session):
    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup

    rows = [
        {"url": "a", "warc_ts": 0, "text_1": "xx yy", "text_2": "pp qq"},
        {"url": "b", "warc_ts": 1, "text_1": "xx yy", "text_2": "pp qq"},
        {"url": "c", "warc_ts": 2, "text_1": "xx yy", "text_2": "rr ss"},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    for mode in ("tight", "loose", "hamming", "simhash"):
        out = run_dedup(
            ds,
            DedupConfig(
                mode=mode,
                text_cols=("text_1", "text_2"),
                key_cols=("text_1", "text_2"),
                distance=0,
            ),
        )
        assert out.metrics["kept"] == 2, mode  # c differs on mate 2


def test_exchange_skips_schema_less_empty_blocks(ray_session):
    """A lazy map over an empty block yields no batches, so its output block
    is SCHEMA-LESS (zero columns). The task exchange must drop such blocks by
    metadata — concat/select on them crashed the paired CLI on disjoint
    inputs (empty inner join upstream of dedup_exact)."""
    import pyarrow as pa

    from fastq_dupaway_ray.stages.exchange import hash_exchange

    def empty_out(df: pd.DataFrame) -> pd.DataFrame:
        return df.iloc[0:0]

    base = rd.from_pandas(pd.DataFrame({"k": np.arange(8, dtype=np.uint64)}))
    emptied = base.map_batches(empty_out, batch_format="pandas").map_batches(
        lambda t: t, batch_format="pyarrow"
    )

    def per_bucket(t):
        if t is None:
            return pa.table({"k": pa.array([], pa.uint64())})
        return t

    out = hash_exchange(emptied, "k", 4, per_bucket)
    assert out.count() == 0
    # mixed: one real block + schema-less empties still routes every row
    mixed = base.union(emptied)
    out2 = hash_exchange(mixed, "k", 4, per_bucket)
    assert sorted(out2.to_pandas()["k"]) == list(range(8))


def test_exchange_adaptive_fanout_keeps_keys_colocated(ray_session):
    """The exchange sizes its reduce fan-out to the materialized row count
    (>=4096 rows per reducer, capped at the configured B) so oracle-scale
    inputs stop paying B fixed-cost reduce tasks. The invariant that makes
    any fan-out correct: every key's rows land in exactly ONE fn call."""
    import pyarrow as pa

    from fastq_dupaway_ray.stages.exchange import hash_exchange

    def bucket_counts(t):
        if t is None or t.num_rows == 0:
            return pa.table({"k": pa.array([], pa.uint64()), "n": pa.array([], pa.int64())})
        k = t["k"].to_numpy()
        uk, n = np.unique(k, return_counts=True)
        return pa.table({"k": pa.array(uk, pa.uint64()), "n": pa.array(n, pa.int64())})

    # tiny input, huge configured B -> collapses to one reducer; every key
    # still appears exactly once with its full count
    tiny = rd.from_pandas(
        pd.DataFrame({"k": np.arange(8, dtype=np.uint64).repeat(3)})
    ).repartition(4)
    out = hash_exchange(tiny, "k", 64, bucket_counts).to_pandas()
    assert sorted(out["k"]) == list(range(8))
    assert (out["n"] == 3).all()

    # medium input -> multiple reducers; same invariant
    med = rd.from_pandas(
        pd.DataFrame({"k": (np.arange(20_000, dtype=np.uint64) % 100)})
    ).repartition(8)
    out2 = hash_exchange(med, "k", 64, bucket_counts).to_pandas()
    assert len(out2) == 100  # each key in exactly one fn call
    assert (out2["n"] == 200).all()
