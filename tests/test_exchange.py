"""The task hash exchange (stages/exchange.py): fan-out sizing under
simulated cluster widths, key-exactness at every width, empty and
pandas-lineage inputs, and the block/broadcast helpers that live with it."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from fastq_dupaway_ray.stages import exchange
from fastq_dupaway_ray.stages.exchange import (
    EXCHANGE_BYTES_PER_REDUCER,
    EXCHANGE_ROWS_PER_REDUCER,
    exchange_fanout,
    fetch_cached,
    hash_exchange,
    nonempty_block_refs,
)


def test_fanout_rows_floor():
    # tiny exchange collapses to one reducer regardless of cluster width
    for cap in (8, 32, 128, 1024):
        assert exchange_fanout(cap, rows=500, size_bytes=8_000) == 1
    # row-bound exchange: 1M slim rows -> rows floor, capped by b_cap
    rows = 1_000_000
    want = rows // EXCHANGE_ROWS_PER_REDUCER
    assert exchange_fanout(10_000, rows, rows * 16) == want
    assert exchange_fanout(64, rows, rows * 16) == 64  # cap binds


def test_fanout_bytes_floor_wide_rows():
    """KB-scale payload rows: bytes must size the exchange where the row
    count alone would under-provision reducers."""
    rows = 100_000
    size = rows * 2_048  # 2 KB/row payload shuffle ~ 200 MB
    by_rows = rows // EXCHANGE_ROWS_PER_REDUCER
    by_bytes = size // EXCHANGE_BYTES_PER_REDUCER
    assert by_bytes > by_rows  # the scenario this floor exists for
    assert exchange_fanout(1_024, rows, size) == by_bytes


def test_fanout_unknown_rows_keeps_cap():
    assert exchange_fanout(96, rows=0, size_bytes=0, rows_known=False) == 96


@pytest.mark.parametrize("b_cap", [8, 64, 512])  # ~2, 16, 128-node clusters
def test_exchange_key_exact_at_simulated_cluster_widths(ray_session, b_cap):
    """Whatever the configured bucket cap (which scales with cluster CPUs),
    every key lands in EXACTLY one reducer and nothing is lost/duplicated."""
    rng = np.random.default_rng(b_cap)
    df = pd.DataFrame(
        {
            "_k": rng.integers(0, 1_000, size=20_000).astype(np.uint64),
            "val": np.arange(20_000, dtype=np.int64),
        }
    )
    ds = rd.from_pandas(df).repartition(7)

    def bucket_fn(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            return pa.table(
                {"_k": pa.array([], pa.uint64()), "n": pa.array([], pa.int64()),
                 "sum_val": pa.array([], pa.int64())}
            )
        agg = pa.TableGroupBy(t, "_k").aggregate([("val", "count"), ("val", "sum")])
        return agg.rename_columns(["_k", "n", "sum_val"])

    out = hash_exchange(ds, "_k", b_cap, bucket_fn).to_pandas()
    # exactly one output row per key (a key split across reducers would
    # produce duplicate rows here), with exact counts and sums
    exp = df.groupby("_k", as_index=False).agg(n=("val", "size"), sum_val=("val", "sum"))
    got = out.sort_values("_k").reset_index(drop=True)
    exp = exp.sort_values("_k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"_k": "uint64", "n": "int64", "sum_val": "int64"}),
        exp.astype({"_k": "uint64", "n": "int64", "sum_val": "int64"}),
    )


def _key_counts_fn():
    # built per call: a nested function ships to Ray workers by value (a
    # module-level one would be pickled by a test-module import path)
    def key_counts(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            return pa.table({"k": pa.array([], pa.uint64()), "n": pa.array([], pa.int64())})
        uk, n = np.unique(t["k"].to_numpy(), return_counts=True)
        return pa.table({"k": pa.array(uk, pa.uint64()), "n": pa.array(n, pa.int64())})

    return key_counts


def test_exchange_all_empty_input_returns_fn_none_schema(ray_session):
    ds = rd.from_pandas(pd.DataFrame({"k": np.arange(10, dtype=np.uint64)})).filter(
        lambda r: False
    )
    fn = _key_counts_fn()
    out = hash_exchange(ds, "k", 8, fn)
    assert out.count() == 0
    want = fn(None).schema
    assert out.schema().names == want.names
    assert out.schema().types == want.types


def test_exchange_accepts_pandas_lineage_input(ray_session):
    """A pandas map_batches upstream materializes pandas blocks; the map and
    reduce tasks lift them to Arrow on entry (20k rows: fan-out > 1, so the
    map side runs too)."""
    keys = np.arange(20_000, dtype=np.uint64) % 17
    ds = (
        rd.from_pandas(pd.DataFrame({"k": keys}))
        .repartition(5)
        .map_batches(lambda df: df.assign(k=df["k"].astype(np.uint64)), batch_format="pandas")
    )
    out = hash_exchange(ds, "k", 4, _key_counts_fn()).to_pandas().sort_values("k")
    assert out["k"].tolist() == list(range(17))
    assert out["n"].sum() == len(keys)
    assert out["n"].tolist() == np.bincount(keys.astype(np.int64)).tolist()


def test_nonempty_block_refs_drops_empty_parquet_parts(ray_session, tmp_path):
    """read_parquet of a zero-row part file (an empty checkpoint) yields a
    zero-row block that can be schema-less; nonempty_block_refs drops it."""
    import os

    import pyarrow.parquet as pq
    import ray

    t = pa.table({"k": pa.array([1, 2, 3], pa.uint64())})
    pq.write_table(t, os.path.join(tmp_path, "part-0.parquet"))
    pq.write_table(t.slice(0, 0), os.path.join(tmp_path, "part-1.parquet"))
    os.makedirs(tmp_path / "empty")
    pq.write_table(t.slice(0, 0), os.path.join(tmp_path, "empty", "part-0.parquet"))

    ds = rd.read_parquet(str(tmp_path), file_extensions=["parquet"])
    refs = nonempty_block_refs(ds)
    blocks = [exchange.as_arrow_block(b) for b in ray.get(refs)]
    assert all(b.num_rows > 0 for b in blocks)
    assert sum(b.num_rows for b in blocks) == 3
    assert nonempty_block_refs(rd.read_parquet(str(tmp_path / "empty"))) == []


def test_fetch_cached_builds_once_and_stays_bounded(ray_session, monkeypatch):
    import ray

    monkeypatch.setattr(exchange, "_OBJ_CACHE", {})
    built = []

    def build(obj):
        built.append(obj)
        return obj * 2

    refs = [ray.put(i) for i in range(3)]
    for _ in range(3):
        assert [fetch_cached(r, build) for r in refs] == [0, 2, 4]
    assert built == [0, 1, 2]  # one build per ref, not per call

    more = [ray.put(i) for i in range(exchange._OBJ_CACHE_MAX + 5)]
    for r in more:
        fetch_cached(r)
        assert len(exchange._OBJ_CACHE) <= exchange._OBJ_CACHE_MAX
    assert fetch_cached(more[-1]) == exchange._OBJ_CACHE_MAX + 4


def test_minhash_defines_no_exchange_helpers():
    """The exchange has one home; stages.minhash must not re-export it."""
    from fastq_dupaway_ray.stages import minhash

    moved = [
        "_hash_exchange_tasks", "_exchange_map", "_exchange_reduce", "_exchange_fanout",
        "_EXCHANGE_ROWS_PER_REDUCER", "_EXCHANGE_BYTES_PER_REDUCER",
        "_default_shuffle_buckets", "_nonempty_block_refs", "_as_arrow_block",
        "_fetch_cached", "_OBJ_CACHE", "_OBJ_CACHE_MAX",
        "hash_exchange", "exchange_fanout", "default_shuffle_buckets",
        "nonempty_block_refs", "as_arrow_block", "fetch_cached", "group_for_maps",
    ]
    assert [n for n in moved if hasattr(minhash, n)] == []
