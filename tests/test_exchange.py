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


def test_unique_pairs_matches_lexsort():
    """``_unique_pairs`` sorts by h1 and only the mixed equal-h1 runs by h2;
    its arrays equal a full ``np.lexsort`` + keep-first, on keys with
    forced equal-h1 runs (same and different h2) and repeated pairs."""
    rng = np.random.default_rng(5)

    def oracle(q1, q2):
        o = np.lexsort((q2, q1))
        q1, q2 = q1[o], q2[o]
        keep = np.r_[True, (q1[1:] != q1[:-1]) | (q2[1:] != q2[:-1])][: len(q1)]
        return q1[keep], q2[keep]

    for n, h1_span, h2_span in [(0, 1, 1), (1, 1, 1), (500, 7, 3), (500, 50, 2), (2000, 2**64, 2**64)]:
        q1 = rng.integers(0, h1_span, n, dtype=np.uint64)
        q2 = rng.integers(0, h2_span, n, dtype=np.uint64)
        if n > 10:  # repeat some pairs verbatim
            q1[:10], q2[:10] = q1[-10:], q2[-10:]
        got, want = exchange._unique_pairs(q1, q2), oracle(q1, q2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (n, h1_span)


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


# ---- semi_filter: the one membership gate ---------------------------------


def _semi_corpus(n=3_000, seed=5):
    """Payload rows keyed (g, id): many ids share one g, so the key set has
    long equal-h1 runs. ``c`` is the confirm half of a row's identity."""
    rng = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "g": rng.integers(0, 40, size=n).astype(np.int64),
            "c": rng.integers(0, 5, size=n).astype(np.int64),
            "text": [f"row {i}" for i in range(n)],
        }
    )
    pick = rng.random(n) < 0.3
    keys = pd.DataFrame(
        {
            "_k1": df["g"][pick].to_numpy().astype(np.uint64),
            "_k2": df["id"][pick].to_numpy().astype(np.uint64),
            # a third of the picked keys carry a WRONG confirm value: key
            # hits that confirm_fn must reject
            "_c1": (df["c"][pick].to_numpy() + (rng.random(pick.sum()) < 0.33) * 7).astype(np.uint64),
            "_c2": np.zeros(int(pick.sum()), np.uint64),
        }
    )
    # keys naming no payload row, and duplicated key rows
    stray = pd.DataFrame(
        {"_k1": np.uint64(999), "_k2": np.arange(50, dtype=np.uint64),
         "_c1": np.uint64(0), "_c2": np.uint64(0)}
    )
    keys = pd.concat([keys, stray, keys.head(20)], ignore_index=True)
    return df, keys


def _semi_fns():
    # built per call: nested functions ship to Ray workers by value
    def key_fn(t: pa.Table):
        return t["g"].to_numpy().astype(np.uint64), t["id"].to_numpy().astype(np.uint64)

    def confirm_fn(t: pa.Table):
        return t["c"].to_numpy().astype(np.uint64), np.zeros(t.num_rows, np.uint64)

    return key_fn, confirm_fn


def _semi_oracle(df, keys, keep, confirm):
    """Serial Python-set membership."""
    if confirm:
        kset = set(zip(keys["_k1"].tolist(), keys["_k2"].tolist(), keys["_c1"].tolist()))
        member = [(g, i, c) in kset for g, i, c in zip(df["g"], df["id"], df["c"])]
    else:
        kset = set(zip(keys["_k1"].tolist(), keys["_k2"].tolist()))
        member = [(g, i) in kset for g, i in zip(df["g"], df["id"])]
    return sorted(df["id"][np.array(member, bool) == keep].tolist())


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "exchange"])
@pytest.mark.parametrize("confirm", [False, True], ids=["key", "confirm"])
@pytest.mark.parametrize("keep", [False, True], ids=["anti", "semi"])
def test_semi_filter_matches_set_oracle(ray_session, monkeypatch, budget, confirm, keep):
    if budget is not None:
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
    df, keys = _semi_corpus()
    if not confirm:
        keys = keys[["_k1", "_k2"]]
    key_fn, confirm_fn = _semi_fns()
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(6)
    out = exchange.semi_filter(
        ds,
        rd.from_pandas(keys).repartition(3),
        key_fn,
        keep=keep,
        confirm_fn=confirm_fn if confirm else None,
    )
    got = out.to_pandas()
    assert sorted(got["id"].tolist()) == _semi_oracle(df, keys, keep, confirm)
    assert out.schema().names == ds.schema().names
    assert out.schema().types == ds.schema().types
    # every surviving row is intact
    assert (got["text"] == "row " + got["id"].astype(str)).all()


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "exchange"])
def test_semi_filter_empty_keys_and_empty_input(ray_session, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
    df, keys = _semi_corpus(n=200)
    key_fn, _ = _semi_fns()
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    no_keys = rd.from_pandas(keys[["_k1", "_k2"]]).filter(lambda r: False)
    for keep, n_out in ((False, len(df)), (True, 0)):
        out = exchange.semi_filter(ds, no_keys, key_fn, keep=keep)
        assert out.count() == n_out
        assert out.schema().names == ds.schema().names
        assert out.schema().types == ds.schema().types
    # all-empty inputs: a typed zero-row block, and a filter that emptied
    # every block. A Ray map over zero-row blocks emits no block, so the
    # broadcast limb may report no schema; any schema reported must match.
    typed_empty = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False).slice(0, 0))
    for empty in (typed_empty, ds.filter(lambda r: False)):
        for keep in (False, True):
            out = exchange.semi_filter(empty, rd.from_pandas(keys[["_k1", "_k2"]]), key_fn, keep=keep)
            assert out.count() == 0
            got = out.schema()
            assert got is None or (
                got.names == ds.schema().names and got.types == ds.schema().types
            )


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "exchange"])
def test_semi_filter_skips_schemaless_empty_blocks(ray_session, monkeypatch, tmp_path, budget):
    """Zero-row parquet parts (possibly zero-column blocks) on both the
    payload and the key side change nothing."""
    import os

    import pyarrow.parquet as pq

    if budget is not None:
        monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", budget)
    df, keys = _semi_corpus(n=500, seed=9)
    keys = keys[["_k1", "_k2"]]
    for name, frame in (("rows", df), ("keys", keys)):
        d = tmp_path / name
        os.makedirs(d)
        t = pa.Table.from_pandas(frame, preserve_index=False)
        pq.write_table(t.slice(0, 0), os.path.join(d, "part-0.parquet"))
        pq.write_table(t, os.path.join(d, "part-1.parquet"))
        pq.write_table(t.slice(0, 0), os.path.join(d, "part-2.parquet"))
    key_fn, _ = _semi_fns()
    for keep in (False, True):
        out = exchange.semi_filter(
            rd.read_parquet(str(tmp_path / "rows")),
            rd.read_parquet(str(tmp_path / "keys")),
            key_fn,
            keep=keep,
        ).to_pandas()
        assert sorted(out["id"].tolist()) == _semi_oracle(df, keys, keep, False)


def test_semi_filter_exchange_limb_never_collects_keys(ray_session, monkeypatch):
    """Over budget, no ``ray.get`` on the driver ever fetches a key block."""
    import ray

    monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", 0)
    df, keys = _semi_corpus(n=1_000, seed=11)
    keys_ds = rd.from_pandas(keys[["_k1", "_k2"]]).repartition(4).materialize()
    key_refs = set(nonempty_block_refs(keys_ds))
    assert key_refs
    orig_get = ray.get

    def guarded_get(refs, *a, **k):
        for r in refs if isinstance(refs, (list, tuple)) else [refs]:
            assert r not in key_refs, "the driver fetched a key block"
        return orig_get(refs, *a, **k)

    key_fn, _ = _semi_fns()
    monkeypatch.setattr(ray, "get", guarded_get)
    out = exchange.semi_filter(rd.from_pandas(df), keys_ds, key_fn)
    monkeypatch.setattr(ray, "get", orig_get)
    assert sorted(out.to_pandas()["id"].tolist()) == _semi_oracle(
        df, keys[["_k1", "_k2"]], False, False
    )


# ---- cogroup: the two-sided exchange ---------------------------------------


def _cogroup_sides(n_left=3_000, n_right=2_000, seed=13):
    """Left (k, a, s) and right (k, b) with different column sets: keys
    0-199 on the left only, 200-399 on both, 400-599 on the right only."""
    rng = np.random.default_rng(seed)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 400, n_left).astype(np.uint64),
            "a": np.arange(n_left, dtype=np.int64),
            "s": [f"l{i}" for i in range(n_left)],
        }
    )
    right = pd.DataFrame(
        {"k": rng.integers(200, 600, n_right).astype(np.uint64), "b": rng.random(n_right)}
    )
    return left, right


def _per_key_fn():
    # built per call: a nested function ships to Ray workers by value
    def per_key(l: pa.Table, r: pa.Table) -> pa.Table:
        def side(t, col):
            if "k" not in t.column_names:  # an all-empty side of unknown schema
                return pd.DataFrame({"k": np.empty(0, np.uint64), col: np.empty(0)})
            return t.select(["k", col]).to_pandas()

        lg = side(l, "a").groupby("k")["a"].agg(["size", "sum"])
        rg = side(r, "b").groupby("k")["b"].agg(["size", "sum"])
        keys = sorted(set(lg.index) | set(rg.index))
        return pa.table(
            {
                "k": pa.array(keys, pa.uint64()),
                "nl": pa.array([int(lg["size"].get(k, 0)) for k in keys], pa.int64()),
                "asum": pa.array([int(lg["sum"].get(k, 0)) for k in keys], pa.int64()),
                "nr": pa.array([int(rg["size"].get(k, 0)) for k in keys], pa.int64()),
                "bsum": pa.array([float(rg["sum"].get(k, 0.0)) for k in keys], pa.float64()),
                "lcols": pa.array([",".join(l.column_names)] * len(keys), pa.string()),
                "rcols": pa.array([",".join(r.column_names)] * len(keys), pa.string()),
            }
        )

    return per_key


def _cogroup_oracle(left: pd.DataFrame, right: pd.DataFrame) -> list:
    """Serial per-key (k, nl, asum, nr, bsum) over both sides."""
    out = {}
    for k, a in zip(left["k"].tolist(), left["a"].tolist()):
        row = out.setdefault(k, [0, 0, 0, 0.0])
        row[0] += 1
        row[1] += a
    for k, b in zip(right["k"].tolist(), right["b"].tolist()):
        row = out.setdefault(k, [0, 0, 0, 0.0])
        row[2] += 1
        row[3] += b
    return sorted((k, nl, asum, nr, round(bsum, 6)) for k, (nl, asum, nr, bsum) in out.items())


def _cogroup_rows(ds) -> tuple:
    got = ds.to_pandas()
    rows = sorted(
        (int(k), int(nl), int(asum), int(nr), round(float(bsum), 6))
        for k, nl, asum, nr, bsum in zip(got["k"], got["nl"], got["asum"], got["nr"], got["bsum"])
    )
    return rows, got


@pytest.mark.parametrize("width", ["one", "many"])
def test_cogroup_matches_serial_oracle(ray_session, monkeypatch, width):
    """Every key's rows of BOTH sides reach one ``fn`` call (one output row
    per key), with B = 1 and with B > 1; each side arrives with its own
    columns, also in buckets where it has no rows."""
    monkeypatch.setattr(exchange, "EXCHANGE_ROWS_PER_REDUCER", 1 << 40 if width == "one" else 1)
    left, right = _cogroup_sides()
    calls = []
    reduce_task = exchange._exchange_reduce

    class Spy:
        @staticmethod
        def remote(*args):
            calls.append(args[1])  # shard counts per side
            return reduce_task.remote(*args)

    monkeypatch.setattr(exchange, "_exchange_reduce", Spy)
    out = exchange.cogroup(
        rd.from_pandas(left).repartition(5), rd.from_pandas(right).repartition(3), "k", _per_key_fn()
    )
    rows, got = _cogroup_rows(out)
    assert rows == _cogroup_oracle(left, right)
    assert (got["lcols"] == "k,a,s").all() and (got["rcols"] == "k,b").all()
    assert len(calls) == 1 if width == "one" else len(calls) > 1
    assert got["k"].is_unique


def test_cogroup_empty_sides(ray_session):
    """An all-empty side arrives as a zero-row table; an all-empty input
    runs ``fn`` once on two zero-row tables."""
    left, right = _cogroup_sides(n_left=500, n_right=300)
    fn = _per_key_fn()
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)
    no_left = lds.filter(lambda r: False)
    no_right = rds.filter(lambda r: False)
    rows, _ = _cogroup_rows(exchange.cogroup(lds, no_right, "k", fn))
    assert rows == _cogroup_oracle(left, right.iloc[:0])
    rows, _ = _cogroup_rows(exchange.cogroup(no_left, rds, "k", fn))
    assert rows == _cogroup_oracle(left.iloc[:0], right)
    out = exchange.cogroup(no_left, no_right, "k", fn)
    assert out.count() == 0
    assert out.schema().names == fn(pa.table({}), pa.table({})).schema.names
    # a typed zero-row side keeps its schema
    typed = rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False).slice(0, 0))
    _rows, got = _cogroup_rows(exchange.cogroup(lds, typed, "k", fn))
    assert (got["rcols"] == "k,b").all()


def test_cogroup_pandas_blocks_and_empty_parquet_parts(ray_session, tmp_path):
    """Pandas-block inputs and zero-row parquet parts (possibly zero-column
    blocks) change nothing."""
    import os

    import pyarrow.parquet as pq

    left, right = _cogroup_sides(n_left=6_000, n_right=5_000, seed=17)
    lds = (
        rd.from_pandas(left)
        .repartition(4)
        .map_batches(lambda df: df.assign(a=df["a"] + 0), batch_format="pandas")
    )
    d = tmp_path / "right"
    os.makedirs(d)
    t = pa.Table.from_pandas(right, preserve_index=False)
    pq.write_table(t.slice(0, 0), os.path.join(d, "part-0.parquet"))
    pq.write_table(t, os.path.join(d, "part-1.parquet"))
    pq.write_table(t.slice(0, 0), os.path.join(d, "part-2.parquet"))
    rows, _ = _cogroup_rows(exchange.cogroup(lds, rd.read_parquet(str(d)), "k", _per_key_fn()))
    assert rows == _cogroup_oracle(left, right)
