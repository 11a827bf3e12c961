"""Per-key quota capping — the training-data per-domain cap.

Web corpora are power-law skewed across hosts/sources; a training mix caps
how many documents any one key (domain, source, crawl) may contribute
(the RefinedWeb-style per-domain quota). Semantics: for each key, keep its
``n`` smallest rows by ``order_col`` (a deterministic winner set — the
reference's first-seen-wins discipline, fastq-dupaway
`src/hash_dup_remover.hpp:130-138` insert-if-absent, generalized from
"first 1 per content key" to a per-key budget of n), drop the rest.

Scale shape (the reason this is not `groupby(key).map_groups(head)`):

* A per-block combiner emits at most ``n`` candidate (key, order) rows plus
  ONE count row per key per block — a hot key with 10^9 rows ships
  ``n x blocks`` slim rows through the exchange, never its full mass, and
  the payload (html/text) enters no shuffle at all.
* The reduce side derives a per-key THRESHOLD only for keys whose global
  count exceeds ``n`` (the global top-n of a key is always contained in the
  union of its per-block top-n's, so the n-th smallest merged candidate IS
  the n-th smallest global order value).
* The threshold table (one row per over-cap key) broadcasts once
  (``ray.put`` + once-per-worker fetch) and a zero-copy Arrow filter pass
  keeps ``order <= threshold`` rows. Under-cap keys never appear in it.

``order_col`` must be unique within a key (the repo's id convention —
doc_id / url) for the cap to be row-exact; ties at the threshold would keep
all tied rows and are the caller's modeling choice to avoid.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def cap_per_key(
    ds: ray.data.Dataset,
    key_col: str,
    order_col: str,
    n: int,
    num_buckets: int | None = None,
    threshold_budget: int = 20_000_000,
) -> ray.data.Dataset:
    """Keep each ``key_col`` group's ``n`` smallest rows by ``order_col``.

    The broadcast threshold index holds one (hash, key, threshold) entry per
    OVER-CAP key — ~50 B each, shared per node via the object store, so the
    default budget is ~1 GB/node. A corpus with more over-cap keys than that
    raises (like ``exact_quantiles``' distinct budget) rather than silently
    materializing an unbounded driver object: split the keyspace (run the cap
    per key-range partition — thresholds are independent across keys) or
    raise the budget on fat-memory nodes.
    """
    from .exchange import default_shuffle_buckets, fetch_cached, hash_exchange

    if n < 1:
        raise ValueError("cap_per_key needs n >= 1")
    B = num_buckets or default_shuffle_buckets()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # combiner: <= n candidates + 1 count row per key per block. Count
        # rows reuse the key's min order value as a dtype-preserving
        # placeholder (never read — _cnt > 0 marks them) so integer order
        # columns don't decay to float64 via NaN.
        cols = [key_col, "_ord", "_cnt", "_kbkt"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype=object) for c in cols})
        slim = df[[key_col, order_col]].rename(columns={order_col: "_ord"})
        slim = slim.sort_values([key_col, "_ord"], kind="mergesort")
        cand = slim.groupby(key_col, sort=False).head(n).copy()
        cand["_cnt"] = 0
        counts = slim.groupby(key_col, sort=False, as_index=False).agg(
            _ord=("_ord", "first"), _cnt=("_ord", "size")
        )
        out = pd.concat([cand, counts], ignore_index=True)
        out["_kbkt"] = (
            pd.util.hash_array(out[key_col].to_numpy(dtype=object)) % np.uint64(B)
        ).astype(np.int64)
        return out[cols]

    slim_rows = ds.map_batches(partial, batch_format="pandas")

    def thresholds(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            return pa.table(
                {key_col: pa.array([], pa.string()), "_thr": pa.array([], pa.int64())}
            )
        df = t.to_pandas()
        totals = df.groupby(key_col, sort=False)["_cnt"].sum()
        over = totals.index[totals.to_numpy() > n]
        if not len(over):
            return t.select([key_col]).slice(0, 0).append_column(
                "_thr", pa.array([], t.column("_ord").type)
            )
        cand = df[(df["_cnt"] == 0) & df[key_col].isin(over)]
        cand = cand.sort_values([key_col, "_ord"], kind="mergesort").reset_index(drop=True)
        # global count > n guarantees >= n merged candidates per over key,
        # so row (group_start + n - 1) exists for every over-cap key
        starts = cand.index[~cand[key_col].duplicated()].to_numpy()
        g = cand.iloc[starts + (n - 1)]
        return pa.Table.from_pandas(
            g[[key_col, "_ord"]].rename(columns={"_ord": "_thr"}),
            preserve_index=False,
        )

    thr_ds = hash_exchange(slim_rows, "_kbkt", B, thresholds)
    thr_tabs = [t for t in ray.get(thr_ds.to_arrow_refs()) if t.num_rows > 0]
    if not thr_tabs:
        return ds  # no key over cap — nothing to drop
    thr_tab = pa.concat_tables(thr_tabs)
    if thr_tab.num_rows > threshold_budget:
        raise ValueError(
            f"cap_per_key: {thr_tab.num_rows} over-cap keys exceeds "
            f"threshold_budget={threshold_budget}; run per key-range partition "
            "(thresholds are independent across keys) or raise the budget"
        )
    # ready broadcast index: keys sorted by 64-bit hash, threshold + the key
    # strings ride along so a (rare) hash collision never caps the wrong key
    tdf = thr_tab.to_pandas()
    tkeys = tdf[key_col].to_numpy(dtype=object)
    hash_key = "0123456789123456"
    kh = pd.util.hash_array(tkeys, hash_key=hash_key)
    while len(np.unique(kh)) != len(kh):
        # a 64-bit collision between two OVER-CAP keys would let the probe's
        # run-start lookup miss one of them — rehash until injective (the
        # retry fires with probability ~K^2/2^65)
        hash_key = hash_key[1:] + hash_key[0]
        kh = pd.util.hash_array(tkeys, hash_key=hash_key)
    o = np.argsort(kh, kind="stable")
    thr_ref = ray.put((hash_key, kh[o], tkeys[o], tdf["_thr"].to_numpy()[o]))

    def keep_filter(t: pa.Table) -> pa.Table:
        # Arrow-native: payload columns stay zero-copy; only key + order
        # columns materialize as numpy
        hk, h_sorted, k_sorted, t_sorted = fetch_cached(thr_ref)
        keys = t[key_col].to_numpy(zero_copy_only=False).astype(object)
        kh_b = pd.util.hash_array(keys, hash_key=hk)
        pos = np.searchsorted(h_sorted, kh_b)
        pos_c = np.minimum(pos, len(h_sorted) - 1)
        hot = (h_sorted[pos_c] == kh_b) & (k_sorted[pos_c] == keys)
        keep = np.ones(t.num_rows, dtype=bool)
        if hot.any():
            orders = t[order_col].to_numpy(zero_copy_only=False)
            keep[hot] = orders[hot] <= t_sorted[pos_c[hot]]
        return t.filter(pa.array(keep))

    return ds.map_batches(keep_filter, batch_format="pyarrow")


def cap_per_key_budget(
    ds: ray.data.Dataset,
    key_col: str,
    order_col: str,
    weight_col: str,
    budget: int,
    num_buckets: int | None = None,
    threshold_budget: int = 20_000_000,
) -> ray.data.Dataset:
    """Keep each key's rows, in ``order_col`` order, while the cumulative
    ``weight_col`` stays within ``budget`` — the TOKEN-budget form of the
    per-domain cap (RefinedWeb buys each source a token allowance, not a
    document count). A row is kept iff its order-inclusive prefix sum of
    weights within its key is <= budget; a first row heavier than the whole
    budget drops its key entirely (SQL window-cumsum semantics).

    Scale shape mirrors :func:`cap_per_key`: the combiner prunes each block
    to rows whose WITHIN-BLOCK prefix already fits the budget (a row whose
    block-local prefix exceeds it is globally over-budget too, since the
    global prefix only adds weight) plus ONE first-dropped-order marker per
    key per block; the reducer takes cutoff = min marker order — every real
    row below the cutoff is among the candidates, so the candidate cumsum is
    EXACT there — and derives one (key, threshold | drop-all) row per key
    that loses anything. Thresholds broadcast READY; the payload never
    shuffles. Weights must be positive; ``order_col`` unique within a key.
    """
    from .exchange import default_shuffle_buckets, fetch_cached, hash_exchange

    if budget < 1:
        raise ValueError("cap_per_key_budget needs budget >= 1")
    B = num_buckets or default_shuffle_buckets()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = [key_col, "_ord", "_w", "_mark", "_kbkt"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype=object) for c in cols})
        slim = df[[key_col, order_col, weight_col]].rename(
            columns={order_col: "_ord", weight_col: "_w"}
        )
        if (slim["_w"].to_numpy() <= 0).any():
            raise ValueError("cap_per_key_budget needs positive weights")
        slim = slim.sort_values([key_col, "_ord"], kind="mergesort")
        cum = slim.groupby(key_col, sort=False)["_w"].cumsum()
        fits = cum.to_numpy() <= budget
        cand = slim[fits].copy()
        cand["_mark"] = 0
        dropped = slim[~fits]
        # one marker per key: the FIRST dropped order (weights not needed —
        # everything at or past the cutoff is globally over-budget)
        marks = dropped.groupby(key_col, sort=False, as_index=False).agg(
            _ord=("_ord", "first"), _w=("_w", "first")
        )
        marks["_mark"] = 1
        out = pd.concat([cand, marks], ignore_index=True)
        out["_kbkt"] = (
            pd.util.hash_array(out[key_col].to_numpy(dtype=object)) % np.uint64(B)
        ).astype(np.int64)
        return out[cols]

    slim_rows = ds.map_batches(partial, batch_format="pandas")

    def thresholds(t: pa.Table | None) -> pa.Table:
        empty = pa.table(
            {
                key_col: pa.array([], pa.string()),
                "_thr": pa.array([], pa.int64()),
                "_keep_any": pa.array([], pa.bool_()),
            }
        )
        if t is None or t.num_rows == 0:
            return empty
        df = t.to_pandas()
        out_keys, out_thr, out_keep = [], [], []
        for k, g in df.groupby(key_col, sort=False):
            marks = g[g["_mark"] == 1]
            cutoff = marks["_ord"].min() if len(marks) else None
            cand = g[g["_mark"] == 0]
            if cutoff is not None:
                cand = cand[cand["_ord"] < cutoff]
            cand = cand.sort_values("_ord", kind="mergesort")
            cum = cand["_w"].to_numpy().cumsum() if len(cand) else np.empty(0)
            kept = int((cum <= budget).sum())
            drops_exist = cutoff is not None or kept < len(cand)
            if not drops_exist:
                continue  # whole key fits — no threshold row
            out_keys.append(k)
            out_keep.append(kept > 0)
            out_thr.append(cand["_ord"].iloc[kept - 1] if kept else cand["_ord"].iloc[0] if len(cand) else cutoff)
        if not out_keys:
            return empty
        return pa.table(
            {
                key_col: pa.array(out_keys),
                "_thr": pa.array(out_thr),
                "_keep_any": pa.array(out_keep, pa.bool_()),
            }
        )

    thr_ds = hash_exchange(slim_rows, "_kbkt", B, thresholds)
    thr_tabs = [t for t in ray.get(thr_ds.to_arrow_refs()) if t.num_rows > 0]
    if not thr_tabs:
        return ds
    thr_tab = pa.concat_tables(thr_tabs)
    if thr_tab.num_rows > threshold_budget:
        raise ValueError(
            f"cap_per_key_budget: {thr_tab.num_rows} over-budget keys exceeds "
            f"threshold_budget={threshold_budget}; run per key-range partition "
            "or raise the budget"
        )
    tdf = thr_tab.to_pandas()
    tkeys = tdf[key_col].to_numpy(dtype=object)
    hash_key = "0123456789123456"
    kh = pd.util.hash_array(tkeys, hash_key=hash_key)
    while len(np.unique(kh)) != len(kh):
        hash_key = hash_key[1:] + hash_key[0]
        kh = pd.util.hash_array(tkeys, hash_key=hash_key)
    o = np.argsort(kh, kind="stable")
    thr_ref = ray.put(
        (hash_key, kh[o], tkeys[o], tdf["_thr"].to_numpy()[o], tdf["_keep_any"].to_numpy()[o])
    )

    def keep_filter(t: pa.Table) -> pa.Table:
        hk, h_sorted, k_sorted, t_sorted, keepany_sorted = fetch_cached(thr_ref)
        keys = t[key_col].to_numpy(zero_copy_only=False).astype(object)
        kh_b = pd.util.hash_array(keys, hash_key=hk)
        pos = np.searchsorted(h_sorted, kh_b)
        pos_c = np.minimum(pos, len(h_sorted) - 1)
        hot = (h_sorted[pos_c] == kh_b) & (k_sorted[pos_c] == keys)
        keep = np.ones(t.num_rows, dtype=bool)
        if hot.any():
            orders = t[order_col].to_numpy(zero_copy_only=False)
            keep[hot] = (orders[hot] <= t_sorted[pos_c[hot]]) & keepany_sorted[pos_c[hot]]
        return t.filter(pa.array(keep))

    return ds.map_batches(keep_filter, batch_format="pyarrow")
