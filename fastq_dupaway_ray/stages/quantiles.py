"""Exact discrete quantiles over a distinct-bounded column — the
length-percentile cutoffs a quality-filter stage feeds on (e.g. "drop docs
above the p99 character length").

Shape: per-block ``value_counts`` combiner (slim (value, count) rows — a
block never ships more rows than its distinct values), one slim task
exchange merging counts per value (each value lands in exactly one reduce
call, so the merged histogram has globally-unique values), then a driver
cumsum over the sorted histogram picks the ranks. No full-column sort, no
payload movement; the only materialized object is the histogram itself.

Assumption (documented, budget-guarded): the column has bounded distinct
cardinality — lengths, scores, small-int features. For continuous columns,
bucketize first (the caller's modeling choice) or use a sketch; an exact
quantile over unbounded distincts fundamentally needs the full value
multiset somewhere.

Rank rule matches DuckDB ``quantile_disc``: 0-based index
``floor(q * (n - 1))`` into the sorted multiset (verified empirically,
including the q*(n-1)-integral float edge).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


def exact_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    num_buckets: int | None = None,
    distinct_budget: int = 50_000_000,
) -> pa.Table:
    """One-row Arrow table ``{p<q*100>: value}`` of exact discrete quantiles."""
    from .exchange import default_shuffle_buckets, hash_exchange

    B = num_buckets or default_shuffle_buckets()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df[col].value_counts()
        out = pd.DataFrame({"_val": cnt.index.to_numpy(), "_n": cnt.to_numpy()})
        out["_bkt"] = (
            pd.util.hash_array(out["_val"].to_numpy()) % np.uint64(B)
        ).astype(np.int64)
        return out

    def merge(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            return pa.table(
                {"_val": pa.array([], pa.int64()), "_n": pa.array([], pa.int64())}
            )
        df = t.to_pandas()
        g = df.groupby("_val", as_index=False, sort=False)["_n"].sum()
        return pa.Table.from_pandas(g[["_val", "_n"]], preserve_index=False)

    rows = ds.select_columns([col]).map_batches(partial, batch_format="pandas")
    hist_ds = hash_exchange(rows, "_bkt", B, merge)
    tabs = [t for t in ray.get(hist_ds.to_arrow_refs()) if t.num_rows > 0]
    if not tabs:
        raise ValueError(f"exact_quantiles: no non-null values in column {col!r}")
    hist = pa.concat_tables(tabs)
    if hist.num_rows > distinct_budget:
        raise ValueError(
            f"exact_quantiles: {hist.num_rows} distinct values in {col!r} exceeds "
            f"distinct_budget={distinct_budget}; bucketize the column first"
        )
    vals = hist["_val"].to_numpy(zero_copy_only=False)
    cnts = hist["_n"].to_numpy(zero_copy_only=False)
    o = np.argsort(vals, kind="stable")
    vals, cnts = vals[o], cnts[o]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    out = {}
    for q in qs:
        idx = int(np.floor(q * (n - 1)))  # quantile_disc rank rule
        pos = int(np.searchsorted(cum, idx + 1))
        out[f"p{round(q * 100):d}"] = [vals[pos]]
    return pa.table(out)
