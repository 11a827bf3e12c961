"""As-of (backward temporal) join — an operator Ray Data lacks natively.

For every left row (key, t) find the single right row with the same key and
the greatest right-time <= t. Composition strategy (documented partitioning
assumption): both sides are hash-co-partitioned on the join key into coarse
buckets — every (key, time) pair lands in exactly one bucket — then ONE
vectorized ``pd.merge_asof`` runs per bucket. No sort shuffle, no global
ordering needed; per-bucket sorting is local.

Scale: shuffle volume = both tables' slim projections once; skewed keys are
bounded by the per-key data itself (an as-of join cannot blow up rows — it is
1:1 on the left side). The right side's payload columns ride along only if
requested via ``right_cols``.
"""

from __future__ import annotations

import pandas as pd
import ray.data


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    left_time: str,
    right_time: str,
    right_key: str | None = None,
    left_cols: tuple = (),
    right_cols: tuple = (),
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Inner backward as-of join; emits left_cols + key + left_time + right
    time + right_cols for every left row that has a match."""
    from .exchange import default_shuffle_buckets

    B = num_buckets or default_shuffle_buckets()
    rk = right_key or key
    lcols = sorted(set([key, left_time, *left_cols]))
    rcols = sorted(set([rk, right_time, *right_cols]))

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        out = df[lcols].copy()
        out["_side"] = 0
        out["_bkt"] = pd.util.hash_array(out[key].to_numpy()) % B
        return out

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        out = df[rcols].copy()
        out = out.rename(columns={rk: key})
        out["_side"] = 1
        out["_bkt"] = pd.util.hash_array(out[key].to_numpy()) % B
        return out

    tl = left.map_batches(tag_left, batch_format="pandas")
    tr = right.map_batches(tag_right, batch_format="pandas")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "_side" not in df.columns:
            cols = [*lcols, right_time, *[c for c in right_cols if c != right_time]]
            return pd.DataFrame({c: [] for c in dict.fromkeys(cols)})
        # strip exactly the OTHER side's padding columns (not dropna(how=all),
        # which would also drop a real payload column that happens to be
        # all-null within this bucket)
        rcols_renamed = [c if c != rk else key for c in rcols]
        l = df.loc[df["_side"] == 0, lcols].copy()
        r = df.loc[df["_side"] == 1, rcols_renamed].copy()
        if len(l) == 0 or len(r) == 0:
            cols = [*lcols, right_time, *[c for c in right_cols if c != right_time]]
            return pd.DataFrame({c: [] for c in dict.fromkeys(cols)})
        # padding via union can leave object-dtype columns (ints + NA);
        # merge_asof needs concrete numpy dtypes for its sort keys
        l = l.infer_objects()
        r = r.infer_objects()
        l = l.sort_values(left_time, kind="mergesort")
        r = r.sort_values(right_time, kind="mergesort")
        out = pd.merge_asof(
            l, r, by=key, left_on=left_time, right_on=right_time, direction="backward"
        )
        return out[out[right_time].notna()]

    # union needs one schema: pad each side's missing columns with NA
    all_cols = sorted(set(lcols) | set(c if c != rk else key for c in rcols)) + ["_side", "_bkt"]

    def pad(df: pd.DataFrame) -> pd.DataFrame:
        for c in all_cols:
            if c not in df.columns:
                df[c] = pd.NA
        return df[all_cols]

    return (
        tl.map_batches(pad, batch_format="pandas")
        .union(tr.map_batches(pad, batch_format="pandas"))
        .groupby("_bkt")
        .map_groups(per_bucket, batch_format="pandas")
    )
