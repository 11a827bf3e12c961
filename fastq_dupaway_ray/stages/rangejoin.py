"""Range (interval) join — the second temporal operator Ray Data lacks.

Left rows (key, t) match right intervals (key, lo, hi) when lo <= t <= hi.
Partitioning assumption (documented): both sides hash-co-partition on the
join key, so every candidate pair co-locates; within a bucket the match runs
vectorized via interval sort + searchsorted per key group.

Intervals of one key may overlap — a left row can match several intervals
(true join semantics, unlike asof's 1:1). Per-key fanout is the data's own
overlap degree; a pathological all-overlapping key degrades to that key's
cartesian size, which the caller caps with ``max_matches_per_row``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    left_time: str,
    right_lo: str,
    right_hi: str,
    right_key: str | None = None,
    left_cols: tuple = (),
    right_cols: tuple = (),
    num_buckets: int | None = None,
    max_matches_per_row: int | None = None,
) -> ray.data.Dataset:
    from .exchange import default_shuffle_buckets

    B = num_buckets or default_shuffle_buckets()
    rk = right_key or key
    lcols = sorted(set([key, left_time, *left_cols]))
    rcols_src = sorted(set([rk, right_lo, right_hi, *right_cols]))

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        out = df[lcols].copy()
        out["_side"] = 0
        out["_bkt"] = pd.util.hash_array(out[key].to_numpy()) % B
        return out

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        out = df[rcols_src].copy().rename(columns={rk: key})
        out["_side"] = 1
        out["_bkt"] = pd.util.hash_array(out[key].to_numpy()) % B
        return out

    all_cols = sorted(set(lcols) | {c if c != rk else key for c in rcols_src}) + ["_side", "_bkt"]

    def pad(df: pd.DataFrame) -> pd.DataFrame:
        for c in all_cols:
            if c not in df.columns:
                df[c] = pd.NA
        return df[all_cols]

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "_side" not in df.columns:
            oc = list(dict.fromkeys([*lcols, right_lo, right_hi, *right_cols]))
            return pd.DataFrame({c: [] for c in oc})
        # strip exactly the OTHER side's padding columns (not dropna(how=all),
        # which would also drop a real payload column that happens to be
        # all-null within this bucket)
        rcols_renamed = [c if c != rk else key for c in rcols_src]
        l = df.loc[df["_side"] == 0, lcols].copy()
        r = df.loc[df["_side"] == 1, rcols_renamed].copy()
        out_cols = [*lcols, right_lo, right_hi, *[c for c in right_cols]]
        out_cols = list(dict.fromkeys(out_cols))
        if len(l) == 0 or len(r) == 0:
            return pd.DataFrame({c: [] for c in out_cols})
        l = l.infer_objects()
        r = r.infer_objects()
        li_parts, ri_parts = [], []
        r_groups = {k: g for k, g in r.groupby(key, sort=False)}
        for k, lg in l.groupby(key, sort=False):
            rg = r_groups.get(k)
            if rg is None:
                continue
            t = lg[left_time].to_numpy()
            lo = rg[right_lo].to_numpy()
            hi = rg[right_hi].to_numpy()
            # vectorized interval test per key group (n_l x n_r bitmap is
            # bounded by the key's own sizes — the documented skew surface)
            m = (t[:, None] >= lo[None, :]) & (t[:, None] <= hi[None, :])
            if max_matches_per_row is not None:
                cum = np.cumsum(m, axis=1)
                m &= cum <= max_matches_per_row
            li, ri = np.nonzero(m)
            li_parts.append(lg.index.to_numpy()[li])
            ri_parts.append(rg.index.to_numpy()[ri])
        if not li_parts:
            return pd.DataFrame({c: [] for c in out_cols})
        li = np.concatenate(li_parts)
        ri = np.concatenate(ri_parts)
        lm = l.loc[li].reset_index(drop=True)
        rm = r.loc[ri].reset_index(drop=True).drop(columns=[key])
        return pd.concat([lm, rm], axis=1)[out_cols]

    tl = left.map_batches(tag_left, batch_format="pandas").map_batches(pad, batch_format="pandas")
    tr = right.map_batches(tag_right, batch_format="pandas").map_batches(pad, batch_format="pandas")
    return tl.union(tr).groupby("_bkt").map_groups(per_bucket, batch_format="pandas")
