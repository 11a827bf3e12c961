"""As-of (backward temporal) join — an operator Ray Data lacks natively.

For every left row (key, t) find the single right row with the same key and
the greatest right-time <= t. Composition strategy (documented partitioning
assumption): both sides route on the join key, hashed at the left key's type,
and meet in ONE ``exchange.cogroup`` (every key's rows of both sides land in
one bucket), then one vectorized ``pd.merge_asof`` runs per bucket. No sort
shuffle, no global ordering needed; per-bucket sorting is local.

Scale: shuffle volume = both tables' slim projections once; skewed keys are
bounded by the per-key data itself (an as-of join cannot blow up rows — it is
1:1 on the left side). The right side's payload columns ride along only if
requested via ``right_cols``.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .dedup_exact import with_key_route


def _slim(t: pa.Table, cols, names, key, time, key_type) -> pa.Table:
    """One side's slim rows + a ``_bkt`` route of the key (at one key type
    on both sides, so equal keys share a bucket). Null keys and null times
    never match: they are dropped here."""
    t = t.select(cols).rename_columns(names)
    t = t.filter(pc.and_(pc.is_valid(t[key]), pc.is_valid(t[time])))
    return with_key_route(t, key, "_bkt", key_type)


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
    from .exchange import cogroup

    rk = right_key or key
    lcols = sorted(set([key, left_time, *left_cols]))
    rcols = sorted(set([rk, right_time, *right_cols]))
    rnames = [key if c == rk else c for c in rcols]

    def slim(ds, cols, names, time, key_type=None):
        kw = dict(cols=cols, names=names, key=key, time=time, key_type=key_type)
        return ds.map_batches(_slim, batch_format="pyarrow", fn_kwargs=kw).materialize()

    tl = slim(left, lcols, lcols, left_time)
    ls = tl.schema()  # None: no left rows (a map emits no zero-row block)
    tr = slim(right, rcols, rnames, right_time, ls.base_schema.field(key).type if ls else None)
    rs = tr.schema()

    def fields(schema, names):
        return [schema.base_schema.field(c) if schema else pa.field(c, pa.null()) for c in names]

    out_schema = pa.schema(fields(ls, lcols) + fields(rs, [c for c in rnames if c != key]))
    if ls is None or rs is None:
        return ray.data.from_arrow(out_schema.empty_table())

    def per_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        if l.num_rows == 0 or r.num_rows == 0:
            return out_schema.empty_table()
        out = pd.merge_asof(
            l.select(lcols).to_pandas().sort_values(left_time, kind="mergesort"),
            r.select(rnames).to_pandas().sort_values(right_time, kind="mergesort"),
            by=key, left_on=left_time, right_on=right_time, direction="backward",
        )
        out = out[out[right_time].notna()]
        return pa.Table.from_pandas(out[out_schema.names], schema=out_schema, preserve_index=False)

    return cogroup(tl, tr, "_bkt", per_bucket, num_buckets)
