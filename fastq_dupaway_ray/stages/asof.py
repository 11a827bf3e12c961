"""As-of (backward temporal) join — an operator Ray Data lacks natively.

For every left row (key, t) find the single right row with the same key and
the greatest right-time <= t. Composition strategy (documented partitioning
assumption): both sides are side-tagged and hashed on the join key, their
Arrow blocks meet in ONE task ``hash_exchange`` (every key's rows of both
sides land in one bucket), then one vectorized ``pd.merge_asof`` runs per
bucket. No sort shuffle, no global ordering needed; per-bucket sorting is
local.

Scale: shuffle volume = both tables' slim projections once; skewed keys are
bounded by the per-key data itself (an as-of join cannot blow up rows — it is
1:1 on the left side). The right side's payload columns ride along only if
requested via ``right_cols``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _tag(t: pa.Table, cols, names, key, time, side, key_type) -> pa.Table:
    """One side's slim rows + ``_side`` + a 64-bit ``_bkt`` hash of the key
    (computed at one key type on both sides, so equal keys share a bucket).
    Null keys and null times never match: they are dropped here."""
    t = t.select(cols).rename_columns(names)
    t = t.filter(pc.and_(pc.is_valid(t[key]), pc.is_valid(t[time])))
    if key_type is not None:
        t = t.set_column(t.schema.get_field_index(key), key, t[key].cast(key_type))
    bkt = pd.util.hash_array(t[key].to_numpy(zero_copy_only=False))
    return t.append_column("_side", pa.array(np.full(t.num_rows, side, np.int8))).append_column(
        "_bkt", pa.array(bkt, pa.uint64())
    )


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
    from .exchange import default_shuffle_buckets, hash_exchange, nonempty_block_refs

    rk = right_key or key
    lcols = sorted(set([key, left_time, *left_cols]))
    rcols = sorted(set([rk, right_time, *right_cols]))
    rnames = [key if c == rk else c for c in rcols]

    def tagged(ds, cols, names, time, side, key_type=None):
        kw = dict(cols=cols, names=names, key=key, time=time, side=side, key_type=key_type)
        return ds.map_batches(_tag, batch_format="pyarrow", fn_kwargs=kw).materialize()

    tl = tagged(left, lcols, lcols, left_time, 0)
    ls = tl.schema()  # None: no left rows (a map emits no zero-row block)
    tr = tagged(right, rcols, rnames, right_time, 1, ls.base_schema.field(key).type if ls else None)
    rs = tr.schema()

    def fields(schema, names):
        return [schema.base_schema.field(c) if schema else pa.field(c, pa.null()) for c in names]

    out_schema = pa.schema(fields(ls, lcols) + fields(rs, [c for c in rnames if c != key]))
    if ls is None or rs is None:
        return ray.data.from_arrow(out_schema.empty_table())

    def per_bucket(t: pa.Table | None) -> pa.Table:
        if t is None:
            return out_schema.empty_table()
        # the exchange concatenated both sides' blocks with their column
        # sets promoted: each side reads back exactly its own columns
        side = t["_side"].to_numpy()
        l = t.filter(pa.array(side == 0)).select(lcols).to_pandas()
        r = t.filter(pa.array(side == 1)).select(rnames).to_pandas()
        if len(l) == 0 or len(r) == 0:
            return out_schema.empty_table()
        out = pd.merge_asof(
            l.sort_values(left_time, kind="mergesort"),
            r.sort_values(right_time, kind="mergesort"),
            by=key, left_on=left_time, right_on=right_time, direction="backward",
        )
        out = out[out[right_time].notna()]
        return pa.Table.from_pandas(out[out_schema.names], schema=out_schema, preserve_index=False)

    both = ray.data.from_arrow_refs(nonempty_block_refs(tl) + nonempty_block_refs(tr))
    return hash_exchange(both, "_bkt", num_buckets or default_shuffle_buckets(), per_bucket)
