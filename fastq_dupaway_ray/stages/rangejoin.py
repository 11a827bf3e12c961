"""Range (interval) join — the second temporal operator Ray Data lacks.

Left rows (key, t) match right intervals (key, lo, hi) when lo <= t <= hi.
Partitioning assumption (documented): both sides route on the join key,
hashed at the left key's type, and meet in one ``exchange.cogroup``, so every
candidate pair co-locates; within a bucket the match runs vectorized per key
group (an n_l x n_r interval test).

Intervals of one key may overlap — a left row can match several intervals
(true join semantics, unlike asof's 1:1). Per-key fanout is the data's own
overlap degree; a pathological all-overlapping key degrades to that key's
cartesian size, which the caller caps with ``max_matches_per_row``.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .dedup_exact import with_key_route


def _key_groups(codes: np.ndarray) -> dict:
    """{code: row positions} for the non-negative codes."""
    order = np.argsort(codes, kind="stable")
    order = order[codes[order] >= 0]
    uniq, starts = np.unique(codes[order], return_index=True)
    return dict(zip(uniq.tolist(), np.split(order, starts[1:])))


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
    from .exchange import cogroup

    rk = right_key or key
    lcols = sorted(set([key, left_time, *left_cols]))
    rcols = sorted(set([rk, right_lo, right_hi, *right_cols]))
    rnames = [key if c == rk else c for c in rcols]
    out_cols = list(dict.fromkeys([*lcols, right_lo, right_hi, *right_cols]))

    def slim(t: pa.Table, cols, names, key_type=None) -> pa.Table:
        return with_key_route(t.select(cols).rename_columns(names), key, "_bkt", key_type)

    tl = left.map_batches(slim, batch_format="pyarrow", fn_kwargs=dict(cols=lcols, names=lcols))
    tl = tl.materialize()
    ls = tl.schema()
    tr = right.map_batches(
        functools.partial(slim, key_type=ls.base_schema.field(key).type if ls else None),
        batch_format="pyarrow", fn_kwargs=dict(cols=rcols, names=rnames),
    )

    def per_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        if key not in l.column_names or key not in r.column_names:
            return pa.table({c: pa.array([], pa.null()) for c in out_cols})
        # one code per distinct key over both sides (null keys match nothing)
        codes = pc.dictionary_encode(
            pa.concat_arrays([l[key].combine_chunks(), r[key].combine_chunks()])
        ).indices
        codes = pc.fill_null(codes, -1).to_numpy()
        r_groups = _key_groups(codes[l.num_rows :])
        t = l[left_time].to_numpy()
        lo, hi = r[right_lo].to_numpy(), r[right_hi].to_numpy()
        li_parts, ri_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for k, lg in _key_groups(codes[: l.num_rows]).items():
            rg = r_groups.get(k)
            if rg is None:
                continue
            # vectorized interval test per key group (n_l x n_r bitmap is
            # bounded by the key's own sizes — the documented skew surface)
            m = (t[lg][:, None] >= lo[rg][None, :]) & (t[lg][:, None] <= hi[rg][None, :])
            if max_matches_per_row is not None:
                m &= np.cumsum(m, axis=1) <= max_matches_per_row
            li, ri = np.nonzero(m)
            li_parts.append(lg[li])
            ri_parts.append(rg[ri])
        lm = l.take(pa.array(np.concatenate(li_parts)))
        rm = r.take(pa.array(np.concatenate(ri_parts)))
        return pa.table([(lm if c in lcols else rm)[c] for c in out_cols], names=out_cols)

    return cogroup(tl, tr, "_bkt", per_bucket, num_buckets)
