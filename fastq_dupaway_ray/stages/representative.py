"""Canonical-representative selection + cluster table emission (SURVEY.md A6/S9).

Given cluster labels from stages.components, pick one representative row per
cluster with the reference's keep-first tiebreak — first in arrival order,
i.e. min (warc_ts, url)
(/root/reference/src/hash_dup_remover.hpp:122-139 keeps the first occurrence;
/root/reference/src/seq_dup_remover.hpp:74-90 keeps the first of each sorted run)
— and emit both the deduplicated pages and the clusters side table in the
--write-clusters shape (/root/reference/src/file_utils.cpp:98-112):

    clusters(cluster_id = representative id, member, is_representative)

One path for string ``(node, label)`` and numeric ``(node_h1, node_h2,
label_h1, label_h2)`` labels: labels -> members -> pick -> gate.

1. labels enter as 128-bit pairs: numeric labels as they are, string labels
   hashed once (``_id_hash_pair``, the id hash every stage shares);
2. members are one row per PAGE row whose id is a label node, with its id,
   order columns, id-hash pair and label pair. Up to ``DRIVER_PICK_LABELS``
   label rows with the verify stage's endpoint index (``member_attrs``),
   they are the index rows — no corpus pass; otherwise one slim attach scan
   of ``pages`` (id + order columns) finds them;
3. the pick sorts members by (label pair, order columns); each run's first
   row names the representative, and a member is representative when its id
   equals it (rows sharing an id are one document). It runs on the driver
   up to ``DRIVER_PICK_LABELS`` label rows, else per bucket of a hash
   exchange on ``label_h1``;
4. the non-representative members' id-hash pairs (the drop set) leave the
   payload through ``exchange.semi_filter``; ``near_drops`` counts them, so
   it is the number of rows the gate removes.

Shuffle shape (this matters at 100 TB): the heavy page payload never enters
a shuffle. The label table holds the clustered members only (the duplicates
— small relative to the corpus), so it is broadcast via ``ray.put`` to the
attach pass, and the drop set is filtered out of the payload by a broadcast
pass under ``semi_filter``'s budget, else by one payload-with-keys exchange.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .exchange import (
    _pair_lookup_pos,
    default_shuffle_buckets,
    fetch_cached,
    hash_exchange,
    semi_filter,
)
from .minhash import _column_id_pair, _id_hash_pair_arrow

DEFAULT_ORDER = ("warc_ts", "url")
# label rows the members source and the pick are sized by: up to it the
# members come from the verify index when given and the pick runs on the
# driver; above it they come from the attach scan and the pick runs per
# bucket of a hash exchange on the label
DRIVER_PICK_LABELS = 2_000_000
_CLUSTER_COLS = ["cluster_id", "member", "is_representative"]


def _label_pairs(labels: ray.data.Dataset) -> tuple | None:
    """(node_h1, node_h2, label_h1, label_h2) uint64 arrays sorted by node
    pair, or None for no labels. String labels are hashed here, once."""
    tabs = [t for t in ray.get(labels.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return None
    t = pa.concat_tables(tabs)
    if "node_h1" in t.column_names:
        cols = [t[c].to_numpy() for c in ("node_h1", "node_h2", "label_h1", "label_h2")]
    else:
        cols = [*_id_hash_pair_arrow(t["node"]), *_id_hash_pair_arrow(t["label"])]
    order = np.lexsort((cols[1], cols[0]))  # the order _pair_lookup_pos probes
    return tuple(c[order] for c in cols)


def _members(cols: dict, q1: np.ndarray, q2: np.ndarray, pairs: tuple) -> pa.Table:
    """The rows of ``cols`` (id-hash pairs ``q1, q2``) whose id is a label
    node, with their id pair (``_nh1, _nh2``) and label pair."""
    n1, n2, l1, l2 = pairs
    pos, found = _pair_lookup_pos(n1, n2, q1, q2)
    sel = np.nonzero(found)[0]
    take = pa.array(sel, pa.int64())
    return pa.table(
        {
            **{c: a.take(take) for c, a in cols.items()},
            "_nh1": pa.array(q1[sel], pa.uint64()),
            "_nh2": pa.array(q2[sel], pa.uint64()),
            "label_h1": pa.array(l1[pos[sel]], pa.uint64()),
            "label_h2": pa.array(l2[pos[sel]], pa.uint64()),
        }
    )


def _pick(mt: pa.Table, id_col: str, order_cols) -> pa.Table:
    """Keep-first pick over members: the clusters rows plus each member's id
    pair as the drop key (``_k1, _k2``)."""
    sk = [("label_h1", "ascending"), ("label_h2", "ascending")]
    sk += [(c, "ascending") for c in order_cols]
    mt = mt.take(pc.sort_indices(mt, sort_keys=sk)).combine_chunks()
    l1, l2 = mt["label_h1"].to_numpy(), mt["label_h2"].to_numpy()
    new_run = np.ones(mt.num_rows, dtype=bool)
    new_run[1:] = (l1[1:] != l1[:-1]) | (l2[1:] != l2[:-1])
    first = np.maximum.accumulate(np.where(new_run, np.arange(mt.num_rows), 0))
    ids = mt[id_col].combine_chunks()
    reps = ids.take(pa.array(first, pa.int64()))
    return pa.table(
        {
            "cluster_id": reps,
            "member": ids,
            # by ID equality, not first-of-run: a representative whose id
            # has two page rows keeps both (rows sharing an id are kept or
            # dropped together)
            "is_representative": pc.equal(ids, reps),
            "_k1": mt["_nh1"],
            "_k2": mt["_nh2"],
        }
    )


def _drop_keys(t: pa.Table) -> pa.Table:
    return t.filter(pc.invert(t["is_representative"])).select(["_k1", "_k2"])


def _unclustered(pages: ray.data.Dataset, payload, id_col: str, counters):
    """(payload, typed-empty clusters) when no page row is a label node."""
    if counters is not None:
        counters["near_drops"] = 0
    schema = pages.schema()
    id_type = dict(zip(schema.names, schema.types)).get(id_col) if schema else None
    if not isinstance(id_type, pa.DataType):  # pandas object columns
        id_type = pa.string()
    empty = pa.array([], id_type)
    clusters = pa.table(
        {"cluster_id": empty, "member": empty, "is_representative": pa.array([], pa.bool_())}
    )
    return payload, ray.data.from_arrow(clusters)


def apply_cluster_labels(
    pages: ray.data.Dataset,
    labels: ray.data.Dataset,
    id_col: str = "url",
    order_cols=DEFAULT_ORDER,
    payload: ray.data.Dataset | None = None,
    counters: dict | None = None,
    member_attrs=None,
):
    """Returns (kept_pages, clusters) — both Datasets; see the module
    docstring for the path.

    ``labels``: string ``(node, label)`` or numeric ``(node_h1, node_h2,
    label_h1, label_h2)`` rows from ``stages.components``.

    ``payload``: optional dataset the keep-filter applies to instead of
    ``pages`` — callers pass a SLIM projection as ``pages`` (the attach pass
    only needs id + order columns) and the full-column dataset here, so the
    heavy html/text columns are never decoded for the attach pass.

    ``counters``: optional dict that receives ``near_drops``, the number of
    non-representative member rows (the rows the keep-filter removes). With
    it the caller can compute kept-row counts arithmetically instead of
    counting the filtered payload.

    ``member_attrs``: optional ``(index_shard_refs, attr_cols)`` from the
    verify stage (``dedup_edges_minhash(out=...)``). Its index holds one row
    per page row of every edge endpoint with the order columns, so under
    ``DRIVER_PICK_LABELS`` the members come from it and the attach pass over
    the corpus is skipped."""
    pairs = _label_pairs(labels)
    payload = payload if payload is not None else pages
    if pairs is None:
        return _unclustered(pages, payload, id_col, counters)
    slim_cols = list(dict.fromkeys([id_col, *order_cols]))
    small = len(pairs[0]) <= DRIVER_PICK_LABELS
    if small and member_attrs is not None and set(slim_cols) <= {id_col, *member_attrs[1]}:
        # index shards: (h1, h2, th1, th2, ids, attrs), one row per page row
        tabs = [
            _members({c: ids if c == id_col else attrs[c] for c in slim_cols}, h1, h2, pairs)
            for h1, h2, _th1, _th2, ids, attrs in ray.get(list(member_attrs[0]))
            if len(h1)
        ]
    else:
        ref = ray.put(pairs)

        def attach(t: pa.Table) -> pa.Table:
            q1, q2 = _column_id_pair(t, id_col)
            return _members({c: t[c] for c in slim_cols}, q1, q2, fetch_cached(ref))

        members = pages.select_columns(slim_cols).map_batches(
            attach, batch_format="pyarrow"
        ).materialize()
        tabs = ray.get(members.to_arrow_refs()) if small else None

    if tabs is not None:
        tabs = [t for t in tabs if t.num_rows]
        if not tabs:
            return _unclustered(pages, payload, id_col, counters)
        picked = _pick(pa.concat_tables(tabs), id_col, order_cols)
        step = 500_000
        clusters = ray.data.from_arrow(
            [picked.select(_CLUSTER_COLS).slice(o, step) for o in range(0, picked.num_rows, step)]
        )
        keys = ray.data.from_arrow(_drop_keys(picked))
    else:
        if members.count() == 0:
            return _unclustered(pages, payload, id_col, counters)
        # members has rows, so the exchange never calls the pick with None
        picked = hash_exchange(
            members,
            "label_h1",
            default_shuffle_buckets(),
            functools.partial(_pick, id_col=id_col, order_cols=order_cols),
        ).materialize()
        clusters = picked.select_columns(_CLUSTER_COLS)
        keys = picked.map_batches(_drop_keys, batch_format="pyarrow").materialize()
    if counters is not None:
        counters["near_drops"] = keys.count()
    kept = semi_filter(payload, keys, functools.partial(_column_id_pair, col=id_col))
    return kept, clusters
