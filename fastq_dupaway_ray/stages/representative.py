"""Canonical-representative selection + cluster table emission (SURVEY.md A6/S9).

Given cluster labels (node=id, label=cluster id) from stages.components, pick
one representative row per cluster with the reference's keep-first tiebreak —
first in arrival order, i.e. min (warc_ts, url)
(/root/reference/src/hash_dup_remover.hpp:122-139 keeps the first occurrence;
/root/reference/src/seq_dup_remover.hpp:74-90 keeps the first of each sorted run)
— and emit both the deduplicated pages and the clusters side table in the
--write-clusters shape (/root/reference/src/file_utils.cpp:98-112):

    clusters(cluster_id = representative id, member, is_representative)

Shuffle shape (this matters at 100 TB): the heavy page payload NEVER enters a
shuffle. The label table is the set of *clustered members only* (the
duplicates — small relative to the corpus), so it is broadcast via ``ray.put``
and applied inside streaming ``map_batches`` passes:

1. one slim pass over (id, order) columns attaches labels -> vectorized
   representative pick (on the driver up to ``DRIVER_PICK_LABELS`` labels,
   else per bucket of a hash exchange on the label) -> clusters table;
2. the non-representative member ids (the drop set) leave the payload
   through ``exchange.semi_filter``: a broadcast filter pass (no join, no
   payload shuffle) under its budget, else one payload-with-keys exchange.
"""

from __future__ import annotations

import functools

import pandas as pd
import ray
import ray.data

DEFAULT_ORDER = ("warc_ts", "url")
# label rows the representative pick runs over on the driver; above it the
# pick runs per bucket of a hash exchange on the label
DRIVER_PICK_LABELS = 2_000_000


def _members_from_index(ltab, member_attrs, id_col: str, order_cols) -> "object | None":
    """Members table (id, order cols, label) built from the verify stage's
    sharded endpoint index instead of a corpus attach pass.

    Every label node is an edge endpoint, so its order-column values are
    already in the index. Returns None (caller falls back to the attach
    scan) if the index lacks a needed column or any node is missing."""
    import numpy as np
    import pyarrow as pa
    import ray as _ray

    from .minhash import _id_hash_pair_arrow, _shard_gather, _shard_slot_keys

    shard_refs, attr_cols = member_attrs
    needed = [c for c in order_cols if c != id_col]
    if any(c not in attr_cols for c in needed):
        return None
    shards = _ray.get(list(shard_refs))
    node_arr = ltab["node"]
    if isinstance(node_arr, pa.ChunkedArray):
        node_arr = node_arr.combine_chunks()
    label_arr = ltab["label"]
    if isinstance(label_arr, pa.ChunkedArray):
        label_arr = label_arr.combine_chunks()
    q1, q2 = _id_hash_pair_arrow(node_arr)
    keys = _shard_slot_keys(shards, q1, q2)
    if len(keys) and keys.min() < 0:
        return None  # a node is not in the index — attach pass knows best
    order = np.argsort(keys, kind="stable")
    inv_idx = np.empty_like(order)
    inv_idx[order] = np.arange(len(order))
    cols = {id_col: node_arr}
    for c in needed:
        gathered = _shard_gather(shards, keys[order], c)
        cols[c] = gathered.take(pa.array(inv_idx, pa.int64()))
    cols["label"] = label_arr
    slim_cols = sorted(set([id_col, *order_cols]))
    return pa.table(cols).select([*slim_cols, "label"])


def _apply_labels_numeric(
    pages, labels, id_col, order_cols, payload, counters, member_attrs
):
    """Numeric-spine twin of apply_cluster_labels: labels are
    (node_h1, node_h2, label_h1, label_h2) from numeric components. Strings
    never entered the edge/components path — member ids and order columns
    materialize HERE, once, gathered from the verify index shards; the drop
    set reuses the node hash pairs directly (no re-hash of member ids)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray as _ray

    from .exchange import semi_filter
    from .minhash import _column_id_pair, _shard_gather, _shard_slot_keys

    order_cols = [c for c in order_cols]
    ltab = pa.concat_tables(
        [t for t in _ray.get(labels.materialize().to_arrow_refs()) if t.num_rows]
    ) if labels.count() else None
    empty_clusters = pd.DataFrame(
        {
            "cluster_id": pd.Series([], dtype=object),
            "member": pd.Series([], dtype=object),
            "is_representative": pd.Series([], dtype=bool),
        }
    )
    if ltab is None or ltab.num_rows == 0:
        if counters is not None:
            counters["near_drops"] = 0
        return (payload if payload is not None else pages), ray.data.from_pandas(empty_clusters)
    if member_attrs is None:
        raise ValueError(
            "numeric labels need the verify index shards (member_attrs) to "
            "materialize member ids — pass dedup_edges_minhash(out=...)"
        )

    shard_refs, attr_cols = member_attrs
    needed = [c for c in order_cols if c != id_col]
    missing = [c for c in needed if c not in attr_cols]
    if missing:
        raise ValueError(f"verify index lacks order columns {missing}")
    shards = _ray.get(list(shard_refs))
    n1 = ltab["node_h1"].to_numpy()
    n2 = ltab["node_h2"].to_numpy()
    keys = _shard_slot_keys(shards, n1, n2)
    # phantom nodes (missing-endpoint pairs from degenerate edges) aren't in
    # the corpus — they cannot be kept or dropped; exclude them
    ok = keys >= 0
    if not ok.all():
        take = pa.array(np.nonzero(ok)[0], pa.int64())
        ltab = ltab.take(take)
        n1, n2, keys = n1[ok], n2[ok], keys[ok]
    order = np.argsort(keys, kind="stable")
    inv_idx = np.empty_like(order)
    inv_idx[order] = np.arange(len(order))
    back = pa.array(inv_idx, pa.int64())
    cols = {
        id_col: _shard_gather(shards, keys[order], "ids").take(back),
        "_nh1": pa.array(n1, pa.uint64()),
        "_nh2": pa.array(n2, pa.uint64()),
        "label_h1": ltab["label_h1"],
        "label_h2": ltab["label_h2"],
    }
    for c in needed:
        cols[c] = _shard_gather(shards, keys[order], c).take(back)
    mt = pa.table(cols)

    # keep-first pick: sort by (label pair, order cols); run starts are reps
    sk = [("label_h1", "ascending"), ("label_h2", "ascending")] + [
        (c, "ascending") for c in order_cols
    ]
    mt = mt.take(pc.sort_indices(mt, sort_keys=sk)).combine_chunks()
    n = mt.num_rows
    l1 = mt["label_h1"].to_numpy()
    l2 = mt["label_h2"].to_numpy()
    new_run = np.empty(n, dtype=bool)
    if n:
        new_run[0] = True
        new_run[1:] = (l1[1:] != l1[:-1]) | (l2[1:] != l2[:-1])
    pos = np.arange(n, dtype=np.int64)
    rs = np.where(new_run, pos, 0)
    np.maximum.accumulate(rs, out=rs)
    ids_a = mt[id_col]
    if isinstance(ids_a, pa.ChunkedArray):
        ids_a = ids_a.combine_chunks()
    ctab = pa.table(
        {
            "cluster_id": ids_a.take(pa.array(rs, pa.int64())),
            "member": ids_a,
            "is_representative": pa.array(new_run),
        }
    )
    step = 500_000
    clusters = ray.data.from_arrow(
        [ctab.slice(o, step) for o in range(0, max(ctab.num_rows, 1), step)]
    )

    # drop set: the non-representatives' node hash pairs — already 128-bit
    # identities, no re-hash of the id strings
    drop_sel = ~new_run
    if counters is not None:
        counters["near_drops"] = int(drop_sel.sum())
    keys = ray.data.from_arrow(
        pa.table({"_k1": mt["_nh1"], "_k2": mt["_nh2"]}).filter(pa.array(drop_sel))
    )
    kept = semi_filter(
        payload if payload is not None else pages,
        keys,
        functools.partial(_column_id_pair, col=id_col),
    )
    return kept, clusters


def apply_cluster_labels(
    pages: ray.data.Dataset,
    labels: ray.data.Dataset,
    id_col: str = "url",
    order_cols=DEFAULT_ORDER,
    payload: ray.data.Dataset | None = None,
    counters: dict | None = None,
    member_attrs=None,
):
    """Returns (kept_pages, clusters) — both lazy Datasets.

    ``payload``: optional dataset the keep-filter applies to instead of
    ``pages`` — callers pass a SLIM projection as ``pages`` (the label-attach
    pass only needs id + order columns) and the full-column dataset here, so
    the heavy html/text columns are never decoded for the attach pass.

    ``counters``: optional dict that receives ``near_drops`` (count of
    non-representative clustered members). With it the caller can compute
    kept-row counts arithmetically instead of materializing the filtered
    payload — at web scale the count pass over the payload is pure
    memory-bandwidth cost.

    ``member_attrs``: optional ``(index_shard_refs, attr_cols)`` from the
    verify stage (``dedup_edges_minhash(out=...)``). Every clustered member
    is an edge endpoint, and the verify pick pass already collected its
    order-column values — so the label-attach pass over the corpus (a full
    slim scan + one more Dataset execution, a fixed cost that capped scaling)
    is skipped and the members table is built straight from the index."""
    import numpy as np
    import pyarrow as pa
    import ray as _ray

    if "node_h1" in labels.schema().names:
        return _apply_labels_numeric(
            pages, labels, id_col, order_cols, payload, counters, member_attrs
        )
    order_cols = [c for c in order_cols]
    # clustered members only — the small side; stays Arrow (zero-copy local
    # refs), the driver never materializes label strings as Python objects.
    # Schema-less EMPTY blocks (a lazy map that received no input bundle)
    # would poison the concat — drop them first, like every other concat here
    ltabs = [
        t for t in _ray.get(labels.materialize().to_arrow_refs()) if t.num_rows > 0
    ]
    ltab = (
        pa.concat_tables(ltabs)
        if ltabs
        else pa.table(
            {"node": pa.array([], pa.string()), "label": pa.array([], pa.string())}
        )
    )
    n_labels = ltab.num_rows
    if n_labels == 0:
        empty = pd.DataFrame(
            {
                "cluster_id": pd.Series([], dtype=object),
                "member": pd.Series([], dtype=object),
                "is_representative": pd.Series([], dtype=bool),
            }
        )
        if counters is not None:
            counters["near_drops"] = 0
        return (payload if payload is not None else pages), ray.data.from_pandas(empty)

    from .exchange import fetch_cached, semi_filter
    from .minhash import _column_id_pair, _id_hash_pair, _id_hash_pair_arrow

    members_tbl = None
    if member_attrs is not None:
        members_tbl = _members_from_index(
            ltab, member_attrs, id_col=id_col, order_cols=order_cols
        )

    members = None
    if members_tbl is None:
        # READY lookup index: node-id hashing is sharded across remote tasks
        # (_id_hash_pair_arrow — the serial SipHash over objects cost seconds of
        # driver wall per million labels); the driver only argsorts uint64s.
        # Per-WORKER index builds would be a broadcast tax that grows with
        # cluster size. Fetches are zero-copy (numpy + Arrow from plasma);
        # lookups are vectorized searchsorted over 128-bit id hashes.
        _lh1, _lh2 = _id_hash_pair_arrow(ltab["node"])
        _lorder = np.argsort(_lh1, kind="stable").astype(np.int64)
        _labels_arr = ltab["label"]
        if isinstance(_labels_arr, pa.ChunkedArray):
            _labels_arr = _labels_arr.combine_chunks()
        label_ref = ray.put((_lh1[_lorder], _lh2[_lorder], _labels_arr, _lorder))
        slim_cols = sorted(set([id_col, *order_cols]))

        def attach(t: pa.Table) -> pa.Table:
            # Arrow-native: only the id column is lifted to Python objects (the
            # hash needs str), rows move via zero-copy take — a pandas batch
            # format here converted every slim column of the full corpus
            from .exchange import _pair_lookup_pos

            h1s, h2s, labels_arr, order = fetch_cached(label_ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(object)
            q1, q2 = _id_hash_pair(ids)
            pos, found = _pair_lookup_pos(h1s, h2s, q1, q2)
            sel = np.nonzero(found)[0]
            out = t.select(slim_cols).take(pa.array(sel, pa.int64()))
            # Arrow take of only the FOUND labels (clustered members — the small
            # subset); no per-row Python over the full corpus
            return out.append_column("label", labels_arr.take(pa.array(order[pos[sel]])))

        members = pages.select_columns(slim_cols).map_batches(
            attach, batch_format="pyarrow"
        )

    import pyarrow.compute as pc

    def pick_reps_arrow(mt: pa.Table) -> pa.Table:
        """Arrow-native keep-first: sort by (label, order), run starts are
        the representatives. The former pandas formulation merge-sorted the
        member table as Python objects — 2.2 s of the stage's 5 s at 431k
        members; this is the same ~0.2 s C++ sort the LSH pass uses."""
        sk = [("label", "ascending")] + [(c, "ascending") for c in order_cols]
        mt = mt.take(pc.sort_indices(mt, sort_keys=sk)).combine_chunks()
        n = mt.num_rows
        lab = mt["label"]
        if isinstance(lab, pa.ChunkedArray):
            lab = lab.combine_chunks()
        new_run = np.empty(n, dtype=bool)
        if n:
            new_run[0] = True
            new_run[1:] = pc.not_equal(lab.slice(1), lab.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
        pos = np.arange(n, dtype=np.int64)
        rs = np.where(new_run, pos, 0)
        np.maximum.accumulate(rs, out=rs)
        ids_a = mt[id_col]
        if isinstance(ids_a, pa.ChunkedArray):
            ids_a = ids_a.combine_chunks()
        reps = ids_a.take(pa.array(rs, pa.int64()))
        return pa.table(
            {
                "cluster_id": reps,
                "member": ids_a,
                # by ID equality, not first-of-run: the attach pass emits one
                # member row per PAGE row, so a representative whose id
                # appears twice in pages would mark its second copy
                # non-representative and put its own id in the drop set —
                # deleting the whole cluster. Ids are the document identity
                # (rows sharing one are kept or dropped together).
                "is_representative": pc.equal(ids_a, reps),
            }
        )

    def cluster_table(tabs) -> ray.data.Dataset:
        ctab = pick_reps_arrow(pa.concat_tables(tabs))
        return ray.data.from_arrow(
            [ctab.slice(o, 500_000) for o in range(0, max(ctab.num_rows, 1), 500_000)]
        )

    # the members table is at most as large as the label table, which ALREADY
    # sits on the driver — so when labels fit ``DRIVER_PICK_LABELS``, one
    # vectorized Arrow pass there replaces a distributed exchange whose
    # fixed cost grows with cluster CPUs (measured 4.6 s for 57k rows at 32
    # CPUs on the former aggregator-actor shuffle). Above it, the pick runs
    # per bucket of a hash exchange on the label hash.
    if members_tbl is not None:
        clusters = cluster_table([members_tbl])
    elif n_labels <= DRIVER_PICK_LABELS:
        # lazy upstream chains can emit schema-less EMPTY blocks (a map task
        # that received no input bundle) — drop them before concat, exactly
        # like the verify assemble does
        mtabs = [
            t for t in ray.get(members.materialize().to_arrow_refs()) if t.num_rows > 0
        ]
        if not mtabs:
            if counters is not None:
                counters["near_drops"] = 0
            empty = pd.DataFrame(
                {
                    "cluster_id": pd.Series([], dtype=object),
                    "member": pd.Series([], dtype=object),
                    "is_representative": pd.Series([], dtype=bool),
                }
            )
            return (payload if payload is not None else pages), ray.data.from_pandas(empty)
        clusters = cluster_table(mtabs)
    else:
        from ..functions.hashing import hash64
        from .exchange import default_shuffle_buckets, hash_exchange

        def label_hash(t: pa.Table) -> pa.Table:
            lab = t["label"].to_numpy(zero_copy_only=False).astype(object)
            return t.append_column("_lh", pa.array(hash64(lab), pa.uint64()))

        def pick_bucket(t: pa.Table | None) -> pa.Table:
            if t is None:
                return pa.table(
                    {
                        "cluster_id": pa.array([], pa.string()),
                        "member": pa.array([], pa.string()),
                        "is_representative": pa.array([], pa.bool_()),
                    }
                )
            return pick_reps_arrow(t.drop_columns(["_lh"]))

        clusters = hash_exchange(
            members.map_batches(label_hash, batch_format="pyarrow"),
            "_lh",
            default_shuffle_buckets(),
            pick_bucket,
        ).materialize()

    def drop_keys(t: pa.Table) -> pa.Table:
        # the non-representative members: the drop set, as id hash pairs
        h1, h2 = _column_id_pair(t.filter(pc.invert(t["is_representative"])), "member")
        return pa.table({"_k1": pa.array(h1, pa.uint64()), "_k2": pa.array(h2, pa.uint64())})

    keys = clusters.map_batches(drop_keys, batch_format="pyarrow").materialize()
    if counters is not None:
        counters["near_drops"] = keys.count()
    kept = semi_filter(
        payload if payload is not None else pages,
        keys,
        functools.partial(_column_id_pair, col=id_col),
    )
    return kept, clusters
