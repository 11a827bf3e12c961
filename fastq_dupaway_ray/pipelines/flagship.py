"""The flagship pipeline: full web-page near-dedup with checkpoints + metrics.

End-to-end composition (the new-engine lifecycle from SURVEY.md §3), fused
for web scale — the corpus payload NEVER enters the object store between
stages and the heavy html column is never decoded until the final sink:

    read (url, warc_ts, text only)
    -> validate (quarantine counted, not aborted)          [invariant]
    -> slim 128-bit content identity -> exact drop ids     [reference --fast]
    -> numeric MinHash/LSH near-dup edges + verify         [north rule]
    -> connected components -> representative selection
    -> kept pages (lazy full-column filter chain) + clusters + metrics

Every intermediate artifact is SLIM (drop ids, candidate edges, labels);
kept-row counts are derived arithmetically from the drop-set sizes, so the
pipeline never runs a pure-count pass over the payload. The filtered
full-column dataset materializes exactly once — in the output sink, if the
caller asks for one.

Optionally checkpointed per stage under a root dir (state.checkpoint):
re-running with the same inputs resumes after the last complete slim stage
(drops / edges / labels) and replays only the streaming filter passes, which
read from the durable input anyway.

Id contract: the EXACT stage is row-exact under any input — recrawled urls
(same url, same text, later warc_ts) lose keep-first without sweeping their
winner row, and full (url, warc_ts, text) ties route to a value-comparing
fallback. The NEAR-DUP stages treat ``url`` as the document identity (the
input_hint's key): rows that still share a url after exact dedup (same url,
different text) are conflated into one logical document — they are kept or
dropped together by the near-dup filter.
"""

from __future__ import annotations

import json
import os

import ray
import ray.data

from ..functions.sketches import MinHashParams
from ..sources.pages import read_pages, split_quarantine
from ..stages import components as _comp
from ..stages import minhash as _mh
from ..stages import representative as _rep
from ..stages.dedup_exact import exact_drop_ids
from ..state.checkpoint import (
    checkpoint,
    fingerprint,
    input_identity,
    is_complete,
    read_manifest,
)

SLIM_COLS = ["url", "warc_ts", "text"]


@ray.remote
def _any_true(t, col: str = "_ambig"):
    """(bool,) — whether any value of ``col`` in the block is true.

    Column by NAME on purpose: ``select_columns(...).to_arrow_refs()`` can
    hand back the underlying materialized blocks without applying the
    projection, so positional access would read the wrong column."""
    import pyarrow.compute as pc

    if t.num_rows == 0 or col not in t.column_names:
        return (False,)
    return (bool(pc.any(t[col]).as_py() or False),)


def _spool_fastx_once(pages_path: str, ckpt_root: str | None) -> str:
    """FASTX inputs: parse+gunzip ONCE into a parquet spool and return its
    path. The flagship re-executes its read lineage several times (count,
    drops pass, exact filter, sign, full-column attach/sink) — cheap for
    parquet (metadata counts, pruned column reads) but a full decompress +
    parse per pass for fastx. The spool is fingerprinted on the input's
    content identity and reused across runs (under ``ckpt_root`` when given,
    else a temp dir keyed by the fingerprint)."""
    import tempfile

    from ..sources.fastx import dir_has_fastx, is_fastx_path

    if not (is_fastx_path(pages_path) or dir_has_fastx(pages_path)):
        return pages_path, False
    fp = fingerprint("fastx-spool", os.path.abspath(pages_path), input_identity(pages_path))
    root = ckpt_root or os.path.join(tempfile.gettempdir(), "fdr_fastx_spool")
    spool = os.path.join(root, f"spool-{fp[:16]}")
    marker = os.path.join(spool, "_SPOOLED")
    if not (os.path.isdir(spool) and os.path.exists(marker)):
        import shutil

        shutil.rmtree(spool, ignore_errors=True)  # partial crashed spool
        os.makedirs(spool, exist_ok=True)
        # the raw parse keeps the fastx _valid record-shape flags: the page
        # validator folds a pre-existing _valid column in with AND
        read_pages(pages_path).write_parquet(spool)
        with open(marker, "w") as f:
            f.write(fp)
    return spool, True


def _drop_filter_fn(drops_ds, key_cols=("text",), row_cols=("url", "warc_ts")):
    """Broadcast drop-row filter: two-stage sorted 128-bit hash membership,
    applied as a streaming Arrow pass (the payload is filtered, never
    shuffled).

    Stage 1 probes the (url, warc_ts) ROW key — cheap, runs on every row.
    Stage 2 recomputes the CONTENT identity only for stage-1 hits (~n_drops
    rows corpus-wide) and confirms it against the drop entry's content key:
    a recrawled url whose winner row shares the url must not be swept out by
    a bare id-membership test (each drop entry names exactly one losing row;
    full winner ties never reach this filter — the caller falls back)."""
    import numpy as np
    import pyarrow as pa

    from ..stages.dedup_exact import _identity128
    from ..stages.exchange import fetch_cached, nonempty_block_refs
    from ..stages.minhash import _id_member_mask_pre

    row_cols = list(row_cols)
    key_cols = list(key_cols)

    @ray.remote
    def _block_keys(t):
        from ..stages.exchange import as_arrow_block

        t = as_arrow_block(t)  # internal refs can be pandas blocks
        u1, u2 = _identity128(t, row_cols)
        return u1, u2, t["_k1"].to_numpy(), t["_k2"].to_numpy()

    parts = [
        p
        for p in ray.get(
            [_block_keys.remote(r) for r in nonempty_block_refs(drops_ds)]
        )
        if len(p[0])
    ]
    if not parts:
        return None
    u1 = np.concatenate([p[0] for p in parts])
    u2 = np.concatenate([p[1] for p in parts])
    k1 = np.concatenate([p[2] for p in parts])
    k2 = np.concatenate([p[3] for p in parts])
    from ..functions.hashing import combine_hash64

    order = np.argsort(u1, kind="stable")
    # stage-2 key: row key and content key folded into one sorted 128-bit
    # pair — membership via the same searchsorted kernel as stage 1
    m1 = combine_hash64(u1, k1)
    m2 = combine_hash64(u2, k2)
    morder = np.argsort(m1, kind="stable")
    ref = ray.put((u1[order], u2[order], m1[morder], m2[morder]))

    def drop_filter(t: pa.Table) -> pa.Table:
        iu1, iu2, im1, im2 = fetch_cached(ref)
        q1, q2 = _identity128(t, row_cols)
        hit = _id_member_mask_pre((iu1, iu2), q1, q2)
        if not hit.any():
            return t
        hidx = np.nonzero(hit)[0]
        sub = t.take(pa.array(hidx, pa.int64()))
        c1, c2 = _identity128(sub, key_cols)
        conf = _id_member_mask_pre(
            (im1, im2), combine_hash64(q1[hidx], c1), combine_hash64(q2[hidx], c2)
        )
        mask = np.zeros(t.num_rows, dtype=bool)
        mask[hidx[conf]] = True
        return t.filter(pa.array(~mask))

    return drop_filter


def run_flagship(
    pages_path: str,
    out_dir: str | None = None,
    ckpt_root: str | None = None,
    params: MinHashParams = MinHashParams(),
    threshold: float | None = None,
    verify: bool = True,
    drop_broadcast_budget: int = 5_000_000,
):
    """Returns (kept: Dataset [lazy], clusters: Dataset, metrics: dict).

    metrics includes ``stage_seconds`` — wall time per executed stage —
    the --verbose counter surface (A7) extended with the timing breakdown a
    cluster operator reads first.

    ``drop_broadcast_budget`` caps the exact-stage drop-set broadcast: web
    corpora run 30-50% exact-duplicate, so at 10^12 docs the drop set is
    ~10^11 entries — far past what the driver can ``ray.get`` and re-ship to
    every filter task. Above the budget both the slim and the full-column
    chains route through the value-comparing payload-shuffle dedup (the same
    fallback the full-tie ``ambig`` path uses; stages.dedup_exact:378), which
    exchanges each row once instead of funnelling the drop set through the
    driver. The kept (url, warc_ts) set is identical on both limbs — keep-
    first winners are a data property, not an execution-path property."""
    import time as _time

    metrics: dict = {"input": pages_path, "stage_seconds": {}}
    _t = _time.time()

    def _mark(stage: str):
        nonlocal _t
        now = _time.time()
        metrics["stage_seconds"][stage] = round(now - _t, 3)
        _t = now

    def _persist(ds, name: str, fp: str):
        """Materialize a slim stage result once; with a checkpoint root,
        write it there too (``checkpoint`` hands the materialized blocks
        back instead of re-reading the parts it just wrote)."""
        ds = ds.materialize()
        return checkpoint(ds, ckpt_root, name, fp) if ckpt_root else ds

    pages_path, spooled = _spool_fastx_once(pages_path, ckpt_root)

    # slim read: the identity/signing passes only need (url, warc_ts, text);
    # html stays in storage until the final sink (prune at the read). A fastx
    # spool carries the parser's _valid record-shape flags — read them along
    # so split_quarantine folds them in (the direct fastx limb does the same)
    slim = read_pages(
        pages_path, columns=[*SLIM_COLS, "_valid"] if spooled else SLIM_COLS
    )
    total = slim.count()  # parquet metadata count — no data read
    good_slim, _bad = split_quarantine(slim)

    # ---- exact keep-first dedup (reference --fast), slim drop-row form ----
    # fold the input's content identity (file sizes + mtimes), not just its
    # path — re-running after the inputs change in place must NOT reuse the
    # stale checkpoint and everything chained from it
    fp0 = fingerprint("exact-drops-v2", pages_path, input_identity(pages_path))
    if ckpt_root and is_complete(os.path.join(ckpt_root, "exact"), fp0):
        man = read_manifest(ckpt_root, "exact")
        drops = ray.data.read_parquet(
            os.path.join(ckpt_root, "exact"), file_extensions=["parquet"]
        )
        n_drops = man["rows"]
        metrics["valid"] = man["extra"]["n_valid"]
    else:
        ctr: dict = {}
        drops = exact_drop_ids(good_slim, counters=ctr).materialize()
        n_drops = drops.count()
        metrics["valid"] = ctr["n_input"]
        if ckpt_root and n_drops <= drop_broadcast_budget:
            # an over-budget drop set is about to be DISCARDED for the
            # value-comparing shuffle — persisting it would write the one
            # artifact this gate exists to avoid. (The slim drop exchange
            # itself still ran before the count — accepted: slim rows are
            # ~1-2% of the paranoid pass's payload bytes, and the count is
            # what decides the limb.)
            drops = checkpoint(
                drops, ckpt_root, "exact", fp0, extra={"n_valid": metrics["valid"]}
            )
    metrics["quarantined"] = total - metrics["valid"]
    over_budget = n_drops > drop_broadcast_budget
    # over budget the paranoid shuffle compares actual values, so full-tie
    # ambiguity is moot — skip the per-block scan
    ambig_any = (
        not over_budget
        and n_drops > 0
        and any(
            r[0]
            for r in ray.get([_any_true.remote(ref) for ref in drops.to_arrow_refs()])
        )
    )
    if ambig_any or over_budget:
        # two reasons to abandon the drop-set broadcast: (a) a losing row
        # fully ties its keep-first winner (same url, warc_ts AND content) —
        # no slim key can name the loser alone; (b) the drop set exceeds the
        # broadcast budget — ray.get-ing ~10^11 entries into the driver and
        # re-shipping them per filter task is the one driver-side funnel this
        # pipeline must never have at corpus scale. Both route to the
        # value-comparing payload-shuffle dedup. The kept (url, warc_ts) set
        # is deterministic (content groups and their order minima are data
        # properties), so the slim and full chains stay aligned.
        from ..stages.dedup_exact import dedup_exact as _dedup_exact

        exact_slim = _dedup_exact(good_slim, paranoid=True).materialize()
        n_drops = metrics["valid"] - exact_slim.count()
        drop_filter = None
    else:
        drop_filter = _drop_filter_fn(drops) if n_drops > 0 else None
        exact_slim = (
            good_slim.map_batches(drop_filter, batch_format="pyarrow")
            if drop_filter is not None
            else good_slim
        )
    metrics["after_exact"] = metrics["valid"] - n_drops
    _mark("exact_dedup")

    # ---- near-dup candidate edges (numeric spine) + verify ----
    # fingerprints chain: editing params/threshold invalidates downstream
    fp1 = fingerprint("edges", fp0, params, threshold, verify)
    vout: dict = {}
    if ckpt_root and is_complete(os.path.join(ckpt_root, "edges"), fp1):
        edges = ray.data.read_parquet(
            os.path.join(ckpt_root, "edges"), file_extensions=["parquet"]
        )
    else:
        edges = _persist(
            _mh.dedup_edges_minhash(
                exact_slim,
                params=params,
                verify=verify,
                threshold=threshold,
                out=vout,
                # numeric spine end-to-end: ids stay 128-bit hash pairs
                # through components; strings materialize once in
                # apply_cluster_labels
                emit="numeric" if verify else "ids",
            ),
            "edges",
            fp1,
        )
    if "ah1" in edges.schema().names and "index_shards" not in vout:
        # checkpoint-resumed numeric edges: rebuild the endpoint index (one
        # corpus scan — cheap next to the skipped sign/LSH/verify stages) so
        # the representative stage can materialize member ids
        shard_refs, text_refs, attrs_present = _mh.build_endpoint_index(
            edges.materialize(), exact_slim, attr_cols=("warc_ts", "url")
        )
        if shard_refs:
            vout["index_shards"] = shard_refs
            vout["attr_cols"] = attrs_present
    metrics["candidate_edges"] = edges.count()
    _mark("minhash_edges")

    fp2 = fingerprint("labels", fp1)
    labels = _persist(_comp.connected_components(edges), "labels", fp2)
    _mark("components")

    # representative pick over the SLIM filtered projection; the keep-filter
    # applies to the lazy FULL-column chain (html decoded only when consumed)
    full_good, _ = split_quarantine(read_pages(pages_path))
    if ambig_any or over_budget:
        from ..stages.dedup_exact import dedup_exact as _dedup_exact

        # same value-comparing dedup over the full columns; keeps the same
        # (url, warc_ts) row set as the slim chain (see the fallback note)
        exact_full = _dedup_exact(full_good, paranoid=True)
    elif drop_filter is not None:
        exact_full = full_good.map_batches(drop_filter, batch_format="pyarrow")
    else:
        exact_full = full_good
    rctr: dict = {}
    kept, clusters = _rep.apply_cluster_labels(
        exact_slim,
        labels,
        payload=exact_full,
        counters=rctr,
        # verify's endpoint index carries the member order values — skips the
        # attach corpus pass (absent on checkpoint-resumed edge lists)
        member_attrs=(
            (vout["index_shards"], vout["attr_cols"]) if "index_shards" in vout else None
        ),
    )
    clusters = clusters.materialize()
    metrics["kept"] = metrics["after_exact"] - rctr["near_drops"]
    _mark("representative")
    metrics["near_dup_removed"] = rctr["near_drops"]
    metrics["exact_dup_removed"] = n_drops

    if out_dir:
        # final sinks go through the same manifest machinery as stage
        # checkpoints: per-partition row counts, atomic rename, and
        # skip-if-complete on re-run (resumable output, north rule) — this is
        # the ONE pass that reads the full-column payload
        fp3 = fingerprint("kept", fp2)
        kept = checkpoint(kept, out_dir, "kept", fp3)
        clusters = checkpoint(clusters, out_dir, "clusters", fingerprint("clusters", fp3))
        with open(os.path.join(out_dir, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=1)
    return kept, clusters, metrics
