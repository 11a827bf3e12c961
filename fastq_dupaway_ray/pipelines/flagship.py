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
fallback (``stages.dedup_exact.exact_gate``, whose ``semi_filter`` is exact
on both its broadcast and its exchange limb). The NEAR-DUP stages treat
``url`` as the document identity (the input_hint's key): rows that still
share a url after exact dedup (same url, different text) are conflated into
one logical document — they are kept or dropped together by the near-dup
filter.
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
from ..stages.dedup_exact import DEFAULT_ORDER, exact_drop_ids, exact_gate
from ..state.checkpoint import (
    checkpoint,
    fingerprint,
    input_identity,
    is_complete,
    read_manifest,
)

SLIM_COLS = ["url", "warc_ts", "text"]


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


def run_flagship(
    pages_path: str,
    out_dir: str | None = None,
    ckpt_root: str | None = None,
    params: MinHashParams = MinHashParams(),
    threshold: float | None = None,
    verify: bool = True,
):
    """Returns (kept: Dataset [lazy], clusters: Dataset, metrics: dict).

    metrics includes ``stage_seconds`` — wall time per executed stage —
    the --verbose counter surface (A7) extended with the timing breakdown a
    cluster operator reads first.

    One ``exact_gate`` removes the exact-stage losers from both the slim and
    the full-column chain. Web corpora run 30-50% exact-duplicate, so at
    10^12 docs the drop set is ~10^11 entries: past
    ``exchange.DROP_BROADCAST_BUDGET`` the gate's ``semi_filter`` co-locates
    each chain with the drop keys in one exchange instead of broadcasting
    them. The kept (url, warc_ts) set is identical on every limb — keep-
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
        metrics["valid"] = man["extra"]["n_valid"]
    else:
        ctr: dict = {}
        drops = exact_drop_ids(good_slim, counters=ctr).materialize()
        metrics["valid"] = ctr["n_input"]
        if ckpt_root:
            drops = checkpoint(
                drops, ckpt_root, "exact", fp0, extra={"n_valid": metrics["valid"]}
            )
    metrics["quarantined"] = total - metrics["valid"]
    gate, n_drops = exact_gate(drops, ["text"], DEFAULT_ORDER)
    exact_slim = gate(good_slim)
    if n_drops is None:
        # a losing row fully ties its keep-first winner (same url, warc_ts
        # AND content): the gate compares actual values — count its output
        exact_slim = exact_slim.materialize()
        n_drops = metrics["valid"] - exact_slim.count()
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
    # the same gate over the full columns keeps the same (url, warc_ts) rows
    exact_full = gate(split_quarantine(read_pages(pages_path))[0])
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
