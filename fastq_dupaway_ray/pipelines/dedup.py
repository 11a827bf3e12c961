"""Unified dedup pipeline dispatch — the engine's main() analogue.

The reference's ``main`` dispatches on a mode bitmask to one of 8 concrete
pipelines (/root/reference/src/main.cpp:196-245); here a config dataclass
selects the stage composition. Every mode returns the same triple:

    DedupOutput(kept: Dataset, clusters: Dataset, metrics: dict)

metrics mirrors the --verbose counters (total / kept / duplicates,
/root/reference/src/hash_dup_remover.hpp:342-346).

Modes:
* "exact"        — hash keep-first (reference --fast, A1); composite
                   ``key_cols`` reproduces paired mode (A2)
* "tight"/"loose"/"hamming" — sorted-adjacency scans (A3-A5, exact mirrors)
* "minhash"      — MinHash+LSH near-dup -> components -> representatives
* "simhash"      — SimHash Hamming-ball near-dup -> components -> representatives
"""

from __future__ import annotations

from dataclasses import dataclass, field

import ray.data

from ..functions.sketches import MinHashParams
from ..stages import adjacency as _adj
from ..stages import components as _comp
from ..stages import dedup_exact as _exact
from ..stages import minhash as _mh
from ..stages import representative as _rep
from ..stages import simhash as _sh


@dataclass
class DedupConfig:
    mode: str = "exact"
    key_cols: tuple = ("text",)  # composite => paired AND-semantics
    id_col: str = "url"
    text_col: str = "text"
    text_cols: tuple | None = None  # two entries => paired adjacency (EP3)
    order_cols: tuple = ("warc_ts", "url")
    distance: int = 2  # hamming / simhash threshold (--distance analogue)
    # simhash feature space: "word" n-grams (generic web text) or "char"
    # shingles (the reference-parity recall config — see RECALL_r05.json);
    # length_bucket folds text length into the pigeonhole key (the
    # reference predicate requires equal lengths, so it costs no recall
    # while shattering hot buckets at large Hamming balls)
    simhash_feature: str = "word"
    simhash_shingle_k: int = 8
    simhash_length_bucket: bool = False
    simhash_dense_limit: int = 64
    minhash: MinHashParams = field(default_factory=MinHashParams)
    threshold: float | None = None  # jaccard verify threshold (None => from bands)
    verify: bool = True
    num_buckets: int = 64
    emit_clusters: bool = True


@dataclass
class DedupOutput:
    kept: ray.data.Dataset
    clusters: ray.data.Dataset | None
    metrics: dict


def run_dedup(ds: ray.data.Dataset, cfg: DedupConfig = DedupConfig()) -> DedupOutput:
    # exact mode counts its input from the slim exchange's block metadata;
    # the other modes count up front (on a fastx lineage that is a parse)
    total = None if cfg.mode == "exact" else ds.count()
    # kept-row counts come out of the slim dedup machinery (drop-set /
    # non-representative counters) whenever the fast limbs run, so the
    # filtered PAYLOAD is never materialized or counted here — consuming a
    # web-scale corpus purely to count it is memory-bandwidth burned. kept
    # stays lazy; callers that write it pay the one payload pass they need.
    n_kept = None
    if cfg.mode == "exact":
        ctr: dict = {}
        kw = dict(
            key_cols=cfg.key_cols,
            order_cols=cfg.order_cols,
            num_buckets=cfg.num_buckets,
            counters=ctr,
        )
        if cfg.emit_clusters:
            # drops and clusters from ONE slim exchange
            kept, clusters = _exact.dedup_exact_with_clusters(ds, id_col=cfg.id_col, **kw)
        else:
            kept, clusters = _exact.dedup_exact(ds, **kw), None
        total = ctr["n_input"]
        if "drops" in ctr:
            n_kept = total - ctr["drops"]
        else:  # payload-shuffle fallback limb: count the result
            kept = kept.materialize()
    elif cfg.mode in ("tight", "loose", "hamming"):
        res = _adj.dedup_adjacency(
            ds,
            mode=cfg.mode,
            distance=cfg.distance,
            text_col=cfg.text_col,
            text_cols=cfg.text_cols,
            id_col=cfg.id_col,
            order_cols=cfg.order_cols,
            emit_clusters=cfg.emit_clusters,
        )
        kept = res.kept.materialize()
        clusters = res.clusters if cfg.emit_clusters else None
    elif cfg.mode in ("minhash", "simhash"):
        vout: dict = {}
        if cfg.mode == "minhash":
            edges = _mh.dedup_edges_minhash(
                ds,
                params=cfg.minhash,
                id_col=cfg.id_col,
                text_col=cfg.text_col,
                order_cols=cfg.order_cols,
                verify=cfg.verify,
                threshold=cfg.threshold,
                out=vout,
                # numeric spine end-to-end: edge ids stay 128-bit hash pairs
                # through components; strings materialize once from the
                # verify index inside apply_cluster_labels (falls back to
                # string edges automatically on the join-verify limb)
                emit="numeric" if cfg.verify else "ids",
            )
        else:
            edges = _sh.simhash_candidate_edges(
                ds,
                distance=cfg.distance,
                id_col=cfg.id_col,
                text_col=cfg.text_col,
                text_cols=cfg.text_cols,  # paired: both mates within distance
                order_cols=cfg.order_cols,
                feature=cfg.simhash_feature,
                shingle_k=cfg.simhash_shingle_k,
                length_bucket=cfg.simhash_length_bucket,
                dense_limit=cfg.simhash_dense_limit,
            )
        labels = _comp.connected_components(edges.materialize()).materialize()
        ctr = {}
        # attach labels over a SLIM projection; the full-column dataset only
        # feeds the final keep-filter (html is never decoded to pick reps).
        # When the verify stage produced its sharded endpoint index, member
        # order values come from there and the attach corpus pass is skipped.
        slim_cols = sorted(set([cfg.id_col, *cfg.order_cols]))
        attrs = (
            (vout["index_shards"], vout["attr_cols"])
            if "index_shards" in vout
            else None
        )
        kept, clusters = _rep.apply_cluster_labels(
            ds.select_columns(slim_cols),
            labels,
            id_col=cfg.id_col,
            order_cols=cfg.order_cols,
            payload=ds,
            counters=ctr,
            member_attrs=attrs,
        )
        n_kept = total - ctr["near_drops"]
        if not cfg.emit_clusters:
            clusters = None
    else:
        raise ValueError(f"unknown dedup mode: {cfg.mode}")

    if n_kept is None:
        n_kept = kept.count()
    metrics = {"mode": cfg.mode, "total": total, "kept": n_kept, "duplicates": total - n_kept}
    return DedupOutput(kept=kept, clusters=clusters, metrics=metrics)
