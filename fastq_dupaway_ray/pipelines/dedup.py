"""The one dedup composition — the engine's main() analogue.

The reference's ``main`` dispatches on a mode bitmask to one of 8 concrete
pipelines (/root/reference/src/main.cpp:196-245); here a config dataclass
selects the mode and ``run_dedup`` runs every mode through one lifecycle
(SURVEY.md §3). The CLI, the flagship (``pipelines.flagship``) and the
training-data pipeline all call it:

    read        a path: pruned columns for the slim passes, the full columns
                for the payload (FASTA/FASTQ: the near-dup modes spool it to
                parquet once; the other modes hold its slim parse in memory);
                a Dataset is taken as the caller's valid rows
    -> validate ``split_quarantine``: malformed rows are counted, not aborted
    -> exact    keep-first drop set (``exact_drop_ids``) + ``exact_gate``
                [exact, minhash, simhash]
    -> edges    MinHash/LSH + verify, or SimHash          [minhash, simhash]
    -> components -> representative (``apply_cluster_labels``)
    -> DedupOutput(kept: Dataset [lazy], clusters: Dataset | None, metrics)

* "exact"   — hash keep-first (reference --fast, A1); drops and clusters
              come from one exchange (``dedup_exact_with_clusters``);
              composite ``key_cols`` reproduces paired mode (A2)
* "tight"/"loose"/"hamming" — sorted-adjacency scans (A3-A5, exact mirrors
              of the reference); they take the validated rows, no exact stage
* "minhash" — MinHash+LSH near-dup -> components -> representatives
* "simhash" — SimHash Hamming-ball near-dup -> components -> representatives

Every intermediate of the near-dup modes is SLIM (drop keys, edges, labels):
the signing and label passes read only the id, order and text columns, and
one ``exact_gate`` filters both that slim chain and the full-column payload,
which is decoded only when the caller consumes ``kept``. Kept-row counts are
derived from the drop-set sizes, so no pass counts the payload.

With ``ckpt_root`` (path inputs, near-dup modes) the slim stage results are
checkpointed as ``exact``, ``edges`` and ``labels`` (``state.checkpoint``).
Their fingerprints chain from the whole ``DedupConfig`` and the input's
content identity, so a re-run with the same config resumes after the last
complete stage, and any other config or an edited input starts over.
Nothing is rebuilt on resume: with no live verify stage there is no endpoint
index, and ``apply_cluster_labels`` attaches the cluster members by one slim
scan instead.

Id contract: the exact stage is row-exact under any input (recrawled urls
lose keep-first without sweeping their winner; full ties route to a
value-comparing fallback inside ``exact_gate``). The near-dup stages treat
``id_col`` as the document identity: rows that share an id after the exact
stage are kept or dropped together.

``metrics`` holds the --verbose counters (/root/reference/src/
hash_dup_remover.hpp:342-346) with ``total = quarantined +
exact_dup_removed + near_dup_removed + kept``; the adjacency modes report
their drops as ``near_dup_removed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import ray.data

from ..functions.sketches import MinHashParams
from ..sources.fastx import dir_has_fastx, is_fastx_path, read_fastx
from ..sources.pages import read_pages, split_quarantine
from ..stages import adjacency as _adj
from ..stages import components as _comp
from ..stages import dedup_exact as _exact
from ..stages import minhash as _mh
from ..stages import representative as _rep
from ..stages import simhash as _sh
from ..state.checkpoint import checkpoint, fingerprint, input_identity, is_complete, read_manifest

MODES = ("exact", "tight", "loose", "hamming", "minhash", "simhash")
# the modes whose stages persist under ckpt_root; the rest persist nothing
NEAR_MODES = ("minhash", "simhash")


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
    num_buckets: int = 64
    emit_clusters: bool = True


@dataclass
class DedupOutput:
    kept: ray.data.Dataset
    clusters: ray.data.Dataset | None
    metrics: dict


def _is_spool(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_SPOOLED"))


def spool_fastx_once(path: str, ckpt_root: str | None, fmt: str | None = None):
    """FASTX inputs: parse+gunzip ONCE into a parquet spool; returns
    ``(path to read, spooled)``. A pipeline reads its input several times
    (count, exact pass, signing, payload sink) — cheap for parquet (metadata
    counts, pruned column reads) but a full decompress + parse per pass for
    fastx. ``fmt`` forces FASTA/FASTQ parsing of a path without a fastx
    extension. The spool is fingerprinted on the input's content identity
    and reused across runs (under ``ckpt_root`` when given, else a temp dir);
    a spool path passes through as spooled. Other paths pass through."""
    import shutil
    import tempfile

    if _is_spool(path):
        return path, True
    if not (fmt or is_fastx_path(path) or dir_has_fastx(path)):
        return path, False
    fp = fingerprint("fastx-spool", os.path.abspath(path), fmt, input_identity(path))
    root = ckpt_root or os.path.join(tempfile.gettempdir(), "fdr_fastx_spool")
    spool = os.path.join(root, f"spool-{fp[:16]}")
    marker = os.path.join(spool, "_SPOOLED")
    if not os.path.exists(marker):
        shutil.rmtree(spool, ignore_errors=True)  # partial crashed spool
        os.makedirs(spool, exist_ok=True)
        # the raw parse keeps the fastx _valid record-shape flags: the page
        # validator folds a pre-existing _valid column in with AND
        read_fastx(path, fmt).write_parquet(spool)
        with open(marker, "w") as f:
            f.write(fp)
    return spool, True


def _near_edges(ds: ray.data.Dataset, cfg: DedupConfig, vout: dict) -> ray.data.Dataset:
    if cfg.mode == "minhash":
        return _mh.dedup_edges_minhash(
            ds,
            params=cfg.minhash,
            id_col=cfg.id_col,
            text_col=cfg.text_col,
            order_cols=cfg.order_cols,
            threshold=cfg.threshold,
            out=vout,
            # numeric spine end-to-end: edge ids stay 128-bit hash pairs
            # through components; apply_cluster_labels attaches the ids
            emit="numeric",
        )
    return _sh.simhash_candidate_edges(
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


def run_dedup(
    src, cfg: DedupConfig = DedupConfig(), ckpt_root: str | None = None
) -> DedupOutput:
    """Dedup a pages path (quarantined here) or a Dataset of valid rows; see
    the module docstring. ``ckpt_root`` checkpoints the near-dup modes' slim
    stages and needs a path input."""
    if cfg.mode not in MODES:
        raise ValueError(f"unknown dedup mode: {cfg.mode}")
    near = cfg.mode in NEAR_MODES
    if isinstance(src, ray.data.Dataset):
        if ckpt_root:
            raise ValueError("ckpt_root fingerprints the input's files: pass a path")
        slim = full = src
        # exact mode counts its input from the slim exchange's block metadata
        total = None if cfg.mode == "exact" else src.count()
        fp = None
    else:
        # the near-dup modes read their input several times: spool FASTA/FASTQ
        path, spooled = spool_fastx_once(src, ckpt_root) if near else (src, _is_spool(src))
        # prune at the read: the exact, signing and label passes need no html
        cols = list(dict.fromkeys([cfg.id_col, *cfg.order_cols, *cfg.key_cols, cfg.text_col]))
        raw = read_pages(path, columns=[*cols, "_valid"] if spooled else cols)
        if is_fastx_path(path) or dir_has_fastx(path):
            raw = raw.materialize()  # parse once for the count and the slim passes
        total = raw.count()  # parquet metadata or materialized blocks — no data read
        slim = split_quarantine(raw, cfg.id_col, cfg.text_col)[0]
        full = split_quarantine(read_pages(path), cfg.id_col, cfg.text_col)[0]
        fp = fingerprint(cfg, os.path.abspath(src), input_identity(src))

    def persist(name: str, build):
        """A slim stage result, materialized once, and its counters. Under
        ``ckpt_root`` it is checkpointed (``checkpoint`` hands the
        materialized blocks back), and a complete checkpoint of the same
        fingerprint is read back instead of building it."""
        nonlocal fp
        fp = fingerprint(name, fp)
        where = os.path.join(ckpt_root, name) if ckpt_root else None
        if where and is_complete(where, fp):
            ds = ray.data.read_parquet(where, file_extensions=["parquet"])
            return ds, read_manifest(ckpt_root, name).get("extra", {})
        ctr: dict = {}
        ds = build(ctr).materialize()
        return (checkpoint(ds, ckpt_root, name, fp, extra=ctr) if where else ds), ctr

    clusters = None
    n_near = 0
    if cfg.mode == "exact":
        ctr: dict = {}
        kept, clusters = _exact.dedup_exact_with_clusters(
            slim,
            key_cols=cfg.key_cols,
            id_col=cfg.id_col if cfg.emit_clusters else None,
            order_cols=cfg.order_cols,
            num_buckets=cfg.num_buckets,
            counters=ctr,
            payload=full,
        )
        valid = ctr["n_input"]
        n_exact = ctr.get("drops")
        if n_exact is None:  # a full tie took the value-comparing gate
            kept = kept.materialize()
            n_exact = valid - kept.count()
        n_kept = valid - n_exact
    elif not near:
        res = _adj.dedup_adjacency(
            full,
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
        valid = total if slim is src else slim.count()
        n_exact, n_kept = 0, kept.count()
        n_near = valid - n_kept
    else:
        def exact_drops(ctr):
            drops = _exact.exact_drop_ids(
                slim, cfg.key_cols, cfg.order_cols, cfg.id_col, counters=ctr
            )
            ctr["n_valid"] = ctr.pop("n_input")
            return drops

        drops, ctr = persist("exact", exact_drops)
        valid = ctr["n_valid"]
        # one gate, its key set prepared once, filters the slim chain and
        # the full-column payload alike
        gate, n_exact = _exact.exact_gate(drops, cfg.key_cols, cfg.order_cols)
        exact_slim = gate(slim)
        if n_exact is None:
            # a losing row fully ties its keep-first winner: the gate
            # compares actual values — count its output
            exact_slim = exact_slim.materialize()
            n_exact = valid - exact_slim.count()
        exact_full = exact_slim if full is slim else gate(full)

        vout: dict = {}
        edges, _ = persist("edges", lambda _ctr: _near_edges(exact_slim, cfg, vout))
        labels, _ = persist("labels", lambda _ctr: _comp.connected_components(edges))
        rctr: dict = {}
        kept, clusters = _rep.apply_cluster_labels(
            exact_slim,
            labels,
            id_col=cfg.id_col,
            order_cols=cfg.order_cols,
            payload=exact_full,
            counters=rctr,
            # verify's endpoint index carries the member order values: the
            # label-attach corpus pass is skipped (a resumed run has no index
            # and attaches by one slim scan)
            member_attrs=(
                (vout["index_shards"], vout["attr_cols"]) if "index_shards" in vout else None
            ),
        )
        n_near = rctr["near_drops"]
        n_kept = valid - n_exact - n_near
        if not cfg.emit_clusters:
            clusters = None

    total = valid if total is None else total
    metrics = {
        "mode": cfg.mode,
        "total": total,
        "quarantined": total - valid,
        "valid": valid,
        "exact_dup_removed": n_exact,
        "after_exact": valid - n_exact,
        "near_dup_removed": n_near,
        "kept": n_kept,
        "duplicates": n_exact + n_near,
    }
    if near:
        metrics["candidate_edges"] = edges.count()
    return DedupOutput(kept=kept, clusters=clusters, metrics=metrics)
