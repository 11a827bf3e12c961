"""Stage checkpointing with lineage manifests + idempotent resume (north rule).

The reference has no fault tolerance: any failure aborts and its temp dir is
destroyed (/root/reference/src/file_utils.cpp:126-130). At 10^12 documents a
pipeline MUST be resumable after any stage, so each named stage can be
materialized to partitioned Parquet with a manifest recording:

    stage name, input fingerprint, row count, parquet fragment list, schema

On re-run with the same (name, fingerprint) the stage is skipped and the
checkpoint is read back — write-then-rename makes completion atomic (a crash
mid-write leaves no manifest, so the stage simply reruns). Fingerprints chain:
a stage's output fingerprint folds its input's, so editing an upstream config
invalidates everything downstream automatically.

A materialized stage result (the slim exact, edges and labels stages) is
written by raw Ray tasks, one part per block, pinned to the driver's node:
a ``write_parquet`` plan would cost a whole Ray Data execution's fixed
overhead for a few tiny blocks. Lazy inputs stream through
``write_parquet``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.dataset import MaterializedDataset
from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

from ..stages import exchange

MANIFEST = "_MANIFEST.json"


def fingerprint(*parts) -> str:
    """Stable fingerprint of stage config + upstream fingerprints."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def input_identity(path: str) -> tuple:
    """Cheap content identity of an input path: sorted (relpath, size,
    mtime_ns) of every data file under it — no data read. Folding this into a
    stage fingerprint makes in-place input changes invalidate the checkpoint
    (a path-only fingerprint would silently reuse stale stages)."""
    entries = []
    if os.path.isfile(path):
        st = os.stat(path)
        return ((os.path.basename(path), st.st_size, st.st_mtime_ns),)
    for root, _dirs, files in os.walk(path):
        for f in sorted(files):
            if f.startswith("_") or f.startswith("."):
                continue
            fp = os.path.join(root, f)
            st = os.stat(fp)
            entries.append((os.path.relpath(fp, path), st.st_size, st.st_mtime_ns))
    return tuple(sorted(entries))


def is_complete(ckpt_dir: str, fp: str) -> bool:
    mpath = os.path.join(ckpt_dir, MANIFEST)
    if not os.path.exists(mpath):
        return False
    try:
        with open(mpath) as f:
            m = json.load(f)
        return m.get("fingerprint") == fp and m.get("complete") is True
    except (json.JSONDecodeError, OSError):
        return False


@ray.remote
def _write_part(block, schema: pa.Schema, path: str) -> None:
    """One checkpoint part: ``block`` lifted to Arrow (a pandas block's
    all-None object column has no Arrow type of its own) and cast to the
    dataset's one schema, so every part of a checkpoint reads back alike."""
    pq.write_table(exchange.as_arrow_block(block).cast(schema), path)


@ray.remote
def _arrow_schema(block) -> pa.Schema:
    return exchange.as_arrow_block(block).schema


def _write_materialized(ds: MaterializedDataset, tmp_dir: str) -> None:
    """Write ``ds``'s non-empty blocks to ``tmp_dir/part-NNNNN.parquet``
    with one raw task each — no Ray Data execution (a ``write_parquet``
    plan costs a whole execution's fixed overhead even for one tiny block).
    The tasks are pinned to the driver's node (hard node affinity):
    ``tmp_dir`` is the driver's path on any cluster, so parts never land on
    a worker's disk."""
    blocks = [
        (ref, bundle.schema)
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows is None or meta.num_rows > 0
    ]
    if not blocks:
        return
    # Arrow bundles carry their schema; a pandas block is lifted remotely
    # to learn its own. Unifying gives a null column the type of the parts
    # that hold values.
    schemas = [s for _ref, s in blocks if isinstance(s, pa.Schema)]
    schemas += ray.get(
        [_arrow_schema.remote(ref) for ref, s in blocks if not isinstance(s, pa.Schema)]
    )
    schema = pa.unify_schemas(schemas)
    on_driver = _write_part.options(
        scheduling_strategy=NodeAffinitySchedulingStrategy(
            node_id=ray.get_runtime_context().get_node_id(), soft=False
        )
    )
    ray.get(
        [
            on_driver.remote(ref, schema, os.path.join(tmp_dir, f"part-{i:05d}.parquet"))
            for i, (ref, _schema) in enumerate(blocks)
        ]
    )


def checkpoint(
    ds: ray.data.Dataset,
    root: str,
    name: str,
    fp: str,
    extra: dict | None = None,
) -> ray.data.Dataset:
    """Materialize ``ds`` at ``root/name`` unless a matching checkpoint exists.

    Layout is a directory of part files (one per non-empty block — the
    per-partition resume unit); the manifest lists them with row counts so a
    monitoring job can account for every partition (lineage + metrics,
    north rule).

    Returns a Dataset with the checkpoint's rows. A matching checkpoint is
    read back from its parquet parts. Otherwise the parts are written to a
    temp dir, the manifest follows, and one rename completes the checkpoint:

    * a ``MaterializedDataset`` input is written by raw Ray tasks, one
      ``part-NNNNN.parquet`` per block in the dataset's one Arrow schema,
      and returned as is — its blocks are already in the object store, so
      reading the just-written files back would only repeat a scan;
    * a lazy input (e.g. a full-payload sink that must stream, never
      materialize) is written in one streaming ``write_parquet`` pass and
      read back from the parquet parts, so the caller never re-executes its
      lineage.
    """
    ckpt_dir = os.path.join(root, name)
    if is_complete(ckpt_dir, fp):
        return ray.data.read_parquet(ckpt_dir, file_extensions=["parquet"])
    tmp_dir = ckpt_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    if isinstance(ds, MaterializedDataset):
        _write_materialized(ds, tmp_dir)
    else:
        ds.write_parquet(tmp_dir)
    files = sorted(f for f in os.listdir(tmp_dir) if f.endswith(".parquet"))
    if not files:
        # empty stage result (e.g. a zero-drop dedup): write one empty part
        # so the checkpoint read-back has a schema'd file to open
        # (a pandas block's object column has no Arrow type: typed null)
        schema = ds.schema()
        empty = pa.table(
            {
                n: pa.array([], t if isinstance(t, pa.DataType) else pa.null())
                for n, t in (zip(schema.names, schema.types) if schema else ())
            }
        )
        pq.write_table(empty, os.path.join(tmp_dir, "part-empty.parquet"))
        files = ["part-empty.parquet"]
    # per-partition lineage: row count per part file from parquet footers
    # (no data read) so a monitoring/resume job can account for every
    # partition individually (north-rule per-partition lineage + metrics)
    partitions = [
        {"file": f, "rows": pq.ParquetFile(os.path.join(tmp_dir, f)).metadata.num_rows}
        for f in files
    ]
    n = int(sum(p["rows"] for p in partitions))
    manifest = {
        "stage": name,
        "fingerprint": fp,
        "rows": n,
        "files": files,
        "partitions": partitions,
        "complete": True,
    }
    if extra:
        # caller-supplied sidecar facts (e.g. input row counts) a resuming
        # run needs without re-executing the stage's upstream pass
        manifest["extra"] = extra
    with open(os.path.join(tmp_dir, MANIFEST), "w") as f:
        json.dump(manifest, f, indent=1)
    os.rename(tmp_dir, ckpt_dir)  # atomic completion
    if isinstance(ds, MaterializedDataset):
        return ds
    return ray.data.read_parquet(ckpt_dir, file_extensions=["parquet"])


def read_manifest(root: str, name: str) -> dict | None:
    mpath = os.path.join(root, name, MANIFEST)
    if not os.path.exists(mpath):
        return None
    with open(mpath) as f:
        return json.load(f)
