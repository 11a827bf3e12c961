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
"""

from __future__ import annotations

import hashlib
import json
import os

import ray.data
from ray.data.dataset import MaterializedDataset

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


def checkpoint(
    ds: ray.data.Dataset,
    root: str,
    name: str,
    fp: str,
    min_rows_per_file: int | None = None,
    extra: dict | None = None,
) -> ray.data.Dataset:
    """Materialize ``ds`` at ``root/name`` unless a matching checkpoint exists.

    Layout is a directory of part files (one per block — the per-partition
    resume unit); the manifest lists them with row counts so a monitoring
    job can account for every partition (lineage + metrics, north rule).

    Returns a Dataset with the checkpoint's rows. A matching checkpoint is
    read back from its parquet parts. Otherwise the parts, manifest and
    atomic rename happen the same way for every input, and then:

    * a ``MaterializedDataset`` input is returned as is — its blocks are
      already in the object store, so reading the just-written files back
      would only repeat a scan;
    * a lazy input (e.g. a full-payload sink that must stream, never
      materialize) is written in one streaming pass and read back from the
      parquet parts, so the caller never re-executes its lineage.
    """
    ckpt_dir = os.path.join(root, name)
    if is_complete(ckpt_dir, fp):
        return ray.data.read_parquet(ckpt_dir, file_extensions=["parquet"])
    tmp_dir = ckpt_dir + ".tmp"
    import shutil

    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    kwargs = {}
    if min_rows_per_file is not None:
        kwargs["min_rows_per_file"] = min_rows_per_file
    ds.write_parquet(tmp_dir, **kwargs)
    files = sorted(f for f in os.listdir(tmp_dir) if f.endswith(".parquet"))
    if not files:
        # empty stage result (e.g. a zero-drop dedup): write one empty part
        # so the checkpoint read-back has a schema'd file to open
        import pyarrow as pa
        import pyarrow.parquet as _pq

        # (a pandas block's object column has no Arrow type: typed null)
        schema = ds.schema()
        empty = pa.table(
            {
                n: pa.array([], t if isinstance(t, pa.DataType) else pa.null())
                for n, t in (zip(schema.names, schema.types) if schema else ())
            }
        )
        _pq.write_table(empty, os.path.join(tmp_dir, "part-empty.parquet"))
        files = ["part-empty.parquet"]
    # per-partition lineage: row count per part file from parquet footers
    # (no data read) so a monitoring/resume job can account for every
    # partition individually (north-rule per-partition lineage + metrics)
    import pyarrow.parquet as pq

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
