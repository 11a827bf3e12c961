"""Pages-table source: schema-validated Parquet read (reference S1-S3, S5 analogue).

The reference validates records at parse time and aborts on malformed input
(/root/reference/src/fastqview.cpp:121-138). Here ingest validation is a
stateless zero-copy map_batches over Arrow: rows violating the schema/invariant
are routed to a quarantine column-set rather than aborting the whole run
(SURVEY.md M9 — web-scale inputs always contain garbage).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def read_pages(path, columns=None) -> ray.data.Dataset:
    """Read a pages source with column pruning at the scan.

    Parquet by default; FASTA/FASTQ(.gz) paths (the reference's native
    formats) dispatch to ``sources.fastx.read_fastx``, which lifts records to
    this same schema — so every pipeline accepts the reference's inputs
    directly (S3 source factory).

    Pass ``columns`` whenever downstream stages don't need the heavy ``html``
    payload — at 100 TB the html column dominates the table and must not leave
    storage unless a stage actually decodes it.
    """
    from .fastx import dir_has_fastx, is_fastx_path, read_fastx

    p = str(path) if not isinstance(path, (list, tuple)) else None
    if p is not None and (is_fastx_path(p) or dir_has_fastx(p)):
        ds = read_fastx(p)
        if columns:
            keep = [*columns, "_valid"]
            ds = ds.map_batches(
                lambda t: t.select([c for c in keep if c in t.column_names]),
                batch_format="pyarrow",
            )
        return ds
    return ray.data.read_parquet(path, columns=columns)


def validate_pages_batch(batch: pa.Table, id_col: str = "url", text_col: str = "text") -> pa.Table:
    """Stateless ingest validation: append an ``_valid`` bool column.

    Invariants (per FIXTURES.md / input_hint): id (``url``) non-empty, text
    non-null, warc_ts non-null. Invalid rows are flagged, not dropped — callers either
    filter them into the main flow or write them to a quarantine sink.
    A pre-existing ``_valid`` column (the fastx parser's record-shape checks)
    is folded in with AND.
    """
    ok = pc.and_(
        pc.and_(
            pc.greater(pc.utf8_length(pc.coalesce(batch[id_col], pa.scalar(""))), 0),
            pc.is_valid(batch[text_col]),
        ),
        pc.is_valid(batch["warc_ts"]),
    )
    if "_valid" in batch.column_names:
        ok = pc.and_(ok, batch["_valid"])
        batch = batch.drop_columns(["_valid"])
    return batch.append_column("_valid", ok)


def split_quarantine(ds: ray.data.Dataset, id_col: str = "url", text_col: str = "text"):
    """Validated main flow + quarantine flow (both lazy)."""
    flagged = ds.map_batches(
        validate_pages_batch, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col},
    )
    good = flagged.map_batches(
        lambda t: t.filter(t["_valid"]).drop_columns(["_valid"]), batch_format="pyarrow"
    )
    bad = flagged.map_batches(
        lambda t: t.filter(pc.invert(t["_valid"])).drop_columns(["_valid"]),
        batch_format="pyarrow",
    )
    return good, bad
