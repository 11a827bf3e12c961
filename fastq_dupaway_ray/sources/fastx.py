"""Native FASTA/FASTQ(.gz) source + sink — the reference's actual file formats.

Reference behavior reproduced (not ported):
* record shapes — FASTQ is four lines ``@id / seq / +junk / qual`` with
  ``len(qual) == len(seq)`` enforced (/root/reference/src/fastqview.cpp:89-119),
  FASTA is two lines ``>id / seq`` (/root/reference/src/fastaview.cpp:70-95);
* gzip is selected purely by the ``.gz`` extension
  (/root/reference/src/file_utils.cpp:71-79);
* the format is caller-selected (``--format fasta|fastq``,
  /root/reference/src/main.cpp:112-120), with extension-based inference added
  for convenience.

Engine mapping (SURVEY.md S1-S3/S5): each record lifts to the pages schema —
``url`` = id line (marker stripped), ``text`` = sequence, ``warc_ts`` = file
order (epoch + record index, so keep-first-by-order == the reference's
keep-first-in-file-order), ``html`` = the raw record bytes (round-trip
payload), ``lang`` = "". Malformed records are routed to quarantine columns
via the standard ``_valid`` flag rather than aborting (M9: web-scale inputs
always contain garbage; the reference aborts, its serial prerogative).

Scale model: the parallelism unit is the FILE (one task per shard), matching
how web-crawl and sequencing corpora actually ship — thousands of shard
files. A single multi-GB ``.fastq.gz`` parses in one task (gzip is not
splittable; the reference itself streams one file serially) — reshard first
if that is the bottleneck.
"""

from __future__ import annotations

import datetime
import glob
import gzip
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

_EPOCH = datetime.datetime(2000, 1, 1)

FASTX_EXTS = (".fa", ".fasta", ".fna", ".fq", ".fastq")


def infer_format(path: str) -> str | None:
    """"fasta" / "fastq" from the file extension (``.gz`` stripped first),
    None if not a fastx path."""
    base = path[:-3] if path.endswith(".gz") else path
    ext = os.path.splitext(base)[1].lower()
    if ext in (".fa", ".fasta", ".fna"):
        return "fasta"
    if ext in (".fq", ".fastq"):
        return "fastq"
    return None


def is_fastx_path(path: str) -> bool:
    return infer_format(path) is not None


def dir_has_fastx(path: str) -> bool:
    return os.path.isdir(path) and any(
        is_fastx_path(f) for f in glob.glob(os.path.join(path, "*"))
    )


def _file_bytes(path: str) -> bytes:
    if path.endswith(".gz"):
        with gzip.open(path, "rb") as f:
            return f.read()
    with open(path, "rb") as f:
        return f.read()


def parse_fastx_bytes(data: bytes, fmt: str, base_offset: int = 0) -> pa.Table:
    """Parse one file's (or byte range's) bytes into a pages-schema Arrow
    table (+ ``_valid``).

    Vectorized over the line array (numpy slicing per field position); no
    per-record Python beyond the initial line split. ``warc_ts`` encodes the
    record's BYTE OFFSET in the file (``base_offset`` + offset within
    ``data``), not its ordinal — byte offsets are identical however the file
    is sharded, so keep-first-in-file-order semantics survive byte-range
    splitting (the ``BufferedInput`` carry-over analogue,
    /root/reference/src/bufferedinput.hpp:57-88).
    """
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    arr = np.array(lines, dtype=object)
    per = 4 if fmt == "fastq" else 2
    marker = b"@" if fmt == "fastq" else b">"
    n = len(arr) // per
    tail = len(arr) - n * per  # trailing partial record -> one invalid row
    line_lens = np.fromiter((len(l) for l in lines), dtype=np.int64, count=len(lines))
    line_off = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum(line_lens + 1, out=line_off[1:])  # +1: the split newline
    ids = arr[0 : n * per : per]
    seqs = arr[1 : n * per : per]
    ok = np.array([i[:1] == marker for i in ids], dtype=bool)
    if fmt == "fastq":
        quals = arr[3 : n * per : per]
        ok &= np.array([len(q) == len(s) for q, s in zip(quals, seqs)], dtype=bool)
    raw = [b"\n".join(arr[i * per : (i + 1) * per]) + b"\n" for i in range(n)]
    urls = [i[1:].decode("utf-8", "replace") for i in ids]
    texts = [s.decode("utf-8", "replace") for s in seqs]
    rec_off = line_off[0 : n * per : per] + base_offset
    ts = np.datetime64(_EPOCH, "us") + rec_off.astype("timedelta64[us]")
    valid = ok.tolist()
    if tail:
        urls.append("")
        texts.append("")
        ts = np.concatenate(
            [ts, [np.datetime64(_EPOCH, "us") + np.timedelta64(int(line_off[n * per] + base_offset), "us")]]
        )
        raw = raw + [b"\n".join(arr[n * per :]) + b"\n"]
        valid.append(False)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts if n + bool(tail) else np.array([], dtype="datetime64[us]"), pa.timestamp("us")),
            "html": pa.array(raw, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([""] * len(urls), pa.string()),
            "_valid": pa.array(valid, pa.bool_()),
        }
    )


_SYNC_CHUNK = 4 << 20  # bytes read per probe while hunting a record boundary


def _has_newlines(buf: bytes, pos: int, k: int) -> bool:
    """True if at least ``k`` newlines exist at/after ``pos`` (find-walk,
    O(span) not O(len(buf)))."""
    for _ in range(k):
        pos = buf.find(b"\n", pos)
        if pos < 0:
            return False
        pos += 1
    return True


def _fastq_boundary_ok(buf: bytes, pos: int):
    """``True`` if ``buf[pos:]`` starts a well-formed FASTQ record: ``@`` id
    line, ``+`` third line, qual length == seq length, and (when present)
    the next record starting with ``@``. Quality lines may themselves start
    with ``@`` — this 4-line shape check is what disambiguates them.
    Returns ``"partial"`` when fewer than 4 lines remain (an EOF tail):
    the caller must then decide via ``_reads_as_qual_line`` whether the
    candidate is a truncated record or the LAST record's quality line."""
    seg = buf[pos:]
    lines = seg.split(b"\n", 5)
    if not lines or lines[0][:1] != b"@":
        return False
    if len(lines) < 4:
        return "partial"
    if lines[2][:1] != b"+":
        return False
    if len(lines[3]) != len(lines[1]):
        return False
    if len(lines) >= 5 and lines[4] != b"" and lines[4][:1] != b"@":
        return False
    return True


def _reads_as_qual_line(path: str, abs_pos: int, qual_len: int) -> bool:
    """True if the line starting at byte ``abs_pos`` is the QUALITY line of
    a complete well-formed record — i.e. the three preceding lines read as
    ``@id / seq / +`` with ``len(seq) == qual_len``. Disambiguates the EOF
    case where a ``@``-leading quality line would otherwise be taken for a
    truncated final record. The backward window GROWS until it holds three
    complete preceding lines (long-read files have multi-MB lines; a fixed
    window would truncate the seq line and mis-answer)."""
    back = 1 << 20
    while True:
        lo = max(0, abs_pos - back)
        with open(path, "rb") as f:
            f.seek(lo)
            win = f.read(abs_pos - lo)
        lines = win.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()  # the newline immediately before abs_pos
        # need the 3 preceding lines COMPLETE: either a 4th boundary newline
        # is in the window, or the window reaches the file start
        if lo > 0 and len(lines) < 4:
            back *= 2
            continue
        if len(lines) < 3:
            return False
        idl, seql, plus = lines[-3], lines[-2], lines[-1]
        return idl[:1] == b"@" and plus[:1] == b"+" and len(seql) == qual_len


def sync_offset(path: str, offset: int, fmt: str) -> int:
    """First record-boundary byte offset >= ``offset`` in the PLAIN-TEXT
    file at ``path`` — a pure function of (file bytes, offset), so adjacent
    byte-range shards computed independently agree on record ownership
    (shard [start, end) owns records whose first byte lies in it).

    FASTA: the next ``\\n>`` transition (sequence lines never start ``>``).
    FASTQ: the next ``\\n@`` transition whose following lines satisfy the
    4-line record shape (``_fastq_boundary_ok`` — a quality line starting
    with ``@`` fails the shape check). Returns file size when no boundary
    exists past ``offset``.
    """
    if offset <= 0:
        return 0
    marker = b"@" if fmt == "fastq" else b">"
    size = os.path.getsize(path)
    if offset >= size:
        return size
    with open(path, "rb") as f:
        # read from offset-1 so a boundary exactly AT offset sees its '\n'
        probe_start = offset - 1
        f.seek(probe_start)
        buf = b""
        while True:
            chunk = f.read(_SYNC_CHUNK)
            if chunk:
                buf += chunk
            at_eof = len(buf) + probe_start >= size
            search = 0
            while True:
                i = buf.find(b"\n" + marker, search)
                if i < 0:
                    break
                pos = i + 1
                # the FASTQ shape check needs the next 4 lines COMPLETE in
                # the buffer (line 5's first byte too): refill BEFORE judging
                # a candidate without them, so a truncated line can neither
                # falsely accept nor falsely reject a boundary. Counting
                # newlines, not bytes — long-read files have multi-MB lines.
                if fmt == "fastq" and not at_eof and not _has_newlines(buf, pos, 5):
                    break  # refill and re-check this candidate with context
                if fmt == "fasta":
                    return probe_start + pos
                ok = _fastq_boundary_ok(buf, pos)
                if ok == "partial":
                    # only reachable at EOF (the guard above refilled
                    # otherwise), so the first line is complete to file end
                    qual_len = len(buf[pos:].split(b"\n", 1)[0])
                    ok = not _reads_as_qual_line(path, probe_start + pos, qual_len)
                if ok:
                    return probe_start + pos
                search = pos
            if at_eof:
                return size


def read_fastx(
    path,
    fmt: str | None = None,
    split_bytes: int = 64 << 20,
) -> ray.data.Dataset:
    """FASTA/FASTQ(.gz) -> pages-schema Dataset (with ``_valid`` column).

    ``path``: a file, a directory (every fastx file inside), or a list.
    Callers split the quarantine flow exactly like the parquet source
    (``sources.pages.split_quarantine`` works unchanged on the output).

    Parallelism: PLAIN-TEXT files larger than ``split_bytes`` are read as
    independent byte-range tasks — each shard re-syncs to the first record
    boundary at-or-after its start offset (``sync_offset``; the
    ``BufferedInput`` partial-record carry-over analogue,
    /root/reference/src/bufferedinput.hpp:57-88) and parses up to the first
    boundary past its end, so one multi-GB ``.fa`` no longer serializes into
    a single task. ``.gz`` files stay one task per file (gzip is not
    splittable; the reference itself streams one file serially) — reshard
    first if that is the bottleneck. ``warc_ts`` carries byte offsets, so
    record order (and keep-first dedup) is identical however a file is
    split.
    """
    if isinstance(path, (list, tuple)):
        files = [str(p) for p in path]
    elif os.path.isdir(path):
        files = sorted(
            f
            for f in glob.glob(os.path.join(path, "*"))
            if is_fastx_path(f)
        )
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no FASTA/FASTQ files under {path!r}")
    fmts = {}
    for f in files:
        got = fmt or infer_format(f)
        if got is None:
            raise ValueError(f"cannot infer fasta/fastq format of {f!r}; pass fmt=")
        fmts[f] = got

    # one task per (file, byte range). Offsetting each file's warc_ts by its
    # position keeps a global arrival order across files, like concatenated
    # reference inputs; ranges within a file inherit the file's offset and
    # order by record byte offset.
    items = []
    for i, f in enumerate(files):
        if not f.endswith(".gz") and os.path.getsize(f) > split_bytes:
            size = os.path.getsize(f)
            for start in range(0, size, split_bytes):
                items.append(
                    {"path": f, "shard": i, "start": start, "end": min(size, start + split_bytes)}
                )
        else:
            items.append({"path": f, "shard": i, "start": -1, "end": -1})

    def load(batch: pa.Table) -> pa.Table:
        out = []
        for p, shard, start, end in zip(
            batch["path"].to_pylist(),
            batch["shard"].to_pylist(),
            batch["start"].to_pylist(),
            batch["end"].to_pylist(),
        ):
            if start < 0:  # whole-file shard (gz or small file)
                t = parse_fastx_bytes(_file_bytes(p), fmts[p])
            else:
                lo = sync_offset(p, start, fmts[p])
                hi = sync_offset(p, end, fmts[p])
                if hi <= lo:
                    continue
                with open(p, "rb") as fh:
                    fh.seek(lo)
                    data = fh.read(hi - lo)
                t = parse_fastx_bytes(data, fmts[p], base_offset=lo)
            # shard-offset the timestamps so later files sort after earlier
            off = pa.compute.add(
                t["warc_ts"].cast(pa.int64()), np.int64(shard) << np.int64(40)
            )
            t = t.set_column(
                t.schema.get_field_index("warc_ts"),
                "warc_ts",
                off.cast(pa.timestamp("us")),
            )
            out.append(t)
        if not out:
            return parse_fastx_bytes(b"", "fasta")
        return pa.concat_tables(out)

    return ray.data.from_items(items).map_batches(
        load, batch_format="pyarrow", batch_size=1
    )


def write_clusters_reference_format(
    clusters: ray.data.Dataset, path: str, fmt: str = "fasta"
) -> int:
    """Clusters table -> the reference's ``.clusters`` byte format
    (/root/reference/src/file_utils.cpp:98-112): the head's id line, then a
    ``--``-prefixed id line per duplicate member. The id line carries the
    format marker exactly as the reference's record view does (its id span
    starts at ``>``/``@``). Clusters and members are emitted in sorted-id
    order (deterministic; the reference emits in scan order — same content,
    diff after ``sort`` if comparing files). Returns clusters written.

    A single file is a serial sink, so the table is gathered to the driver;
    the lines are built and ordered with Arrow kernels (one head line per
    distinct ``cluster_id``, one member line per non-representative row, one
    ``sort_indices`` on (cluster_id, head-first, member) — UTF-8 byte order
    is Python ``str`` order) and written in one call. Rows with a null
    ``cluster_id`` or ``member`` are skipped. The parquet clusters sink is
    the parallel path."""
    marker = "@" if fmt == "fastq" else ">"
    cols = ["cluster_id", "member", "is_representative"]
    tabs = [t.select(cols) for t in ray.get(clusters.to_arrow_refs()) if t.num_rows]
    if not tabs:
        open(path, "wb").close()
        return 0
    t = pa.concat_tables(tabs, promote_options="default")
    t = t.filter(pc.is_valid(t["cluster_id"])).combine_chunks()
    heads = pc.unique(t["cluster_id"])
    members = t.filter(
        pc.and_(
            pc.invert(pc.fill_null(t["is_representative"], False)),
            pc.is_valid(t["member"]),
        )
    )
    mcid = members["cluster_id"].combine_chunks()
    mid = members["member"].combine_chunks()
    h, m = len(heads), len(mid)
    lines = pa.table(
        {
            "cid": pa.concat_arrays([heads, mcid]),
            "kind": pa.array(np.r_[np.zeros(h, np.int8), np.ones(m, np.int8)]),
            "member": pa.concat_arrays([pa.nulls(h, mid.type), mid]),
            "line": pa.concat_arrays(
                [
                    pc.binary_join_element_wise(marker, pc.cast(heads, pa.string()), ""),
                    pc.binary_join_element_wise("--" + marker, pc.cast(mid, pa.string()), ""),
                ]
            ),
        }
    )
    order = pc.sort_indices(
        lines, sort_keys=[("cid", "ascending"), ("kind", "ascending"), ("member", "ascending")]
    )
    out = lines["line"].take(order).to_pylist()
    with open(path, "wb") as f:
        f.write(("\n".join(out) + "\n").encode("utf-8") if out else b"")
    return h


def write_fastx(ds: ray.data.Dataset, path: str, fmt: str | None = None) -> int:
    """Kept pages -> one FASTA/FASTQ(.gz) file, in ``warc_ts`` order — the
    reference's byte-format output (its single-file sink,
    /root/reference/src/file_utils.cpp:80-96). Rows stream to the (serial)
    sink via iter_batches; records are the stored raw ``html`` bytes, so a
    read -> dedup -> write round trip is byte-identical on kept records.
    Returns the number of records written. For the parallel 100-TB sink use
    ``write_parquet`` (partitioned, resumable) — this writer exists for
    drop-in reference parity.
    """
    fmt = fmt or infer_format(path)
    gz = path.endswith(".gz")
    opener = gzip.open if gz else open
    n = 0
    with opener(path, "wb") as f:
        for batch in ds.sort("warc_ts").iter_batches(batch_format="pyarrow"):
            for rec in batch["html"].to_pylist():
                f.write(rec)
                n += 1
    return n


def write_fastx_sharded(
    ds: ray.data.Dataset,
    out_dir: str,
    ext: str = "fastq",
    order_col: str = "warc_ts",
) -> int:
    """Kept pages -> MANY fastx files (one per sorted block) whose
    name-ordered concatenation is byte-identical to :func:`write_fastx`'s
    single file — the parallel/resumable form of the reference sink.

    ``Dataset.sort`` range-partitions, so block i's records all precede
    block i+1's: files ``part-00000.<ext>`` ... concatenate in name order
    into the exact single-file byte stream (test-pinned). Each block writes
    in its own Ray task (parallel gzip, no driver funnel), to a temp name
    with a crash-safe rename. ``ext`` ending in ``.gz`` gzips per shard
    (concatenated gzip members are a valid gzip stream by RFC 1952).
    Returns the total records written (incl. previously-finished parts).

    Resume is MANIFEST-VALIDATED: part indices are positional in this
    run's sorted block layout, and Ray's sample-based range partitioning
    need not reproduce boundaries across runs — skipping a part by
    filename alone could silently mix two runs' partitions. A `_MANIFEST`
    (per-part row count + first/last order-key) is written before any
    part; a re-run skips existing parts only when its own layout matches
    the manifest exactly, else it wipes ALL part files (any extension —
    an ext change alone must not leave the old run's parts behind) and
    starts fresh. When an order-key TIE straddles a block boundary the
    count+endpoint fingerprint cannot prove the partition assignment
    reproduced, so such layouts are marked non-resumable and always
    rewrite (unique order keys — e.g. warc_ts from the fastx reader —
    never hit this).

    Part tasks write with plain ``open()``, so they are pinned to the
    driver's node (hard node affinity): ``out_dir`` is the driver's path on
    any cluster, and parts never land on worker-local disks.
    """
    import json as _json
    import os

    os.makedirs(out_dir, exist_ok=True)
    sorted_ds = ds.sort(order_col).materialize()

    @ray.remote
    def _write_part(block, path: str) -> int:
        import gzip as _gzip
        import os as _os

        from ..stages.exchange import as_arrow_block

        block = as_arrow_block(block)  # internal refs can be pandas blocks
        if block.num_rows == 0:
            return 0
        tmp = path + ".tmp"
        op = _gzip.open if path.endswith(".gz") else open
        with op(tmp, "wb") as f:
            for rec in block["html"].to_pylist():
                f.write(rec)
        _os.replace(tmp, path)
        return block.num_rows

    @ray.remote
    def _block_stats(block) -> tuple:
        from ..stages.exchange import as_arrow_block

        block = as_arrow_block(block)
        if block.num_rows == 0:
            return (0, None, None)
        col = block[order_col]
        return (block.num_rows, str(col[0].as_py()), str(col[-1].as_py()))

    raw = [
        (ref, meta)
        for bundle in sorted_ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        # num_rows None = unknown, NOT empty — resolve remotely below
        if meta.num_rows is None or meta.num_rows > 0
    ]
    stats = ray.get([_block_stats.remote(ref) for ref, _ in raw])
    blocks = [(ref, st) for (ref, _), st in zip(raw, stats) if st[0] > 0]
    layout = [[n, lo, hi] for _, (n, lo, hi) in blocks]
    # an order tie straddling a boundary means count+endpoints cannot prove
    # which side of the seam each tied record landed on — never resume
    seam_tie = any(
        layout[i][2] == layout[i + 1][1] for i in range(len(layout) - 1)
    )
    man_path = os.path.join(out_dir, "_MANIFEST")
    manifest = {
        "ext": ext,
        "order_col": order_col,
        "layout": layout,
        "resumable": not seam_tie,
    }
    prior = None
    if os.path.exists(man_path):
        try:
            with open(man_path) as f:
                prior = _json.load(f)
        except Exception:
            prior = None
    if prior != manifest or seam_tie:
        # different run layout, ext change, or unprovable seam: existing
        # parts are positionally meaningless for THIS layout — wipe every
        # part file regardless of extension, never mix
        import glob as _glob

        for f in _glob.glob(os.path.join(out_dir, "part-*")):
            os.remove(f)
        tmp = man_path + ".tmp"
        with open(tmp, "w") as f:
            _json.dump(manifest, f)
        os.replace(tmp, man_path)
    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

    on_driver = _write_part.options(
        scheduling_strategy=NodeAffinitySchedulingStrategy(
            node_id=ray.get_runtime_context().get_node_id(), soft=False
        )
    )
    pending, done = [], 0
    for idx, (ref, _st) in enumerate(blocks):
        part = os.path.join(out_dir, f"part-{idx:05d}.{ext}")
        if os.path.exists(part):
            done += layout[idx][0]  # finished under THIS validated layout
            continue
        pending.append(on_driver.remote(ref, part))
    return done + sum(ray.get(pending))
