"""Sorted-adjacency dedup — the reference's sequence-based mode (SURVEY.md A3-A5, EP3).

Reference pipeline (/root/reference/src/seq_dup_remover.hpp:54-109 single,
:131-218 paired): external sort by sequence (pair-lexicographic for paired,
/root/reference/src/paired_external_sort.hpp:20-33), then one serial scan where
each record (pair) is compared against the current cluster head; duplicates are
dropped, non-duplicates become the new head. Here the external sort is
``Dataset.sort`` (range partition + per-block sort) and the scan runs
**per block in parallel** with an exact cross-block seam fixup.

Key observation making tight/loose (single AND paired) parallelizable exactly:
after processing any row the comparison state equals that row's own text(s) —
* tight: a duplicate has identical text, so state == current row;
* loose single: on a duplicate the head state advances to the longer text
  (/root/reference/src/seq_dup_remover.hpp:93-98), and in sorted order the
  current row is always >= the state and a superstring when duplicate —
  so state == current row again;
* loose paired: the duplicate predicate requires both overlaps same-sided
  (/root/reference/src/comparator.cpp:73) and the head advances only when both
  mates are longer-or-equal (/root/reference/src/seq_dup_remover.hpp:194-202).
  Under pair-lexicographic sort the state pair is always <= the current pair,
  so prefix-compatibility forces state_1 prefix-of cur_1 (hence len <=); the
  same-sided rule then demands state_2 prefix-of cur_2 as well — i.e. every
  sorted-order duplicate satisfies the both-longer advance condition, and
  state == current pair after every step. Duplicate reduces to the pure LAG
  predicate ``cur_i.startswith(prev_i) for all i``.
Hence "duplicate" reduces to a LAG predicate against the immediately preceding
row in the global sort order, and the only cross-block information needed is
each block's last row — O(#blocks) seam data resolved on the driver.

hamming mode (single and paired) has genuine run-carrying state (the head does
NOT advance on a duplicate, /root/reference/src/comparator.cpp:76-91), so its
exact mirror runs as a **serial chain of per-block Ray tasks**: block i's scan
task receives block i-1's outgoing (head_texts, head_id) state, scans its own
sorted block vectorized, and hands the new state to block i+1. Wall-time is
serial in #blocks (the reference's semantics are inherently order-dependent,
/root/reference/doc/algorithm.md:38) but memory stays bounded per block — no
``repartition(1)`` concentration. The scalable fuzzy path is stages.simhash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

DEFAULT_ORDER = ("warc_ts", "url")


def _hamming_str(a: str, b: str) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _is_dup(mode: str, prev, cur, distance: int) -> bool:
    """LAG/state duplicate predicate over text tuples (prev/cur: tuple[str])."""
    if mode == "tight":
        return prev == cur
    if mode == "loose":
        # sorted order guarantees prev <= cur; same-sidedness (paired) then
        # reduces to prev_i prefix-of cur_i on every side (module docstring)
        return all(c.startswith(p) for p, c in zip(prev, cur))
    if mode == "hamming":
        return all(
            len(p) == len(c) and _hamming_str(p, c) <= distance for p, c in zip(prev, cur)
        )
    raise ValueError(mode)


def _lag_dup_mask(mode: str, cols: list[np.ndarray], distance: int) -> np.ndarray:
    """Vectorized LAG duplicate mask for tight/loose over 1..n text columns."""
    n = len(cols[0])
    dup = np.ones(n, dtype=bool)
    dup[0] = False
    for texts in cols:
        if mode == "tight":
            side = texts[1:] == texts[:-1]
        else:  # loose: adjacent startswith — O(total chars), like the reference scan
            side = np.fromiter(
                (b.startswith(a) for a, b in zip(texts[:-1], texts[1:])),
                dtype=bool,
                count=n - 1,
            )
        dup[1:] &= side
    return dup


def _encode_u32(texts: np.ndarray):
    """(codes uint32[total], lens int64[n], offsets int64[n+1]) — one flat
    UTF-32 buffer per column so hamming compares are numpy gathers over code
    points (identical to the per-character Python ``zip`` semantics,
    including astral-plane characters where UTF-8 bytes would differ)."""
    n = len(texts)
    joined = "".join(texts)
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    return codes, lens, offsets


def _hamming_scan_vec(
    cols: list[np.ndarray], distance: int, incoming_state
) -> tuple[np.ndarray, tuple | None]:
    """Vectorized run-carrying hamming scan over a sorted block.

    Exact mirror of the serial loop (state = cluster head; a row is a
    duplicate iff EVERY side has equal length and hamming <= distance vs the
    head, and the head does NOT advance on duplicates —
    /root/reference/src/comparator.cpp:76-91), decomposed into:

    1. One fully-vectorized ADJACENT-PAIR pass: a row can only be a
       duplicate if, on every side, it has the same length as its
       predecessor and hamming(prev, cur) <= 2*distance. (Duplicates of a
       head form a contiguous run, so a dup's predecessor is the head or a
       sibling dup; both are within ``distance`` of the head, and the
       triangle inequality bounds the adjacent distance by 2d.) Rows
       failing this are DEFINITE heads — no per-row work ever touches them.
    2. A serial walk over the surviving candidate indices only (numpy slice
       compares against the current head's UTF-32 codes). Candidate count
       tracks true duplicates + near-misses, so the per-row Python cost is
       paid where duplication actually is, not corpus-wide — the previous
       per-row loop cost ~3 us/row on 87%-unique corpora for nothing.

    Returns (dup mask, out_state) — out_state is the final head's texts.
    """
    n = len(cols[0])
    dup = np.zeros(n, dtype=bool)
    if n == 0:
        return dup, (tuple(incoming_state) if incoming_state is not None else None)
    enc = [_encode_u32(texts) for texts in cols]

    cand = np.ones(n, dtype=bool)
    cand[0] = incoming_state is not None  # row 0's only possible head
    for codes, lens, offs in enc:
        eq = lens[1:] == lens[:-1]
        side = np.zeros(n - 1, dtype=bool)
        idx = np.nonzero(eq)[0]  # predecessor positions with equal length
        if len(idx):
            L = lens[idx]
            total = int(L.sum())
            if total:
                seg_starts = np.cumsum(L) - L
                seg_id = np.repeat(np.arange(len(idx)), L)
                within = np.arange(total, dtype=np.int64) - seg_starts[seg_id]
                a = codes[offs[idx][seg_id] + within]
                b = codes[offs[idx + 1][seg_id] + within]
                mism = np.bincount(seg_id[a != b], minlength=len(idx))
                side[idx] = mism <= 2 * distance
            else:
                side[idx] = True  # equal-length empty strings
        cand[1:] &= side

    cand_idx = np.nonzero(cand)[0]
    if len(cand_idx):

        def row_enc(i: int) -> list[np.ndarray]:
            return [codes[offs[i] : offs[i + 1]] for codes, _l, offs in enc]

        # candidate runs are CONSTANT-LENGTH per side (the candidate
        # condition chains length equality), so each run resolves as matrix
        # sweeps: distances of every remaining run row to the current head
        # in one gather, dups = the prefix within `distance`, the first
        # over-distance row becomes the new head and the sweep repeats from
        # there. Cost is O(#heads-in-run x run x len) numpy — dup-dense
        # runs have few heads, which is exactly when runs are long.
        run_breaks = np.nonzero(np.diff(cand_idx) > 1)[0] + 1
        run_starts = np.concatenate([[0], run_breaks])
        run_ends = np.concatenate([run_breaks, [len(cand_idx)]])
        if incoming_state is not None:
            incoming_enc = [
                np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
                for s in incoming_state
            ]
        else:
            incoming_enc = None
        for rs, re_ in zip(run_starts.tolist(), run_ends.tolist()):
            rows = cand_idx[rs:re_]
            j0 = int(rows[0])
            head = incoming_enc if j0 == 0 else row_enc(j0 - 1)
            m = len(rows)
            # per-side (m, L) matrices for this run (one gather per side)
            mats = []
            for codes, lens, offs in enc:
                L = int(lens[j0])
                if L:
                    mats.append(codes[offs[rows][:, None] + np.arange(L)[None, :]])
                else:
                    mats.append(np.empty((m, 0), dtype=np.uint32))
            i = 0
            while i < m:
                # doubling window: a head change discards at most the
                # current window of speculative compares, so alternating
                # dup/non-dup runs stay O(run x len) instead of O(run^2)
                w = 16
                while i < m:
                    hi = min(m, i + w)
                    over = np.zeros(hi - i, dtype=bool)
                    for mat, h in zip(mats, head):
                        if mat.shape[1] != len(h):
                            over[:] = True  # head length differs: no dups
                            break
                        if mat.shape[1]:
                            over |= (mat[i:hi] != h[None, :]).sum(axis=1) > distance
                    nd = np.nonzero(over)[0]
                    if len(nd):
                        k = i + int(nd[0])
                        dup[rows[i:k]] = True
                        head = [mat[k] for mat in mats]
                        i = k + 1
                        break  # restart with a fresh small window
                    dup[rows[i:hi]] = True
                    i = hi
                    w *= 2

    kept = np.nonzero(~dup)[0]
    if len(kept):
        out_state = tuple(c[kept[-1]] for c in cols)
    else:
        out_state = tuple(incoming_state) if incoming_state is not None else None
    return dup, out_state


def _scan_block(
    df: pd.DataFrame,
    mode: str,
    distance: int,
    text_cols: list[str],
    id_col: str,
    drop_first: bool,
    incoming_head,
    incoming_state=None,
):
    """Serial-semantics scan of one sorted block (vectorized where possible).

    Returns (kept_mask, head_ids, out_state): head_ids[i] is the cluster head
    id of row i (incoming_head substitutes when the head lives in a previous
    block); out_state is the comparator state after the last row (text tuple)
    — only meaningful for hamming, where the head does not advance on dups.
    """
    cols = [df[c].to_numpy() for c in text_cols]
    ids = df[id_col].to_numpy()
    n = len(df)
    if mode in ("tight", "loose"):
        dup = _lag_dup_mask(mode, cols, distance)
        if drop_first:
            dup[0] = True
        out_state = tuple(c[-1] for c in cols)
    elif mode == "hamming":
        dup, out_state = _hamming_scan_vec(cols, distance, incoming_state)
        if drop_first:
            dup[0] = True
    else:
        raise ValueError(mode)
    kept = ~dup
    # head attribution: nearest preceding kept row; -1 -> incoming head
    kept_idx = np.where(kept, np.arange(n), -1)
    head_idx = np.maximum.accumulate(kept_idx)
    head_ids = np.where(head_idx >= 0, ids[np.maximum(head_idx, 0)], incoming_head)
    return kept, head_ids, out_state


@dataclass
class AdjacencyResult:
    kept: ray.data.Dataset
    clusters: ray.data.Dataset
    total: int
    duplicates: int


def _normalize_text_cols(text_col, text_cols) -> list[str]:
    if text_cols is not None:
        return list(text_cols)
    return [text_col]


def dedup_adjacency(
    ds: ray.data.Dataset,
    mode: str = "tight",
    distance: int = 2,
    text_col: str = "text",
    id_col: str = "url",
    order_cols=DEFAULT_ORDER,
    emit_clusters: bool = True,
    text_cols=None,
) -> AdjacencyResult:
    """Distributed sorted-adjacency dedup; exact mirror of the reference scan.

    ``text_cols`` with two entries selects paired-end semantics (reference
    EP3): pair-lexicographic sort, both-mates duplicate predicates
    (/root/reference/src/comparator.cpp:51-58,65-74,84-91). ``text_col`` is
    the single-end shorthand.

    tight/loose: two passes over one materialized sorted dataset (the moral
    equivalent of the reference's sorted temp file,
    /root/reference/src/external_sort.hpp:209-215 — Ray spills it to the
    object store instead of CWD): pass 1 collects per-block seam summaries
    (first/last row); the driver chains them serially (O(#blocks), trivially
    small); pass 2 re-scans blocks in parallel with the resolved seam inputs.

    hamming: serial chain of per-block scan tasks (module docstring).
    """
    tcols = _normalize_text_cols(text_col, text_cols)
    order_cols = [c for c in order_cols if c not in tcols]
    sort_keys = [*tcols, *order_cols]
    sorted_ds = ds.sort(sort_keys).materialize()

    if mode == "hamming":
        flagged = _chain_scan(sorted_ds, mode, distance, tcols, id_col, sort_keys)
    else:
        flagged = _lag_scan(sorted_ds, mode, distance, tcols, id_col, order_cols)

    kept = flagged.map_batches(
        lambda df: df[df["_kept"]].drop(columns=["_kept", "_head"]), batch_format="pandas"
    )
    total = sorted_ds.count()
    n_kept = kept.count()
    clusters = flagged.map_batches(
        lambda df: pd.DataFrame(
            {
                "cluster_id": df["_head"].to_numpy(),
                "member": df[id_col].to_numpy(),
                "is_representative": df["_kept"].to_numpy(),
            }
        ),
        batch_format="pandas",
    )
    return AdjacencyResult(kept=kept, clusters=clusters, total=total, duplicates=total - n_kept)


def _lag_scan(
    sorted_ds: ray.data.Dataset,
    mode: str,
    distance: int,
    tcols: list[str],
    id_col: str,
    order_cols: list[str],
) -> ray.data.Dataset:
    """tight/loose: parallel per-block scans + driver seam chaining.

    Seam summaries carry the first row's FULL sort key (text cols + order
    cols) — blocks are chained and the plan keyed by that tuple, so equal-text
    runs spanning blocks chain in true global sort order even when the order
    columns disagree with, say, id order (each first row is a distinct row, so
    the tuple is collision-free given order_cols uniquely identify rows).
    """
    key_cols = [*tcols, *order_cols]

    def seam_summary(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    **{f"first_{c}": [] for c in key_cols},
                    **{f"last_{c}": [] for c in tcols},
                    "first_id": [],
                    "last_head_local": [],
                    "last_head_is_first": [],
                }
            )
        kept, head_ids, _state = _scan_block(df, mode, distance, tcols, id_col, False, None)
        return pd.DataFrame(
            {
                **{f"first_{c}": [df[c].iloc[0]] for c in key_cols},
                **{f"last_{c}": [df[c].iloc[-1]] for c in tcols},
                "first_id": [df[id_col].iloc[0]],
                "last_head_local": [head_ids[-1]],
                "last_head_is_first": [bool(head_ids[-1] == df[id_col].iloc[0])],
            }
        )

    seams = sorted_ds.map_batches(seam_summary, batch_size=None, batch_format="pandas").to_pandas()
    if len(seams):  # an all-empty input maps to no block, so no columns
        seams = seams.sort_values([f"first_{c}" for c in key_cols], kind="mergesort")

    # serial chain over block seams — state == last row's texts for LAG modes
    plan = {}  # first-row full sort key tuple -> (drop_first: bool, incoming_head)
    prev_last_state = None
    prev_last_head = None
    for _, row in seams.iterrows():
        first_texts = tuple(row[f"first_{c}"] for c in tcols)
        if prev_last_state is not None and _is_dup(mode, prev_last_state, first_texts, distance):
            drop_first, incoming = True, prev_last_head
        else:
            drop_first, incoming = False, None
        plan[tuple(row[f"first_{c}"] for c in key_cols)] = (drop_first, incoming)
        if drop_first and row["last_head_is_first"]:
            prev_last_head = incoming  # whole block chained into the previous run
        else:
            prev_last_head = row["last_head_local"]
        prev_last_state = tuple(row[f"last_{c}"] for c in tcols)

    def final_scan(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df.assign(_kept=pd.Series([], dtype=bool), _head=pd.Series([], dtype=object))
        block_key = tuple(df[c].iloc[0] for c in key_cols)
        drop_first, incoming = plan.get(block_key, (False, None))
        kept, head_ids, _state = _scan_block(
            df, mode, distance, tcols, id_col, drop_first, incoming
        )
        out = df.copy()
        out["_kept"] = kept
        out["_head"] = head_ids
        return out

    return sorted_ds.map_batches(final_scan, batch_size=None, batch_format="pandas")


def _block_to_df(block) -> pd.DataFrame:
    """Ray blocks are Arrow tables or pandas frames depending on provenance."""
    return block.to_pandas() if isinstance(block, pa.Table) else block


@ray.remote(num_returns=2)
def _chain_scan_link(prev_meta, mode: str, distance: int, tcols, id_col: str, *blocks):
    """One link of the hamming serial chain: scan one-or-more consecutive
    sorted blocks given the incoming (state, head) pair; returns
    (flagged Arrow table, (state, head)).

    ``prev_meta`` arrives as the PREDECESSOR TASK'S OUTPUT REF — Ray resolves
    it just-in-time, so the whole chain is submitted up front and each link
    starts the moment its predecessor's O(1) state lands, with no driver
    round-trip between links (round-2 looped ``ray.get`` per block). The
    member blocks are variadic task args, so Ray prefetches them while the
    predecessor still runs; scan compute is the vectorized
    ``_hamming_scan_vec``, arrow-native (no pandas hop)."""
    state, head_id = prev_meta if prev_meta is not None else (None, None)
    tabs = [
        b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
        for b in blocks
    ]
    tbl = pa.concat_tables([t for t in tabs if t.num_rows > 0]) if tabs else None
    if tbl is None or tbl.num_rows == 0:
        empty = (tabs[0] if tabs else pa.table({})).schema
        out = pa.table(
            {
                **{f.name: pa.array([], f.type) for f in empty},
                "_kept": pa.array([], pa.bool_()),
                "_head": pa.array([], pa.string()),
            }
        )
        return out, (state, head_id)
    cols = [tbl[c].to_numpy(zero_copy_only=False) for c in tcols]
    ids = tbl[id_col].to_numpy(zero_copy_only=False)
    n = tbl.num_rows
    dup, out_state = _hamming_scan_vec(cols, distance, state)
    kept = ~dup
    kept_idx = np.where(kept, np.arange(n), -1)
    head_idx = np.maximum.accumulate(kept_idx)
    head_ids = np.where(head_idx >= 0, ids[np.maximum(head_idx, 0)], head_id)
    out = tbl.append_column("_kept", pa.array(kept)).append_column(
        "_head", pa.array(head_ids, tbl.schema.field(id_col).type)
    )
    return out, (out_state, head_ids[-1])


def _chain_scan(
    sorted_ds: ray.data.Dataset,
    mode: str,
    distance: int,
    tcols: list[str],
    id_col: str,
    sort_keys: list[str],
    target_link_rows: int = 65_536,
) -> ray.data.Dataset:
    """Run-carrying modes: serial chain of per-link Ray tasks.

    Blocks of the range-partitioned sorted dataset are chained in global sort
    order (ordered by each block's first sort key), then COALESCED into links
    of ~``target_link_rows`` rows: the chain hop (submit + state resolve +
    output put, ~10 ms measured) is paid per LINK, so link count is sized by
    rows, not by however finely ``sort`` happened to fragment its output
    (96 blocks of 670 rows at sf0.1 — the hop dominated 6:1 before
    coalescing). Each task ships only the O(1) comparator state to its
    successor; flagged links stay in the object store and re-assemble into a
    Dataset — the whole corpus never concentrates on one worker or driver.
    """
    bundles = list(sorted_ds.iter_internal_ref_bundles())
    block_refs = []
    block_rows = []
    for b in bundles:
        for br, meta in b.blocks:
            block_refs.append(br)
            block_rows.append(meta.num_rows or 0)

    @ray.remote
    def first_key(block):
        df = _block_to_df(block)
        if len(df) == 0:
            return None
        return tuple(df[c].iloc[0] for c in sort_keys)

    firsts = ray.get([first_key.remote(r) for r in block_refs])
    order = sorted(
        (i for i in range(len(block_refs)) if firsts[i] is not None), key=lambda i: firsts[i]
    )

    links: list[list] = []
    acc: list = []
    acc_rows = 0
    for i in order:
        acc.append(block_refs[i])
        acc_rows += block_rows[i]
        if acc_rows >= target_link_rows:
            links.append(acc)
            acc, acc_rows = [], 0
    if acc:
        links.append(acc)

    meta = None  # first link starts with empty comparator state
    flagged_refs = []
    for link in links:
        tbl_ref, meta = _chain_scan_link.remote(
            meta, mode, distance, tuple(tcols), id_col, *link
        )
        flagged_refs.append(tbl_ref)
        # no ray.get: the next link consumes `meta` as a task-arg future, so
        # submission is instant and block prefetch overlaps the state hop
    if not flagged_refs:
        return sorted_ds.map_batches(
            lambda df: df.assign(_kept=pd.Series([], dtype=bool), _head=pd.Series([], dtype=object)),
            batch_format="pandas",
        )
    return ray.data.from_arrow_refs(flagged_refs)
