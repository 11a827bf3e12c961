"""Windowed aggregates over keyed event streams — Arrow-native stages.

The streaming-window shapes Ray Data lacks natively (SURVEY.md §2.9), in
the engine's standard combiner + bucketed-merge form:

* ``tumbling_window`` / ``hopping_window`` — per-batch PARTIAL aggregation
  (Arrow hash aggregate over (key, window_start)) shrinks each batch to its
  distinct groups before anything shuffles; one ``groupby(_bkt)`` then
  merges partials with each key's windows co-located. The exchange carries
  (key, window, partial sum, partial count) rows only — corpus values never
  move twice. Hopping windows explode each event into width/hop window
  starts inside the combiner (an event belongs to that many windows).
* ``sessionize`` — inactivity-gap sessions are order-dependent per key.
  Events hash-bucket by (key, time chunk) — default 1440-minute chunks —
  and each bucket resolves its chunk-local sessions in one vectorized
  pass: sort by (key, ts), mark gap/key/chunk breaks, aggregate contiguous
  runs with ``np.add.reduceat``. Only each (key, chunk)'s first/last
  sessions (interior ones are > gap from both edges by construction) take
  a tiny second session-level task exchange that re-merges across chunk
  borders — exact, and no single worker ever needs one key's whole
  history (hot-key hardening; a 10^6-event user costs each worker only
  its time slice).

All three stages are ``batch_format="pyarrow"`` end-to-end (pyarrow.compute
kernels; the only pandas left in the window family is gone).

Generalizes the reference's run-summary aggregation (SURVEY.md A7,
/root/reference/src/seq_dup_remover.hpp:104-109) from one global counter to
keyed time windows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..util import round_half_away


def _bucket_count() -> int:
    from .exchange import default_shuffle_buckets

    return default_shuffle_buckets()


def _floor_to(ts: pa.ChunkedArray | pa.Array, minutes: int) -> pa.Array:
    """Floor timestamps to a multiple of ``minutes`` (us precision)."""
    us = minutes * 60_000_000
    # normalize to us FIRST: a pandas-born ns column cast straight to int64
    # would floor in the wrong unit and mislabel the result. numpy // floors
    # toward -inf (pc.divide truncates toward zero, which would mis-window
    # pre-epoch timestamps vs pandas dt.floor and DuckDB date_trunc).
    # Nulls stay nulls (date_trunc(NULL) semantics): floor the null-filled
    # buffer, then restore validity — a to_numpy on a null-bearing int64
    # column would decay to float64/NaN and the final cast would throw.
    a = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    iv = pc.fill_null(a, 0).to_numpy(zero_copy_only=False)
    floored = pa.array((iv // us) * us).cast(pa.timestamp("us"))
    if a.null_count:
        floored = pc.if_else(pc.is_valid(a), floored, pa.scalar(None, pa.timestamp("us")))
    return floored


def _window_partial(
    t: pa.Table, key_col: str, ts_col: str, value_col: str, starts: list[pa.Array], buckets: int
) -> pa.Table:
    """Partial (key, window_start) aggregate of one batch; ``starts`` holds
    one window-start array per window the events belong to (1 for tumbling,
    width/hop for hopping)."""
    pieces = []
    for s in starts:
        pieces.append(
            pa.table(
                {
                    key_col: t[key_col],
                    "window_start": s,
                    value_col: t[value_col],
                }
            )
        )
    ex = pa.concat_tables(pieces)
    # count_all, not (value, count): Arrow's per-column count skips nulls,
    # but the oracle (and the pandas 'size' this replaced) counts rows
    agg = pa.TableGroupBy(ex, [key_col, "window_start"]).aggregate(
        [(value_col, "sum"), ([], "count_all")]
    )
    agg = agg.rename_columns([key_col, "window_start", "sum_value", "n_events"])
    return agg.append_column(
        "_bkt", pc.cast(_key_bucket(agg[key_col], buckets), pa.int64())
    )


def _key_bucket(keys: pa.ChunkedArray | pa.Array, buckets: int) -> np.ndarray:
    k = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
    if pa.types.is_integer(k.type):
        return k.to_numpy(zero_copy_only=False).astype(np.int64) % buckets
    from ..functions.hashing import hash64

    return (hash64(k.to_numpy(zero_copy_only=False).astype(object)) % np.uint64(buckets)).astype(
        np.int64
    )


def _window_merge(key_col: str, round_digits: int | None):
    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # Ray probes map_groups with an empty batch; return the merged
            # schema explicitly (an empty TableGroupBy would emit 0 columns)
            key_type = (
                t.schema.field(key_col).type if key_col in t.column_names else pa.int64()
            )
            return pa.table(
                {
                    key_col: pa.array([], key_type),
                    "window_start": pa.array([], pa.timestamp("us")),
                    "sum_value": pa.array([], pa.float64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        agg = pa.TableGroupBy(t, [key_col, "window_start"]).aggregate(
            [("sum_value", "sum"), ("n_events", "sum")]
        )
        agg = agg.rename_columns([key_col, "window_start", "sum_value", "n_events"])
        if round_digits is not None:
            agg = agg.set_column(
                agg.schema.get_field_index("sum_value"),
                "sum_value",
                pc.round(agg["sum_value"], round_digits, round_mode="half_towards_infinity"),
            )
        return agg

    return merge


def tumbling_window(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    width_minutes: int = 60,
    round_digits: int | None = 6,
) -> ray.data.Dataset:
    """(key, window_start, sum_value, n_events) over fixed tumbling windows."""
    B = _bucket_count()

    def partial(t: pa.Table) -> pa.Table:
        return _window_partial(
            t, key_col, ts_col, value_col, [_floor_to(t[ts_col], width_minutes)], B
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bkt")
        .map_groups(_window_merge(key_col, round_digits), batch_format="pyarrow")
    )


def hopping_window(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    width_minutes: int = 60,
    hop_minutes: int = 30,
    round_digits: int | None = 6,
) -> ray.data.Dataset:
    """Hopping (sliding) windows: each event lands in width/hop windows."""
    if width_minutes % hop_minutes:
        raise ValueError("hopping_window: width must be a multiple of hop")
    B = _bucket_count()
    k = width_minutes // hop_minutes
    hop_us = hop_minutes * 60_000_000

    def partial(t: pa.Table) -> pa.Table:
        base_i = pc.cast(_floor_to(t[ts_col], hop_minutes), pa.int64())
        starts = [
            pc.cast(pc.subtract(base_i, j * hop_us), pa.timestamp("us"))
            for j in range(k)
        ]
        return _window_partial(t, key_col, ts_col, value_col, starts, B)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bkt")
        .map_groups(_window_merge(key_col, round_digits), batch_format="pyarrow")
    )


def sessionize(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    gap_minutes: int = 30,
    round_digits: int | None = 6,
    time_chunk_minutes: int | None = 1440,
) -> ray.data.Dataset:
    """Inactivity-gap sessions per key:
    (key, session_start, session_end, n_events, sum_value).

    Hot-key hardening (default ON): events bucket by (key, ts //
    ``time_chunk_minutes``), so one key's history spreads over many bucket
    workers — a 10^6-event user costs each worker only its time slice.
    Chunk-LOCAL sessions resolve exactly as before (the chunk boundary is
    just an extra forced break); then only each (key, chunk)'s FIRST and
    LAST sessions — interior sessions can never reach past their chunk,
    because > ``gap`` of inactivity separates them from the chunk edges —
    take a second, session-level exchange keyed by key alone, where
    consecutive summaries merge when ``next.start - prev.end <= gap``.
    Exact: same break positions, same per-session event sets; the
    boundary-merge volume is <= 2 rows per (key, chunk). Set
    ``time_chunk_minutes=None`` for the legacy single-exchange path (each
    key's whole history on one worker)."""
    B = _bucket_count()
    gap_us = gap_minutes * 60_000_000
    chunk_us = (
        time_chunk_minutes * 60_000_000 if time_chunk_minutes else None
    )

    def _chunk_of(t: pa.Table) -> np.ndarray:
        a = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        iv = pc.fill_null(a, 0).to_numpy(zero_copy_only=False)
        return iv // chunk_us

    def bucketize(t: pa.Table) -> pa.Table:
        kb = _key_bucket(t[key_col], B)
        if chunk_us is None:
            return t.append_column("_bkt", pa.array(kb, pa.int64()))
        from ..functions.hashing import combine_hash64

        chk = _chunk_of(t)
        bkt = (
            combine_hash64(kb.astype(np.uint64), chk.astype(np.uint64))
            % np.uint64(B)
        ).astype(np.int64)
        return t.append_column("_bkt", pa.array(bkt, pa.int64()))

    def _empty_sessions(key_type) -> pa.Table:
        return pa.table(
            {
                key_col: pa.array([], key_type),
                "session_start": pa.array([], pa.timestamp("us")),
                "session_end": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64()),
                "sum_value": pa.array([], pa.float64()),
                "_boundary": pa.array([], pa.bool_()),
            }
        )

    def resolve(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_sessions(t.schema.field(key_col).type)
        order = pc.sort_indices(
            t, sort_keys=[(key_col, "ascending"), (ts_col, "ascending")]
        )
        keys = t[key_col].take(order)
        ts = pc.cast(
            pc.cast(t[ts_col].take(order), pa.timestamp("us")), pa.int64()
        ).to_numpy()
        vals = t[value_col].take(order).to_numpy(zero_copy_only=False).astype(np.float64)
        kn = keys.to_numpy(zero_copy_only=False)
        n = len(ts)
        new_key = np.ones(n, dtype=bool)
        if n > 1:
            new_key[1:] = kn[1:] != kn[:-1]
        new_sess = new_key.copy()
        if n > 1:
            new_sess[1:] |= (ts[1:] - ts[:-1]) > gap_us
        if chunk_us is not None and n > 1:
            # the chunk boundary forces a break; stage 2 re-merges it when
            # the real gap allows (chunk ids are ts-monotone per key)
            chk = ts // chunk_us
            new_sess[1:] |= chk[1:] != chk[:-1]
        starts = np.nonzero(new_sess)[0]
        ends = np.concatenate([starts[1:], [n]]) - 1
        out_ts = ts.astype("datetime64[us]")
        sums = np.add.reduceat(vals, starts)
        if chunk_us is None:
            boundary = np.zeros(len(starts), dtype=bool)
            if round_digits is not None:
                sums = round_half_away(sums, round_digits)
        else:
            # first/last session per (key, chunk) run — only they can merge
            # across chunks. Interior sums round HERE (they are final);
            # boundary sums round after the stage-2 merge.
            skey = kn[starts]
            schk = (ts // chunk_us)[starts]
            first = np.ones(len(starts), dtype=bool)
            if len(starts) > 1:
                first[1:] = (skey[1:] != skey[:-1]) | (schk[1:] != schk[:-1])
            last = np.concatenate([first[1:], [True]])
            boundary = first | last
            if round_digits is not None:
                sums[~boundary] = round_half_away(sums[~boundary], round_digits)
        return pa.table(
            {
                key_col: keys.take(pa.array(starts)),
                "session_start": pa.array(out_ts[starts], pa.timestamp("us")),
                "session_end": pa.array(out_ts[ends], pa.timestamp("us")),
                "n_events": pa.array(np.diff(np.concatenate([starts, [n]])), pa.int64()),
                "sum_value": pa.array(sums, pa.float64()),
                "_boundary": pa.array(boundary, pa.bool_()),
            }
        )

    sessions = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_bkt")
        .map_groups(resolve, batch_format="pyarrow")
    )
    if chunk_us is None:
        return sessions.map_batches(
            lambda t: t.drop_columns(["_boundary"]), batch_format="pyarrow"
        )

    sessions = sessions.materialize()
    final = sessions.map_batches(
        lambda t: t.filter(pc.invert(t["_boundary"])).drop_columns(["_boundary"]),
        batch_format="pyarrow",
    )

    def merge_boundary(t: pa.Table | None) -> pa.Table:
        if t is None or t.num_rows == 0:
            key_type = (
                t.schema.field(key_col).type if t is not None else pa.int64()
            )
            return _empty_sessions(key_type).drop_columns(["_boundary"])
        order = pc.sort_indices(
            t, sort_keys=[(key_col, "ascending"), ("session_start", "ascending")]
        )
        keys = t[key_col].take(order)
        kn = keys.to_numpy(zero_copy_only=False)
        ss = pc.cast(t["session_start"].take(order), pa.int64()).to_numpy()
        se = pc.cast(t["session_end"].take(order), pa.int64()).to_numpy()
        ne = t["n_events"].take(order).to_numpy()
        sv = t["sum_value"].take(order).to_numpy()
        n = len(ss)
        brk = np.ones(n, dtype=bool)
        if n > 1:
            # chunk-local sessions are time-disjoint per key, so plain
            # start-vs-previous-end chaining is the exact gap rule
            brk[1:] = (kn[1:] != kn[:-1]) | ((ss[1:] - se[:-1]) > gap_us)
        gs = np.nonzero(brk)[0]
        ge = np.concatenate([gs[1:], [n]]) - 1
        sums = np.add.reduceat(sv, gs)
        if round_digits is not None:
            sums = round_half_away(sums, round_digits)
        return pa.table(
            {
                key_col: keys.take(pa.array(gs)),
                "session_start": pa.array(ss[gs].astype("datetime64[us]"), pa.timestamp("us")),
                "session_end": pa.array(se[ge].astype("datetime64[us]"), pa.timestamp("us")),
                "n_events": pa.array(np.add.reduceat(ne, gs), pa.int64()),
                "sum_value": pa.array(sums, pa.float64()),
            }
        )

    from .exchange import hash_exchange

    def tag_boundary(t: pa.Table) -> pa.Table:
        tf = t.filter(t["_boundary"]).drop_columns(["_boundary"])
        return tf.append_column(
            "_kh",
            pa.array(_key_bucket(tf[key_col], B).astype(np.uint64), pa.uint64()),
        )

    # task exchange, not Dataset groupby: the boundary set is tiny (<= 2
    # rows per (key, chunk)) and the Dataset sort-groupby's flat machinery
    # cost dominated it (bench events_sessionize 0.75 -> 1.69 s when this
    # was a second groupby; the exchange restores ~0.9 s)
    boundary = sessions.map_batches(tag_boundary, batch_format="pyarrow").materialize()
    if boundary.count() == 0:
        # skip the union: the exchange's fn(None) fallback cannot know the
        # key type, and an int64-typed empty would poison a string-keyed
        # union (the engine's typed-empty invariant)
        return final
    merged = hash_exchange(
        boundary,
        "_kh",
        B,
        lambda t: merge_boundary(
            t.drop_columns(["_kh"]) if t is not None and "_kh" in t.column_names else t
        ),
    )
    return final.union(merged)
