"""Cross-document duplicate-span stats (stages/dupspans.py): exactness vs a
brute-force substring oracle, unicode char semantics, skew shapes."""

import numpy as np
import pandas as pd
import ray.data as rd

from fastq_dupaway_ray.stages.dupspans import dup_span_stats


def _brute(df, k):
    wins = {}
    per_doc = []
    for row in df.itertuples():
        t = row.text
        ws = [t[i : i + k] for i in range(max(len(t) - k + 1, 0))]
        per_doc.append((row.doc_id, ws))
        for w in set(ws):
            wins.setdefault(w, set()).add(row.doc_id)
    rows = []
    for d, ws in per_doc:
        if not ws:
            continue
        nd = sum(1 for w in ws if len(wins[w]) >= 2)
        rows.append((d, len(ws), nd, round(nd / len(ws), 6)))
    return pd.DataFrame(
        rows, columns=["doc_id", "n_windows", "n_dup_windows", "dup_fraction"]
    )


def _check(df, k=8):
    got = (
        dup_span_stats(rd.from_pandas(df).repartition(5), k=k)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _brute(df, k).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    return got


def test_dup_span_stats_matches_bruteforce(ray_session):
    rng = np.random.default_rng(41)
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    shared = " ".join(rng.choice(words, size=12))  # planted cross-doc span
    texts = []
    for i in range(200):
        base = " ".join(rng.choice(words, size=rng.integers(0, 20)))
        if i % 4 == 0:
            base = base + " " + shared
        texts.append(base)
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64), "text": texts})
    got = _check(df)
    assert (got["n_dup_windows"] > 0).any()


def test_dup_span_stats_within_doc_repeat_not_dup(ray_session):
    """A span repeating only WITHIN one doc is not cross-doc duplicated
    (count(DISTINCT doc_id) >= 2 semantics)."""
    df = pd.DataFrame(
        {
            "doc_id": np.array([0, 1], dtype=np.int64),
            "text": ["xyzzyspanxyzzyspan", "totally different content here"],
        }
    )
    got = _check(df, k=6)
    assert (got["n_dup_windows"] == 0).all()


def test_dup_span_stats_unicode_char_windows(ray_session):
    """Windows count CHARACTERS (UTF-32 code points), matching SQL substr —
    multibyte text must not shift window boundaries."""
    span = "héllo wörld 𝄞𝄞𝄞 café"
    df = pd.DataFrame(
        {
            "doc_id": np.array([0, 1, 2], dtype=np.int64),
            "text": [f"aaa {span} bbb", f"ccc {span} ddd", "unrelated ascii text"],
        }
    )
    _check(df, k=7)


def test_dup_span_stats_short_docs_absent(ray_session):
    df = pd.DataFrame(
        {
            "doc_id": np.array([0, 1], dtype=np.int64),
            "text": ["tiny", "this one is long enough to have windows"],
        }
    )
    got = _check(df, k=10)
    assert got["doc_id"].tolist() == [1]


def test_dup_span_stats_rounds_equivalent(ray_session):
    """rounds=R (bounded-memory sequential hash-range passes) returns
    exactly the rounds=1 answer."""
    rng = np.random.default_rng(51)
    words = ["alpha", "beta", "gamma", "delta"]
    shared = " ".join(rng.choice(words, size=10))
    texts = [
        (" ".join(rng.choice(words, size=rng.integers(3, 15)))
         + (" " + shared if i % 3 == 0 else ""))
        for i in range(150)
    ]
    df = pd.DataFrame({"doc_id": np.arange(150, dtype=np.int64), "text": texts})
    one = (
        dup_span_stats(rd.from_pandas(df).repartition(4), k=8, rounds=1)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    four = (
        dup_span_stats(rd.from_pandas(df).repartition(4), k=8, rounds=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(one, four)


# ---------------------------------------------------- surgical removal


def _brute_remove(df, k):
    first = {}
    for row in df.sort_values("doc_id").itertuples():
        t = row.text
        for i in range(max(len(t) - k + 1, 0)):
            w = t[i : i + k]
            if w not in first:
                first[w] = row.doc_id
    out = []
    for row in df.itertuples():
        t = row.text
        cover = np.zeros(len(t), dtype=bool)
        for i in range(max(len(t) - k + 1, 0)):
            if first[t[i : i + k]] < row.doc_id:
                cover[i : i + k] = True
        clean = "".join(c for c, m in zip(t, cover) if not m)
        out.append((row.doc_id, clean, int(cover.sum())))
    return pd.DataFrame(out, columns=["doc_id", "text", "n_removed_chars"])


def _removal_corpus(n=120, seed=61):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    shared = " ".join(rng.choice(words, size=10))
    texts = []
    for i in range(n):
        base = " ".join(rng.choice(words, size=rng.integers(2, 16)))
        if i % 3 == 0:
            base = base + " " + shared + " tail" + str(i)
        texts.append(base)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})


def _check_removal(df, k=8, **kw):
    from fastq_dupaway_ray.stages.dupspans import remove_dup_spans

    got = (
        remove_dup_spans(
            rd.from_pandas(df).repartition(5), k=k, recount_col=None, **kw
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[["doc_id", "text", "n_removed_chars"]]
    )
    exp = _brute_remove(df, k).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    return got


def test_remove_dup_spans_matches_bruteforce(ray_session):
    got = _check_removal(_removal_corpus())
    assert (got["n_removed_chars"] > 0).any()
    # first occurrence of the shared span survives intact (doc 0 has it)
    assert got.loc[0, "n_removed_chars"] == 0


def test_remove_dup_spans_fallback_limb_equal(ray_session, monkeypatch):
    """The payload-exchange fallback (cut set over budget) produces the
    identical corpus to the broadcast limb, through the task hash exchange
    (no Ray groupby)."""
    df = _removal_corpus(90, seed=77)
    a = _check_removal(df)

    def no_groupby(*a, **k):
        raise AssertionError("Ray groupby on the cut-set fallback")

    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    b = _check_removal(df, cut_broadcast_budget=0 + 1)  # force fallback
    pd.testing.assert_frame_equal(a, b)


def test_remove_dup_spans_rounds_equal(ray_session):
    df = _removal_corpus(90, seed=78)
    a = _check_removal(df)
    b = _check_removal(df, rounds=4)
    pd.testing.assert_frame_equal(a, b)


def test_remove_dup_spans_no_dups_noop(ray_session):
    df = pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": ["completely unique first", "another different second", "third one"],
        }
    )
    got = _check_removal(df, k=10)
    assert (got["n_removed_chars"] == 0).all()
    assert got["text"].tolist() == df["text"].tolist()


def test_remove_dup_spans_unicode_and_empty(ray_session):
    span = "héllo wörld 𝄞 caffé latte"
    df = pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": [span, span, ""],  # doc1 fully duplicated -> empty
        }
    )
    got = _check_removal(df, k=6)
    assert got.loc[1, "text"] == "" and got.loc[1, "n_removed_chars"] == len(span)
    assert got.loc[0, "text"] == span


def test_dup_span_stats_null_text(ray_session):
    """Null texts window as empty (absent from output) instead of crashing
    the UTF-32 encoder."""
    df = pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": pd.array(
                ["long enough text to have some windows", None,
                 "long enough text to have some windows"], dtype=object
            ),
        }
    )
    got = (
        dup_span_stats(rd.from_pandas(df), k=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == [0, 2]
    assert (got["n_dup_windows"] == got["n_windows"]).all()


def test_dup_span_stats_string_ids_with_empty_buckets(ray_session):
    """String doc ids survive the exchange even when some reduce buckets are
    empty (the typed-empty fallback must not fabricate int64 d columns)."""
    df = pd.DataFrame(
        {
            "doc_id": [f"u{i}" for i in range(6)],
            "text": ["common shared window text here"] * 3
            + ["zebra quail xylophone mnop", "fjord glyph vexing wizards quartz", "bright vixens jump dozy fowl"],
        }
    )
    got = (
        dup_span_stats(
            rd.from_pandas(df), id_col="doc_id", k=10, num_buckets=64
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == 6
    dup = got[got["n_dup_windows"] > 0]["doc_id"].tolist()
    assert dup == ["u0", "u1", "u2"]


def test_remove_dup_spans_string_ids_empty_round0(ray_session):
    """rounds>1 with STRING doc ids where round 0's window slice is empty:
    the int64-typed empty fallback must not poison the cross-round union
    (advisor round-4 finding). The window is chosen at runtime so its
    w2 %% rounds is provably nonzero."""
    import numpy as np

    from fastq_dupaway_ray.stages.dupspans import (
        _window_hashes_u32,
        remove_dup_spans,
    )

    k, rounds = 12, 3
    span = None
    for i in range(200):
        cand = f"{i:06d} span!"[:k]
        assert len(cand) == k
        _, w2, _, _ = _window_hashes_u32(np.array([cand], dtype=object), k)
        # exactly-one-window doc whose every round-0 slice is empty
        if len(w2) == 1 and int(w2[0]) % rounds != 0:
            span = cand
            break
    assert span is not None
    df = pd.DataFrame(
        {
            "doc_id": ["a-first", "b-second"],
            "text": [span, span],  # doc b fully duplicated
        }
    )
    got = (
        remove_dup_spans(
            rd.from_pandas(df).repartition(2),
            id_col="doc_id",
            k=k,
            rounds=rounds,
            recount_col=None,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["text"].tolist() == [span, ""]
    assert got["n_removed_chars"].tolist() == [0, k]


def test_remove_dup_spans_prefilter_limb_equal(ray_session, monkeypatch):
    """prefilter=True (stats pass + presence/position split emission) must
    produce exactly the unfiltered result, incl. with rounds>1, a forced
    over-budget prefilter (its semi-join takes the exchange limb and stays
    on) and a no-dup corpus."""
    from fastq_dupaway_ray.stages import exchange

    df = _removal_corpus(90, seed=79)
    a = _check_removal(df)
    b = _check_removal(df, prefilter=True)
    pd.testing.assert_frame_equal(a, b)
    c = _check_removal(df, prefilter=True, rounds=4)
    pd.testing.assert_frame_equal(a, c)
    # over-budget: the prefilter's keep=True semi-join runs as an exchange
    monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", 0)
    calls = []
    orig = exchange.semi_filter

    def spy(ds, keys, key_fn, keep=False, confirm_fn=None):
        out = orig(ds, keys, key_fn, keep=keep, confirm_fn=confirm_fn)
        calls.append((keep, keys.count(), out.count()))
        return out

    monkeypatch.setattr(exchange, "semi_filter", spy)
    d = _check_removal(df, prefilter=True)
    pd.testing.assert_frame_equal(a, d)
    n_dup_docs = int((_brute(df, 8)["n_dup_windows"] > 0).sum())
    assert calls == [(True, n_dup_docs, n_dup_docs)]
    monkeypatch.setattr(exchange, "semi_filter", orig)
    # clean corpus: empty dup set -> all presence rows -> noop
    clean = pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": ["totally unique first text", "different second words", "third unlike any"],
        }
    )
    got = _check_removal(clean, k=10, prefilter=True)
    assert (got["n_removed_chars"] == 0).all()


def test_remove_dup_spans_prefilter_string_ids(ray_session):
    """String doc ids through the prefilter membership hash."""
    span = "a shared duplicated span of text!"
    df = pd.DataFrame(
        {
            "doc_id": ["a-one", "b-two", "c-three"],
            "text": [span, span + " plus unique tail", "unrelated body entirely"],
        }
    )
    from fastq_dupaway_ray.stages.dupspans import remove_dup_spans

    got = (
        remove_dup_spans(
            rd.from_pandas(df).repartition(2), id_col="doc_id", k=8,
            recount_col=None, prefilter=True,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.loc[0, "n_removed_chars"] == 0
    assert got.loc[1, "n_removed_chars"] > 0
    assert got.loc[2, "n_removed_chars"] == 0


def test_dup_span_stats_rounding_matches_sql_half_away(ray_session):
    """dup_fraction ties at the 6th digit must round like SQL (half away
    from zero), not banker's: 4 dup windows of 512 = 0.0078125 -> 0.007813.
    Caught by the sf0.1 sweep (power-of-two window counts)."""
    k = 8
    span = "sharedspanabc"[: k]
    # doc0/doc1 share exactly the k-char span; doc0 has 512 windows total
    base = "".join(chr(97 + (i * 7) % 26) for i in range(512 + k - 1 - len(span)))
    df = pd.DataFrame(
        {
            "doc_id": np.array([0, 1], dtype=np.int64),
            "text": [span + base, span + "x" * 20],
        }
    )
    got = (
        dup_span_stats(rd.from_pandas(df), k=k)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    row0 = got.loc[0]
    assert row0["n_windows"] == 512
    # the shared k-gram occurs at offset 0 in both docs -> >= 1 dup window
    nd = int(row0["n_dup_windows"])
    import duckdb
    want = duckdb.sql(f"SELECT round({nd}::DOUBLE / 512, 6)").fetchone()[0]
    assert row0["dup_fraction"] == want
