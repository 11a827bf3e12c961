"""Driver-contract query implementations + their DuckDB oracle SQL.

Each entry runs one operator/pipeline from SURVEY.md §2 over the driver's
testdata tables and (where SQL-expressible) has a DuckDB oracle producing the
same rows with the same column names — the correctness gate.

The driver's documents table has no planted duplicates, so dedup queries build
a deterministic augmented table first — a union of documents with exact copies
(every 10th doc) and prefix extensions (every 7th doc) — expressed identically
in Ray and in the oracle SQL (same arithmetic, no randomness).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

DOC_COLS = ["doc_id", "text", "lang", "source", "n_chars"]

# deterministic duplicate injection, mirrored exactly in _AUGMENT_SQL
EXACT_COPY_MOD = 10
EXACT_COPY_OFFSET = 1_000_000
PREFIX_MOD = 7
PREFIX_OFFSET = 2_000_000
PREFIX_SUFFIX = " appended continuation section"

_AUGMENT_SQL = f"""
    SELECT doc_id, text, lang, source, n_chars FROM documents
    UNION ALL
    SELECT doc_id + {EXACT_COPY_OFFSET}, text, lang, source, n_chars
    FROM documents WHERE doc_id % {EXACT_COPY_MOD} = 0
    UNION ALL
    SELECT doc_id + {PREFIX_OFFSET}, text || '{PREFIX_SUFFIX}', lang, source,
           n_chars + {len(PREFIX_SUFFIX)}
    FROM documents WHERE doc_id % {PREFIX_MOD} = 0
"""


def _docs(sf_dir: str) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=DOC_COLS)


def augmented_docs(sf_dir: str) -> rd.Dataset:
    """documents ∪ exact copies ∪ prefix extensions (deterministic).

    Single-pass: one map_batches emits base rows + both planted classes per
    batch (a three-way ``ds.union`` would read the input three times).

    Oracle scaffolding bound: the additive id offsets (1e6/2e6) collide with
    base ids past 1M base docs, silently diverging engine from oracle — the
    planted classes guard against that loudly."""
    ds = _docs(sf_dir)

    def _mod_filter(t: pa.Table, mod: int) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return t.filter(pa.array(ids % mod == 0))  # pyarrow 16 lacks pc.modulo

    def build(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        if len(ids) and ids.max() >= EXACT_COPY_OFFSET:
            raise ValueError(
                "augmented_docs planted-id offsets collide past 1M base docs"
            )
        m = _mod_filter(t, EXACT_COPY_MOD)
        exact = m.set_column(0, "doc_id", pc.add(m["doc_id"], EXACT_COPY_OFFSET))
        m = _mod_filter(t, PREFIX_MOD)
        new_text = pc.binary_join_element_wise(
            m["text"].combine_chunks(), pa.scalar(PREFIX_SUFFIX), ""
        )
        m = m.set_column(0, "doc_id", pc.add(m["doc_id"], PREFIX_OFFSET))
        m = m.set_column(m.schema.get_field_index("text"), "text", new_text)
        prefix = m.set_column(
            m.schema.get_field_index("n_chars"), "n_chars", pc.add(m["n_chars"], len(PREFIX_SUFFIX))
        )
        return pa.concat_tables([t, exact, prefix])

    return ds.map_batches(build, batch_format="pyarrow")


# -------------------------------------------------- near-dup (oracle-planted)
#
# Near-dup pipelines get REAL oracles by running them over a corpus whose kept
# set is pure doc_id arithmetic. The driver's documents table contains NATURAL
# near-duplicates (measured char-shingle Jaccard up to 0.99 between distinct
# doc_ids), so the base texts are SYNTHESIZED deterministically from the
# doc_ids instead: 40 md5-derived letter-only tokens per doc — mutually
# dissimilar by construction (cross-doc shared-shingle odds ~ 2^-32), no
# digits (quality filters pass), constant 40 tokens. Planted classes:
#   exact copies (doc_id % 10, +3e6)            — Jaccard 1.0, MUST drop
#   above-threshold copies (doc_id % 11, +4e6)  — one appended token:
#       char-shingle j ≈ 0.99, word-3-gram j = 38/40 = 0.95; LSH candidate
#       probability 1-(1-j^r)^b > 1 - 3e-8 — deterministic in practice
#   reversed copies (doc_id % 13, +5e6)         — near-zero overlap, MUST keep
# Kept set = {base} ∪ {reversed}, keep-first = min doc_id per cluster.

NEAR_EXACT_MOD = 10
NEAR_EXACT_OFFSET = 3_000_000
NEAR_ABOVE_MOD = 11
NEAR_ABOVE_OFFSET = 4_000_000
NEAR_BELOW_MOD = 13
NEAR_BELOW_OFFSET = 5_000_000
NEAR_MARKER = " zqmarker"
NEAR_TOKENS = 40
_HEX2ALPHA = str.maketrans("0123456789", "ghijklmnop")

_NEAR_IDS_SQL = f"""
    SELECT doc_id, lang FROM documents
    UNION ALL
    SELECT doc_id + {NEAR_BELOW_OFFSET}, lang
    FROM documents WHERE doc_id % {NEAR_BELOW_MOD} = 0
"""

SQL_NEAR_KEPT = f"""
    WITH kept AS ({_NEAR_IDS_SQL})
    SELECT doc_id, lang FROM kept
"""
SQL_NEAR_KEPT_SIM = SQL_NEAR_KEPT


def _near_text(doc_id: int) -> str:
    import hashlib

    return " ".join(
        hashlib.md5(f"{doc_id}-{j}".encode()).hexdigest().translate(_HEX2ALPHA)
        for j in range(NEAR_TOKENS)
    )


def augmented_near_docs(sf_dir: str, with_above: bool = True) -> rd.Dataset:
    """Synthetic near-dup corpus keyed by the documents table's doc_ids:
    base docs ∪ exact copies ∪ above-threshold copies ∪ reversed copies
    (see section comment; the oracle is _NEAR_IDS_SQL arithmetic)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def build(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        if len(ids) and ids.max() >= NEAR_EXACT_OFFSET:
            raise ValueError(
                "augmented_near_docs planted-id offsets collide past 3M base docs"
            )
        langs = t["lang"].to_pylist()
        out_ids, out_texts, out_langs = [], [], []
        for i, lang in zip(ids, langs):
            base = _near_text(int(i))
            out_ids.append(int(i)); out_texts.append(base); out_langs.append(lang)
            if i % NEAR_EXACT_MOD == 0:
                out_ids.append(int(i) + NEAR_EXACT_OFFSET)
                out_texts.append(base); out_langs.append(lang)
            if with_above and i % NEAR_ABOVE_MOD == 0:
                out_ids.append(int(i) + NEAR_ABOVE_OFFSET)
                out_texts.append(base + NEAR_MARKER); out_langs.append(lang)
            if i % NEAR_BELOW_MOD == 0:
                out_ids.append(int(i) + NEAR_BELOW_OFFSET)
                out_texts.append(base[::-1]); out_langs.append(lang)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
                "lang": pa.array(out_langs, pa.string()),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow")



# ----------------------------------------------------------------- dedup: exact

def q_dedup_exact_docs(sf_dir: str):
    """Hash-exact keep-first dedup (reference --fast, SURVEY.md A1)."""
    from .stages.dedup_exact import dedup_exact

    return dedup_exact(augmented_docs(sf_dir), key_cols=("text",), order_cols=("doc_id",))


SQL_DEDUP_EXACT_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL})
    SELECT doc_id, text, lang, source, n_chars FROM aug
    QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
"""


def q_dedup_exact_paranoid_docs(sf_dir: str):
    """Byte-exact dedup mode: actual key values compared inside each hash
    bucket (zero collision exposure, like the reference's setRecord
    equality) — the payload-shuffle path as a first-class mode."""
    from .stages.dedup_exact import dedup_exact

    return dedup_exact(
        augmented_docs(sf_dir), key_cols=("text",), order_cols=("doc_id",), paranoid=True
    )


def q_dedup_exact_composite_docs(sf_dir: str):
    """Composite-key dedup = paired-mode AND semantics (SURVEY.md A2)."""
    from .stages.dedup_exact import dedup_exact

    return dedup_exact(
        augmented_docs(sf_dir), key_cols=("text", "lang"), order_cols=("doc_id",)
    )


SQL_DEDUP_EXACT_COMPOSITE_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL})
    SELECT doc_id, text, lang, source, n_chars FROM aug
    QUALIFY row_number() OVER (PARTITION BY text, lang ORDER BY doc_id) = 1
"""


def q_clusters_exact_docs(sf_dir: str):
    """Duplicate-cluster emission (--write-clusters, SURVEY.md A6/S9)."""
    from .stages.dedup_exact import dedup_exact_clusters

    return dedup_exact_clusters(
        augmented_docs(sf_dir), key_cols=("text",), id_col="doc_id", order_cols=("doc_id",)
    )


SQL_CLUSTERS_EXACT_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL})
    SELECT min(doc_id) OVER (PARTITION BY text) AS cluster_id,
           doc_id AS member,
           doc_id = min(doc_id) OVER (PARTITION BY text) AS is_representative
    FROM aug
"""


def q_cluster_size_hist_docs(sf_dir: str):
    """Duplicate-cluster size histogram — the dedup-report aggregate a corpus
    operator reads first (how much boilerplate, how deep the copies). One
    slim identity shuffle (combiner-style partial counts per batch), cluster
    sizes re-aggregated into the histogram — payload never moves."""
    from .stages.dedup_exact import _identity128
    from .stages.exchange import default_shuffle_buckets

    B = default_shuffle_buckets()
    ds = augmented_docs(sf_dir)

    def slim(t: pa.Table) -> pa.Table:
        k1, k2 = _identity128(t, ["text"])
        df = pd.DataFrame({"k1": k1, "k2": k2}).groupby(["k1", "k2"], as_index=False).size()
        return pa.table(
            {
                "k1": pa.array(df["k1"].to_numpy(), pa.uint64()),
                "k2": pa.array(df["k2"].to_numpy(), pa.uint64()),
                "n": pa.array(df["size"].to_numpy(), pa.int64()),
                "_bkt": pa.array((df["k1"].to_numpy() % np.uint64(B)).astype(np.int64)),
            }
        )

    def sizes(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["k1", "k2"], as_index=False).agg(sz=("n", "sum"))
        return g.groupby("sz", as_index=False).size().rename(
            columns={"sz": "cluster_size", "size": "n_clusters"}
        )

    out = (
        ds.map_batches(slim, batch_format="pyarrow")
        .groupby("_bkt")
        .map_groups(sizes, batch_format="pandas")
        .to_pandas()
    )
    return out.groupby("cluster_size", as_index=False).agg(n_clusters=("n_clusters", "sum"))


SQL_CLUSTER_SIZE_HIST_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL}),
    c AS (SELECT count(*) AS cluster_size FROM aug GROUP BY text)
    SELECT cluster_size, count(*) AS n_clusters FROM c GROUP BY cluster_size
"""


def q_train_split_docs(sf_dir: str):
    """Deterministic held-out split by content-independent id hash (md5 —
    byte-identical in Python and DuckDB): ~10% of docs to 'val', rest
    'train'. The reproducible split every training-corpus pipeline needs —
    stable under re-runs, resharding and retries."""
    def split(t: pa.Table) -> pa.Table:
        from .functions.hashing import md5_hex

        h2 = pc.utf8_slice_codeunits(md5_hex(t["doc_id"]), 0, 2)
        is_val = pc.less(h2, "1a")
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "split": pc.if_else(is_val, "val", "train"),
            }
        )

    return _docs(sf_dir).map_batches(split, batch_format="pyarrow")


SQL_TRAIN_SPLIT_DOCS = """
    SELECT doc_id, lang,
           CASE WHEN substr(md5(doc_id::VARCHAR), 1, 2) < '1a'
                THEN 'val' ELSE 'train' END AS split
    FROM documents
"""


def q_dedup_counts_docs(sf_dir: str):
    """Run-summary counters (--verbose, SURVEY.md A7).

    Count-distinct via the slim 128-bit identity: per-batch partial distinct
    counts shuffle only (k1, k2) pairs — the text payload never moves (a
    ``ds.unique("text")`` would shuffle every document body)."""
    from .stages.dedup_exact import _identity128
    from .stages.exchange import default_shuffle_buckets

    B = default_shuffle_buckets()
    ds = augmented_docs(sf_dir)
    total = ds.count()

    def slim(t: pa.Table) -> pa.Table:
        k1, k2 = _identity128(t, ["text"])
        keep = pd.DataFrame({"k1": k1, "k2": k2}).drop_duplicates()
        return pa.table(
            {
                "k1": pa.array(keep["k1"].to_numpy(), pa.uint64()),
                "k2": pa.array(keep["k2"].to_numpy(), pa.uint64()),
                "_bkt": pa.array((keep["k1"].to_numpy() % np.uint64(B)).astype(np.int64)),
            }
        )

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [df.drop_duplicates(subset=["k1", "k2"]).shape[0]]})

    parts = (
        ds.map_batches(slim, batch_format="pyarrow")
        .groupby("_bkt")
        .map_groups(count_distinct, batch_format="pandas")
        .to_pandas()
    )
    n_kept = int(parts["n"].sum())
    return pd.DataFrame(
        {"total": [total], "kept": [n_kept], "duplicates": [total - n_kept]}
    )


SQL_DEDUP_COUNTS_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL})
    SELECT count(*) AS total,
           count(DISTINCT text) AS kept,
           count(*) - count(DISTINCT text) AS duplicates
    FROM aug
"""


# ------------------------------------------------------- dedup: loose adjacency

def q_dedup_loose_docs(sf_dir: str):
    """Prefix-containment dedup, sorted-adjacency LAG semantics (SURVEY.md A4).

    Exact mirror of the reference loose scan (see stages.adjacency docstring
    for why the scan reduces to a LAG predicate).
    """
    from .stages.adjacency import dedup_adjacency

    res = dedup_adjacency(
        augmented_docs(sf_dir), mode="loose", text_col="text", id_col="doc_id", order_cols=("doc_id",)
    )
    return res.kept


SQL_DEDUP_LOOSE_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL}),
    lagged AS (
        SELECT *, lag(text) OVER (ORDER BY text, doc_id) AS prev FROM aug
    )
    SELECT doc_id, text, lang, source, n_chars FROM lagged
    WHERE prev IS NULL OR NOT starts_with(text, prev)
"""


# paired-adjacency planting (mirrored exactly in the SQL below)
PAIR_EXACT_MOD = 10
PAIR_EXACT_OFFSET = 1_000_000
PAIR_BOTH_MOD = 7
PAIR_BOTH_OFFSET = 2_000_000
PAIR_LEFT_MOD = 13
PAIR_LEFT_OFFSET = 3_000_000
PAIR_SUFFIX_1 = " appended continuation section"
PAIR_SUFFIX_2 = " extra"

_PAIRS_SQL = f"""
    SELECT doc_id, text AS text_1, source AS text_2 FROM documents
    UNION ALL
    SELECT doc_id + {PAIR_EXACT_OFFSET}, text, source
    FROM documents WHERE doc_id % {PAIR_EXACT_MOD} = 0
    UNION ALL
    SELECT doc_id + {PAIR_BOTH_OFFSET}, text || '{PAIR_SUFFIX_1}', source || '{PAIR_SUFFIX_2}'
    FROM documents WHERE doc_id % {PAIR_BOTH_MOD} = 0
    UNION ALL
    SELECT doc_id + {PAIR_LEFT_OFFSET}, text || '{PAIR_SUFFIX_1}', source
    FROM documents WHERE doc_id % {PAIR_LEFT_MOD} = 0
"""


def paired_docs(sf_dir: str) -> rd.Dataset:
    """(doc_id, text_1, text_2) pair table with planted paired duplicates:
    exact pair copies, both-mates extensions, left-only extensions — the
    reference EP3 duplicate classes, mirrored exactly in _PAIRS_SQL."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])

    def base(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "text_1": t["text"], "text_2": t["source"].cast(pa.string())}
        )

    def planted(t: pa.Table, mod: int, offset: int, s1: str, s2: str) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        m = t.filter(pa.array(ids % mod == 0))
        t1 = m["text"].combine_chunks()
        t2 = m["source"].cast(pa.string()).combine_chunks()
        if s1:
            t1 = pc.binary_join_element_wise(t1, pa.scalar(s1), "")
        if s2:
            t2 = pc.binary_join_element_wise(t2, pa.scalar(s2), "")
        return pa.table({"doc_id": pc.add(m["doc_id"], offset), "text_1": t1, "text_2": t2})

    def build(t: pa.Table) -> pa.Table:
        # single pass: base + all three planted classes per batch
        return pa.concat_tables(
            [
                base(t),
                planted(t, PAIR_EXACT_MOD, PAIR_EXACT_OFFSET, "", ""),
                planted(t, PAIR_BOTH_MOD, PAIR_BOTH_OFFSET, PAIR_SUFFIX_1, PAIR_SUFFIX_2),
                planted(t, PAIR_LEFT_MOD, PAIR_LEFT_OFFSET, PAIR_SUFFIX_1, ""),
            ]
        )

    return ds.map_batches(build, batch_format="pyarrow")


def q_dedup_loose_paired_docs(sf_dir: str):
    """Paired loose adjacency dedup (reference EP3 with --compare-seq loose):
    pair-lexicographic sort, both-mates prefix predicate with the same-sided
    overlap + both-longer head-advance rules
    (/root/reference/src/comparator.cpp:65-74,
    /root/reference/src/seq_dup_remover.hpp:192-202). In sorted order the
    scan reduces exactly to a two-column LAG predicate (stages.adjacency
    docstring proof), which the oracle mirrors in SQL."""
    from .stages.adjacency import dedup_adjacency

    res = dedup_adjacency(
        paired_docs(sf_dir),
        mode="loose",
        text_cols=("text_1", "text_2"),
        id_col="doc_id",
        order_cols=("doc_id",),
    )
    return res.kept


SQL_DEDUP_LOOSE_PAIRED_DOCS = f"""
    WITH p AS ({_PAIRS_SQL}),
    lagged AS (
        SELECT *, lag(text_1) OVER w AS p1, lag(text_2) OVER w AS p2
        FROM p WINDOW w AS (ORDER BY text_1, text_2, doc_id)
    )
    SELECT doc_id, text_1, text_2 FROM lagged
    WHERE p1 IS NULL OR NOT (starts_with(text_1, p1) AND starts_with(text_2, p2))
"""


def q_dedup_tight_paired_docs(sf_dir: str):
    """Paired tight adjacency (both mates byte-equal,
    /root/reference/src/comparator.cpp:51-58) over the same pair table."""
    from .stages.adjacency import dedup_adjacency

    res = dedup_adjacency(
        paired_docs(sf_dir),
        mode="tight",
        text_cols=("text_1", "text_2"),
        id_col="doc_id",
        order_cols=("doc_id",),
    )
    return res.kept


SQL_DEDUP_TIGHT_PAIRED_DOCS = f"""
    WITH p AS ({_PAIRS_SQL})
    SELECT doc_id, text_1, text_2 FROM p
    QUALIFY row_number() OVER (PARTITION BY text_1, text_2 ORDER BY doc_id) = 1
"""


def q_dedup_tight_adjacency_docs(sf_dir: str):
    """Sorted tight adjacency (SURVEY.md A3) — same kept set as hash exact,
    computed via the sort path; oracle shared with dedup_exact_docs."""
    from .stages.adjacency import dedup_adjacency

    res = dedup_adjacency(
        augmented_docs(sf_dir), mode="tight", text_col="text", id_col="doc_id", order_cols=("doc_id",)
    )
    return res.kept


def q_containment_docs(sf_dir: str):
    """Substring-containment pairs (a=container, b=contained) — the
    suffix-pass generalization of loose mode (north rule)."""
    import pyarrow as _pa

    from .stages.containment import containment_edges

    edges = containment_edges(augmented_docs(sf_dir), anchors=None, id_col="doc_id")

    def cast(t: _pa.Table) -> _pa.Table:
        return _pa.table(
            {"a": t["a"].cast(_pa.int64()), "b": t["b"].cast(_pa.int64())}
        )

    return edges.map_batches(cast, batch_format="pyarrow")


SQL_CONTAINMENT_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL})
    SELECT big.doc_id AS a, small.doc_id AS b
    FROM aug big JOIN aug small
      ON length(big.text) > length(small.text)
     AND position(small.text IN big.text) > 0
"""


def q_containment_sa_docs(sf_dir: str):
    """Same containment join, verified by the north rule's suffix-array
    substring pass (one prefix-doubled SA per anchor group, binary-search
    probes) instead of str.find — identical edge set, same oracle."""
    import pyarrow as _pa

    from .stages.containment import containment_edges

    edges = containment_edges(
        augmented_docs(sf_dir), anchors=None, id_col="doc_id", verify="suffix_array"
    )

    def cast(t: _pa.Table) -> _pa.Table:
        return _pa.table(
            {"a": t["a"].cast(_pa.int64()), "b": t["b"].cast(_pa.int64())}
        )

    return edges.map_batches(cast, batch_format="pyarrow")


def q_quality_filter_docs(sf_dir: str):
    """Quality-threshold filtering (training-data pipeline stage)."""
    from .functions.textstats import quality_features

    def f(t: pa.Table) -> pa.Table:
        q = quality_features(t)
        mask = pc.and_(
            pc.greater_equal(q["n_tokens"], 5), pc.less(q["digit_ratio"], 0.2)
        )
        return q.filter(mask).select(["doc_id", "n_tokens", "digit_ratio"])

    return _docs(sf_dir).drop_columns(["n_chars"]).map_batches(f, batch_format="pyarrow")


SQL_QUALITY_FILTER_DOCS = r"""
    WITH q AS (
        SELECT doc_id,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens,
               len(regexp_extract_all(text, '[0-9]')) /
                   greatest(length(text), 1)::DOUBLE AS digit_ratio
        FROM documents
    )
    SELECT doc_id, n_tokens, digit_ratio FROM q
    WHERE n_tokens >= 5 AND digit_ratio < 0.2
"""


def q_lang_dist_docs(sf_dir: str):
    """Per-language corpus counts (A7-style class counters)."""
    from ray.data.aggregate import Count

    out = (
        _docs(sf_dir)
        .select_columns(["lang"])
        .groupby("lang")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    return out


SQL_LANG_DIST_DOCS = "SELECT lang, count(*) AS n FROM documents GROUP BY lang"


def q_top_tokens_docs(sf_dir: str):
    """Top-50 tokens by frequency: explode -> partial counts -> merge -> top-k."""
    from .stages.exchange import default_shuffle_buckets

    B = default_shuffle_buckets()

    def explode_count(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split()
        # concatenate of ALL-empty token lists yields float64 — force object
        # so the token column's Arrow type is string in every block
        flat = (
            pd.Series(np.concatenate(toks.to_numpy()).astype(object))
            if len(df)
            else pd.Series([], dtype=object)
        )
        cnt = flat.value_counts()
        out = pd.DataFrame({"token": cnt.index, "n": cnt.to_numpy()})
        out["_bkt"] = pd.util.hash_array(out["token"].to_numpy(dtype=object)) % B
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("token", as_index=False).agg(n=("n", "sum"))

    counts = (
        _docs(sf_dir)
        .select_columns(["text"])
        .map_batches(explode_count, batch_format="pandas")
        .groupby("_bkt")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    counts = counts.sort_values(["n", "token"], ascending=[False, True], kind="mergesort").head(50)
    return counts.reset_index(drop=True)


SQL_TOP_TOKENS_DOCS = r"""
    SELECT token, count(*) AS n
    FROM (SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS token
          FROM documents WHERE trim(text) <> '')
    GROUP BY token
    ORDER BY n DESC, token ASC
    LIMIT 50
"""


def q_doc_frequency_docs(sf_dir: str):
    """Top-25 tokens by DOCUMENT frequency (the DF half of IDF — stopword /
    boilerplate detection feeds on this). Combiner counts each token once
    per doc within the batch (a doc is one row, so partial DFs are exact);
    the merge bucket owns each token wholly, so per-bucket top-k is globally
    correct before the driver's final head."""
    from .stages.exchange import default_shuffle_buckets

    B = default_shuffle_buckets()

    def explode_df(df: pd.DataFrame) -> pd.DataFrame:
        if len(df):
            toks = df["text"].str.split()
            # .astype(object): all-empty token lists concatenate to float64,
            # which would emit a token: double block and break the shuffle
            flat = np.concatenate(toks.to_numpy()).astype(object)
            doc = np.repeat(np.arange(len(df)), toks.str.len().to_numpy())
            pairs = pd.DataFrame({"d": doc, "token": flat}).drop_duplicates()
            cnt = pairs["token"].value_counts()
        else:
            cnt = pd.Series([], dtype=np.int64)
        out = pd.DataFrame(
            {"token": cnt.index.astype(object), "df": cnt.to_numpy()}
        )
        out["_bkt"] = pd.util.hash_array(out["token"].to_numpy(dtype=object)) % B
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False).agg(df=("df", "sum"))
        return g.sort_values(
            ["df", "token"], ascending=[False, True], kind="mergesort"
        ).head(25)

    counts = (
        _docs(sf_dir)
        .select_columns(["text"])
        .map_batches(explode_df, batch_format="pandas")
        .groupby("_bkt")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    counts = counts.sort_values(
        ["df", "token"], ascending=[False, True], kind="mergesort"
    ).head(25)
    return counts.reset_index(drop=True)


SQL_DOC_FREQUENCY_DOCS = r"""
    SELECT token, count(*) AS df FROM (
        SELECT DISTINCT doc_id, token FROM (
            SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
            FROM documents WHERE trim(text) <> ''
        )
    )
    GROUP BY token
    ORDER BY df DESC, token ASC
    LIMIT 25
"""


def q_events_sliding_window(sf_dir: str):
    """Hopping-window aggregate (1h window, 30min hop): each event lands in
    two windows — Arrow-native combiner + bucketed merge
    (stages/windows.py hopping_window), the streaming-window shape Ray Data
    lacks natively."""
    from .stages.windows import hopping_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    return hopping_window(ds, width_minutes=60, hop_minutes=30)


SQL_EVENTS_SLIDING_WINDOW = """
    SELECT user_id, window_start, round(sum(value), 6) AS sum_value,
           count(*) AS n_events
    FROM (
        SELECT user_id, time_bucket(INTERVAL 30 MINUTES, ts) AS window_start, value
        FROM events
        UNION ALL
        SELECT user_id, time_bucket(INTERVAL 30 MINUTES, ts) - INTERVAL 30 MINUTES, value
        FROM events
    )
    GROUP BY user_id, window_start
"""


def q_events_sessionize(sf_dir: str):
    """Session windows (30-min inactivity gap) per user — stateful
    windowing resolved per hash bucket in one vectorized Arrow/numpy pass
    (stages/windows.py sessionize)."""
    from .stages.windows import sessionize

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    return sessionize(ds, gap_minutes=30)


SQL_EVENTS_SESSIONIZE = """
    WITH marked AS (
        SELECT user_id, ts, value,
               CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE OR lag(ts) OVER w IS NULL
                    THEN 1 ELSE 0 END AS new_sess
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    ), sess AS (
        SELECT *, sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts
                                      ROWS UNBOUNDED PRECEDING) AS sess_id
        FROM marked
    )
    SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
           count(*) AS n_events, round(sum(value), 6) AS sum_value
    FROM sess GROUP BY user_id, sess_id
"""


def q_training_pipeline_docs(sf_dir: str):
    """Composed curation pipeline (SQL-expressible prefix): quality + language
    filter then exact keep-first dedup — the deterministic head of
    pipelines.training_data."""
    from .pipelines.training_data import run_training_data

    kept, _metrics = run_training_data(augmented_docs(sf_dir), near_dedup=False)
    return kept.select_columns(["doc_id", "n_tokens", "lang"])


SQL_TRAINING_PIPELINE_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL}),
    q AS (
        SELECT doc_id, text, lang,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens,
               len(regexp_extract_all(text, '[0-9]')) /
                   greatest(length(text), 1)::DOUBLE AS digit_ratio
        FROM aug
    )
    SELECT doc_id, n_tokens, lang FROM q
    WHERE n_tokens >= 5 AND digit_ratio < 0.2 AND lang IN ('en', 'de', 'fr', 'es')
    QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
"""


def q_training_pipeline_full_docs(sf_dir: str):
    """Full curation pipeline incl. MinHash near-dedup over the oracle-planted
    near-dup corpus: the oracle keeps, per planted cluster, the smallest
    doc_id that SURVIVES the quality/language filters (QUALIFY over the
    arithmetic cluster key) — exactly the pipeline's filter -> exact dedup ->
    near-dedup keep-first composition."""
    from .pipelines.training_data import run_training_data

    kept, _metrics = run_training_data(augmented_near_docs(sf_dir), near_dedup=True)
    return kept.select_columns(["doc_id", "n_tokens", "lang"])


# the synthetic texts have constant 40 letter-only tokens (no digits), so the
# quality filter reduces to the language allowlist; copies share their base's
# lang, so per cluster either everyone passes (kept = min doc_id = base) or
# everyone fails — pure arithmetic
SQL_TRAINING_PIPELINE_FULL_DOCS = f"""
    WITH kept AS ({_NEAR_IDS_SQL})
    SELECT doc_id, {NEAR_TOKENS} AS n_tokens, lang FROM kept
    WHERE lang IN ('en', 'de', 'fr', 'es')
"""


def q_streaming_dedup_docs(sf_dir: str):
    """Incremental dedup through the sharded mutable index (raw-actor ST1
    variant): which row survives per text is processing-order-dependent, but
    the kept TEXT SET is exact — oracle = DISTINCT text."""
    from .stages.streaming import streaming_dedup_exact

    kept, _index = streaming_dedup_exact(
        augmented_docs(sf_dir), key_cols=("text",), n_shards=4, concurrency=2
    )
    return kept.select_columns(["text"])


SQL_STREAMING_DEDUP_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL})
    SELECT DISTINCT text FROM aug
"""


def q_streaming_quota_docs(sf_dir: str):
    """Streaming per-key quota (ingest-time per-domain cap through the
    sharded QuotaShard actors): WHICH rows survive is arrival-order-
    dependent, but the admitted COUNT per key is exactly min(count, n)
    under any order/concurrency — oracle = least(count(*), 10)."""
    from ray.data.aggregate import Count

    from .stages.streaming import streaming_cap

    kept, _index = streaming_cap(_docs(sf_dir), n=10, key_col="source", n_shards=4)
    return (
        kept.select_columns(["source"])
        .groupby("source")
        .aggregate(Count(alias_name="kept"))
        .to_pandas()
    )


SQL_STREAMING_QUOTA_DOCS = """
    SELECT source, least(count(*), 10) AS kept FROM documents GROUP BY source
"""


def q_streaming_neardup_docs(sf_dir: str):
    """Incremental MinHash NEAR-dedup through the sharded band-index actors
    (the streaming analogue of the flagship; which member of each planted
    cluster survives is processing-order-dependent, but the kept COUNT is
    exactly one per cluster — candidate recall between planted pairs is
    1 - 1e-10 by signature identity/agreement)."""
    from .stages.streaming import streaming_dedup_neardup

    kept, _index = streaming_dedup_neardup(
        augmented_near_docs(sf_dir), id_col="doc_id", concurrency=1
    )
    return pd.DataFrame({"kept": [kept.count()]})


SQL_STREAMING_NEARDUP_DOCS = f"""
    WITH kept AS ({_NEAR_IDS_SQL})
    SELECT count(*) AS kept FROM kept
"""


def q_topk_per_lang_docs(sf_dir: str):
    """Windowed rank: top-3 docs per language by (n_chars desc, doc_id) —
    grouped top-k via ONE bucketed vectorized pass (no per-group Python)."""
    from .stages.exchange import default_shuffle_buckets

    B = default_shuffle_buckets()
    ds = _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # in-batch combiner: only each batch's top-3 per lang can win globally
        df = df.sort_values(["lang", "n_chars", "doc_id"], ascending=[True, False, True])
        df = df.groupby("lang", sort=False).head(3)
        df = df.copy()
        df["_bkt"] = pd.util.hash_array(df["lang"].to_numpy(dtype=object)) % B
        return df

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lang", "n_chars", "doc_id"], ascending=[True, False, True])
        out = df.groupby("lang", sort=False).head(3).drop(columns=["_bkt"])
        out = out.copy()
        out["rank"] = out.groupby("lang", sort=False).cumcount() + 1
        return out

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bkt")
        .map_groups(topk, batch_format="pandas")
    )


SQL_TOPK_PER_LANG_DOCS = """
    SELECT doc_id, lang, n_chars, rank FROM (
        SELECT doc_id, lang, n_chars,
               row_number() OVER (PARTITION BY lang
                                  ORDER BY n_chars DESC, doc_id ASC) AS rank
        FROM documents
    ) WHERE rank <= 3
"""


def q_broadcast_join_customer_nation(sf_dir: str):
    """Broadcast dimension join: nation (25 rows) shipped once via ray.put,
    applied as a map-side lookup — zero shuffle (vs a hash join moving both
    sides). The canonical small-side pattern at 100 TB."""
    import pyarrow.parquet as pq

    import ray as _ray

    from .stages.exchange import fetch_cached

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ref = _ray.put(nation)
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        lut = fetch_cached(ref, lambda t: dict(zip(t["n_nationkey"].to_pylist(), t["n_name"].to_pylist())))
        out = df.copy()
        out["n_name"] = out["c_nationkey"].map(lut)
        return out[["c_custkey", "c_nationkey", "n_name"]]

    return cust.map_batches(attach, batch_format="pandas")


SQL_BROADCAST_JOIN_CUSTOMER_NATION = """
    SELECT c.c_custkey, c.c_nationkey, n.n_name
    FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
"""


# ------------------------------------------------------------- set ops / sort

def q_set_intersect_docs(sf_dir: str):
    """Intersect-by-key (SURVEY.md 2.7: the --unordered merge doubles as
    intersect): texts present in BOTH the short-doc and en-lang subsets —
    one bucketed exchange with side tags (stages/setops.py)."""
    from .stages.setops import keyed_set_op

    ds = _docs(sf_dir)
    short = ds.filter(expr="n_chars < 200").select_columns(["text"])
    en = ds.filter(expr="lang == 'en'").select_columns(["text"])
    return keyed_set_op(short, en, "intersect")


SQL_SET_INTERSECT_DOCS = """
    SELECT text FROM documents WHERE n_chars < 200
    INTERSECT
    SELECT text FROM documents WHERE lang = 'en'
"""


def q_set_except_docs(sf_dir: str):
    """Except-by-key (counted anti-join residue analogue): short-doc texts
    NOT in the en-lang subset (stages/setops.py)."""
    from .stages.setops import keyed_set_op

    ds = _docs(sf_dir)
    short = ds.filter(expr="n_chars < 200").select_columns(["text"])
    en = ds.filter(expr="lang == 'en'").select_columns(["text"])
    return keyed_set_op(short, en, "except")


SQL_SET_EXCEPT_DOCS = """
    SELECT text FROM documents WHERE n_chars < 200
    EXCEPT
    SELECT text FROM documents WHERE lang = 'en'
"""


def q_sort_topn_docs(sf_dir: str):
    """Distributed sort + limit (SURVEY.md O1: the external merge sort's Ray
    analogue — sample -> range partition -> per-partition sort)."""
    out = (
        _docs(sf_dir)
        .select_columns(["doc_id", "n_chars", "lang"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(100)
    )
    return out


SQL_SORT_TOPN_DOCS = """
    SELECT doc_id, n_chars, lang FROM documents
    ORDER BY n_chars DESC, doc_id ASC LIMIT 100
"""


def q_range_join_events_sessions(sf_dir: str):
    """Range (interval) join: each event matched back to its session window
    (sessions from the 30-min-gap sessionizer; intervals are per-user
    non-overlapping, so every event matches exactly once)."""
    from .stages.rangejoin import range_join

    sessions = q_events_sessionize(sf_dir)
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    out = range_join(
        ev, sessions, key="user_id", left_time="ts",
        right_lo="session_start", right_hi="session_end", left_cols=("event_id",),
    )
    return out.select_columns(["event_id", "user_id", "ts", "session_start", "session_end"])


SQL_RANGE_JOIN_EVENTS_SESSIONS = f"""
    WITH sess AS ({SQL_EVENTS_SESSIONIZE})
    SELECT e.event_id, e.user_id, e.ts, s.session_start, s.session_end
    FROM events e JOIN sess s
      ON e.user_id = s.user_id
     AND e.ts >= s.session_start AND e.ts <= s.session_end
"""


def q_asof_join_events_orders(sf_dir: str):
    """Backward as-of join: each event matched to the customer's most recent
    order at-or-before the event time (hash-co-partitioned merge_asof)."""
    from .stages.asof import asof_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    od = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"])
    out = asof_join(
        ev, od, key="user_id", left_time="ts", right_time="o_orderdate",
        right_key="o_custkey", left_cols=("event_id",),
    )
    return out.select_columns(["event_id", "user_id", "ts", "o_orderdate"])


SQL_ASOF_JOIN_EVENTS_ORDERS = """
    SELECT e.event_id, e.user_id, e.ts, o.o_orderdate
    FROM events e ASOF JOIN orders o
      ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


# ------------------------------------------------------------------------ joins

def q_join_orders_customer(sf_dir: str):
    """Keyed inner join with first-per-key semantics (--unordered, SURVEY.md J1)."""
    from .stages.join import join_unordered

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    cust = cust.rename_columns({"c_custkey": "key"})
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    ).rename_columns({"o_custkey": "key"})
    res = join_unordered(cust, orders, key="key", order_cols=("o_orderkey",))
    return res.pairs.select_columns(["key", "c_name", "o_orderkey", "o_totalprice"])


SQL_JOIN_ORDERS_CUSTOMER = """
    SELECT c.c_custkey AS key, c.c_name, o.o_orderkey, o.o_totalprice
    FROM customer c
    JOIN (SELECT * FROM orders
          QUALIFY row_number() OVER (PARTITION BY o_custkey ORDER BY o_orderkey) = 1) o
      ON c.c_custkey = o.o_custkey
"""


def q_anti_join_customers_orders(sf_dir: str):
    """Anti-join emitting rows (J1's unmatch_reads residue as data, not a
    count): customers with no HIGH-VALUE order (every synthetic customer has
    some order, so the right side is filtered to make the residue real).
    One ``semi_filter`` gate: a broadcast key-set filter at this scale, a
    ``cogroup`` of the rows with the keys above its budget. Result is collected to Arrow: Ray's
    ``to_pandas`` drops the schema of an all-empty dataset, and an anti-join
    is exactly the query shape that can legitimately return zero rows."""
    import ray

    from .stages.join import anti_join

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).filter(expr="o_totalprice > 250000")
    orders = orders.rename_columns({"o_custkey": "c_custkey"})
    res = anti_join(cust, orders, key="c_custkey")
    tabs = [t for t in ray.get(res.materialize().to_arrow_refs()) if t.num_rows > 0]
    if tabs:
        return pa.concat_tables(tabs).select(["c_custkey", "c_name"])
    return pa.table({"c_custkey": pa.array([], pa.int64()), "c_name": pa.array([], pa.string())})


SQL_ANTI_JOIN_CUSTOMERS_ORDERS = """
    SELECT c_custkey, c_name FROM customer c
    WHERE NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 250000)
"""


def q_join_unmatched_counts(sf_dir: str):
    """Matched/unmatched accounting of the unordered join (unmatch_reads)."""
    from .stages.join import join_unordered

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    cust = cust.rename_columns({"c_custkey": "key"})
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey"]
    ).rename_columns({"o_custkey": "key"})
    res = join_unordered(cust, orders, key="key", order_cols=("o_orderkey",))
    return pd.DataFrame(
        {
            "matched": [res.matched],
            "unmatched": [res.unmatched],
            "left_total": [res.left_total],
            "right_total": [res.right_total],
        }
    )


SQL_JOIN_UNMATCHED_COUNTS = """
    WITH l AS (SELECT DISTINCT c_custkey AS key FROM customer),
         r AS (SELECT DISTINCT o_custkey AS key FROM orders),
         m AS (SELECT count(*) AS matched FROM l JOIN r USING (key))
    SELECT m.matched,
           (SELECT count(*) FROM l) + (SELECT count(*) FROM r) - 2 * m.matched AS unmatched,
           (SELECT count(*) FROM l) AS left_total,
           (SELECT count(*) FROM r) AS right_total
    FROM m
"""


def q_unordered_join_dedup_docs(sf_dir: str):
    """The CLI paired path end-to-end (reference EP2 PE --fast --unordered):
    unordered id-join — both sides carry a clashing ``text`` column so the
    join suffixes them _l/_r exactly like ``python -m fastq_dupaway_ray -u``
    — then composite keep-first dedup over BOTH mates. Planted exact copies
    (augmented left side) are dropped; every doc_id % 5 == 1 is missing on
    the right (unmatched residue exercised)."""
    from .stages.dedup_exact import dedup_exact
    from .stages.join import join_unordered

    aug = augmented_docs(sf_dir)
    left = aug.select_columns(["doc_id", "text"])

    def right_side(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        m = t.filter(pa.array(ids % 5 != 1))
        return pa.table(
            {"doc_id": m["doc_id"], "text": m["lang"].cast(pa.string()).combine_chunks()}
        )

    right = aug.select_columns(["doc_id", "lang"]).map_batches(right_side, batch_format="pyarrow")
    jr = join_unordered(left, right, key="doc_id", order_cols=("doc_id",))
    kept = dedup_exact(jr.pairs, key_cols=("text_l", "text_r"), order_cols=("doc_id",))
    return kept.select_columns(["doc_id", "text_l", "text_r"])


SQL_UNORDERED_JOIN_DEDUP_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL}),
    l AS (SELECT doc_id, text FROM aug),
    r AS (SELECT doc_id, lang AS text FROM aug WHERE doc_id % 5 != 1),
    j AS (SELECT l.doc_id, l.text AS text_l, r.text AS text_r FROM l JOIN r USING (doc_id))
    SELECT doc_id, text_l, text_r FROM j
    QUALIFY row_number() OVER (PARTITION BY text_l, text_r ORDER BY doc_id) = 1
"""


# ---------------------------------------------------------------- text analysis

def q_token_counts_docs(sf_dir: str):
    """Whitespace token counting (training-data text analysis)."""
    from .functions.textstats import token_count_ws

    def add(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "n_tokens": token_count_ws(t["text"])})

    return _docs(sf_dir).map_batches(add, batch_format="pyarrow")


def q_token_counts_bpe_docs(sf_dir: str):
    """BPE-ish token counting (regex word/number/punct pieces) — the subword
    token estimator; oracle mirrors the same regex in DuckDB."""
    from .functions.textstats import token_count_bpe

    def add(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_bpe_tokens": token_count_bpe(df["text"].to_numpy(dtype=object)),
            }
        )

    return _docs(sf_dir).map_batches(add, batch_format="pandas")


SQL_TOKEN_COUNTS_BPE_DOCS = r"""
    SELECT doc_id,
           len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS n_bpe_tokens
    FROM documents
"""


SQL_TOKEN_COUNTS_DOCS = r"""
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN 0
                ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
    FROM documents
"""


def q_quality_scores_docs(sf_dir: str):
    """Quality scoring features (length/punct/digit ratios)."""
    from .functions.textstats import quality_features

    def add(t: pa.Table) -> pa.Table:
        out = quality_features(t)
        return out.select(["doc_id", "n_chars", "n_tokens", "punct_ratio", "digit_ratio"])

    # documents has its own n_chars column; recompute under the same name and
    # keep ours (drop the input column first to avoid ambiguity)
    ds = _docs(sf_dir).drop_columns(["n_chars"])
    return ds.map_batches(add, batch_format="pyarrow")


SQL_QUALITY_SCORES_DOCS = r"""
    SELECT doc_id,
           length(text) AS n_chars,
           CASE WHEN trim(text) = '' THEN 0
                ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens,
           len(regexp_extract_all(text, '[\.,;:!\?\-''"()\[\]]')) /
               greatest(length(text), 1)::DOUBLE AS punct_ratio,
           len(regexp_extract_all(text, '[0-9]')) /
               greatest(length(text), 1)::DOUBLE AS digit_ratio
    FROM documents
"""


def q_repetition_docs(sf_dir: str):
    """Per-doc duplicate word-trigram repetition signal (the Gopher /
    RefinedWeb dup-ngram quality rule): n_trigrams and 1 - distinct/total.
    Batch-vectorized (one flatten + hash + lexsort per batch); the SQL oracle
    replays the identical arithmetic on exploded trigram strings."""
    from .functions.textstats import dup_trigram_stats

    def add(t: pa.Table) -> pa.Table:
        total, frac = dup_trigram_stats(t["text"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_trigrams": pa.array(total, pa.int64()),
                "dup_trigram_frac": pa.array(frac, pa.float64()),
            }
        )

    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        add, batch_format="pyarrow"
    )


SQL_REPETITION_DOCS = r"""
    WITH toks AS (
        SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS a
        FROM documents
    ), tri AS (
        SELECT doc_id, a[i] || ' ' || a[i + 1] || ' ' || a[i + 2] AS g
        FROM toks, unnest(generate_series(1, len(a) - 2)) AS t(i)
        WHERE len(a) >= 3
    ), s AS (
        SELECT doc_id, count(*) AS n_tri, count(DISTINCT g) AS n_dist
        FROM tri GROUP BY doc_id
    )
    SELECT d.doc_id,
           coalesce(s.n_tri, 0) AS n_trigrams,
           coalesce(1.0 - s.n_dist / s.n_tri::DOUBLE, 0.0) AS dup_trigram_frac
    FROM documents d LEFT JOIN s USING (doc_id)
"""


# ----------------------------------------------------- cross-corpus dedup

_XC_COPY_MOD = 3
_XC_COPY_OFFSET = 1_000_000
_XC_FRESH_OFFSET = 2_000_000
_XC_FRESH_SUFFIX = " fresh"


def _cross_b_docs(sf_dir: str) -> rd.Dataset:
    """Corpus B for cross-dedup: exact copies of every 3rd reference doc
    (contamination) ∪ fresh variants of all docs (clean)."""

    def build(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        if len(ids) and ids.max() >= _XC_COPY_OFFSET:
            raise ValueError(
                "_cross_b_docs planted-id offsets collide past 1M base docs"
            )
        copy = t.filter(pa.array(ids % _XC_COPY_MOD == 0))
        copy = copy.set_column(0, "doc_id", pc.add(copy["doc_id"], _XC_COPY_OFFSET))
        fresh_text = pc.binary_join_element_wise(
            t["text"].combine_chunks(), pa.scalar(_XC_FRESH_SUFFIX), ""
        )
        fresh = t.set_column(0, "doc_id", pc.add(t["doc_id"], _XC_FRESH_OFFSET))
        fresh = fresh.set_column(fresh.schema.get_field_index("text"), "text", fresh_text)
        fresh = fresh.set_column(
            fresh.schema.get_field_index("n_chars"),
            "n_chars",
            pc.add(fresh["n_chars"], len(_XC_FRESH_SUFFIX)),
        )
        return pa.concat_tables([copy, fresh])

    return _docs(sf_dir).map_batches(build, batch_format="pyarrow")


def q_cross_dedup_exact_docs(sf_dir: str):
    """Cross-corpus EXACT dedup: drop corpus-B rows whose content identity
    appears in the reference corpus (adding a new crawl to a curated
    dataset). Slim identity ``cogroup`` of both corpora -> contaminated-identity
    drop set broadcast -> one streaming filter; payload-exchange fallback
    above budget (stages/crossdedup.py)."""
    from .stages.crossdedup import cross_dedup_exact

    return cross_dedup_exact(_cross_b_docs(sf_dir), _docs(sf_dir), key_cols=("text",))


SQL_CROSS_DEDUP_EXACT_DOCS = f"""
    WITH b AS (
        SELECT doc_id + {_XC_COPY_OFFSET} AS doc_id, text, lang, source, n_chars
        FROM documents WHERE doc_id % {_XC_COPY_MOD} = 0
        UNION ALL
        SELECT doc_id + {_XC_FRESH_OFFSET}, text || '{_XC_FRESH_SUFFIX}', lang, source,
               n_chars + {len(_XC_FRESH_SUFFIX)}
        FROM documents
    )
    SELECT b.* FROM b
    WHERE NOT EXISTS (SELECT 1 FROM documents a WHERE a.text = b.text)
"""


def q_cross_dedup_near_docs(sf_dir: str):
    """Cross-corpus NEAR dedup (MinHash/LSH): corpus-B docs sharing a
    verified near-dup cluster with a reference doc are dropped; B-internal
    near-pairs survive (that is the within-corpus pipeline's job). Planted
    classes on the synthesized near-corpus (see the near-dup section
    comment): exact + above-threshold copies drop, reversed + fresh +
    B-internal pairs keep — pure doc_id arithmetic for the oracle."""
    from .stages.crossdedup import cross_dedup_minhash

    ref = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def build_a(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": pa.array([_near_text(int(i)) for i in ids], pa.string()),
            }
        )

    def build_b(t: pa.Table) -> pa.Table:
        # class code folded into doc_id*10 + c: collision-free at ANY corpus
        # size (additive offsets collide across classes past ~1M base docs —
        # e.g. 65+5e6 == 1,000,065+4e6 — silently diverging engine vs oracle)
        ids = t["doc_id"].to_numpy()
        # fresh/B-internal texts use additive _near_text offsets (+7M/+8M);
        # past 1M base docs the two families overlap (i1+7M == i2+8M at
        # i1 = i2+1M) and past 7M a "fresh" text equals a reference doc's —
        # either silently diverges engine vs oracle, so fail loud instead
        # (same style as the multiplicative id-fold guard above)
        if len(ids) and int(ids.max()) >= 1_000_000:
            raise ValueError(
                f"cross_dedup_near oracle corpus needs doc_id < 1e6 to keep "
                f"the +7M/+8M fresh-text families collision-free, got "
                f"max={ids.max()}"
            )
        out_ids, out_texts = [], []
        for i in ids:
            i = int(i)
            base = _near_text(i)
            if i % NEAR_EXACT_MOD == 0:
                out_ids.append(i * 10 + 1); out_texts.append(base)
            if i % NEAR_ABOVE_MOD == 0:
                out_ids.append(i * 10 + 2); out_texts.append(base + NEAR_MARKER)
            if i % NEAR_BELOW_MOD == 0:
                out_ids.append(i * 10 + 3); out_texts.append(base[::-1])
            out_ids.append(i * 10 + 4); out_texts.append(_near_text(i + 7_000_000))
            if i % 17 == 0:  # B-internal near pair: both must survive
                t8 = _near_text(i + 8_000_000)
                out_ids.append(i * 10 + 5); out_texts.append(t8)
                out_ids.append(i * 10 + 6); out_texts.append(t8 + NEAR_MARKER)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    a = ref.map_batches(build_a, batch_format="pyarrow")
    b = ref.map_batches(build_b, batch_format="pyarrow")
    kept = cross_dedup_minhash(b, a, id_col="doc_id", text_col="text")
    return kept.select_columns(["doc_id"])


SQL_CROSS_DEDUP_NEAR_DOCS = f"""
    SELECT doc_id * 10 + 3 AS doc_id
    FROM documents WHERE doc_id % {NEAR_BELOW_MOD} = 0
    UNION ALL
    SELECT doc_id * 10 + 4 FROM documents
    UNION ALL
    SELECT doc_id * 10 + 5 FROM documents WHERE doc_id % 17 = 0
    UNION ALL
    SELECT doc_id * 10 + 6 FROM documents WHERE doc_id % 17 = 0
"""


# --------------------------------------------------- paragraph-level corpus

_PARA_SEP = "\n\n"

# doc i's paragraphs are the TEXTS of other documents picked by modular
# arithmetic — cross-doc duplicate paragraphs are planted by construction
# (each pool text appears as a paragraph of ~2-3 docs, boilerplate-style)
# and the SQL oracle rebuilds the identical corpus with self-joins
_PARA_CORPUS_SQL = """
    WITH nn AS (SELECT max(doc_id) + 1 AS n FROM documents),
    paras AS (
        SELECT i.doc_id, i.lang, i.source, 0 AS pos, p.text AS para
        FROM documents i CROSS JOIN nn
        JOIN documents p ON p.doc_id = (i.doc_id * 7 + 1) % nn.n
        UNION ALL
        SELECT i.doc_id, i.lang, i.source, 1, p.text
        FROM documents i CROSS JOIN nn
        JOIN documents p ON p.doc_id = (i.doc_id * 13 + 5) % nn.n
        UNION ALL
        SELECT i.doc_id, i.lang, i.source, 2, p.text
        FROM documents i CROSS JOIN nn
        JOIN documents p ON p.doc_id = (i.doc_id * 29 + 11) % nn.n
        WHERE i.doc_id % 3 = 0
    )
"""


def _dense_text_pool(sf_dir: str) -> np.ndarray:
    """documents' texts as an array indexed BY doc_id VALUE, with a loud
    guard that the ids are dense AND unique 0..N-1 (file order is not id
    order, and a duplicated id would leave a None slot that downstream
    joins/encodings would hit far from the cause). Shared by the
    paragraph-corpus and 10k-needle oracle builders — test-scale
    scaffolding, not a pipeline stage."""
    import pyarrow.parquet as pq

    pool_t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pool_ids = pool_t["doc_id"].to_numpy()
    n_pool = len(pool_ids)
    if (
        n_pool == 0
        or int(pool_ids.min()) != 0
        or int(pool_ids.max()) != n_pool - 1
        or len(np.unique(pool_ids)) != n_pool
    ):
        raise ValueError(
            f"need dense unique doc_ids 0..N-1, got "
            f"[{pool_ids.min() if n_pool else '-'}, "
            f"{pool_ids.max() if n_pool else '-'}] over {n_pool} rows"
        )
    pool = np.empty(n_pool, dtype=object)
    pool[pool_ids] = pool_t["text"].to_numpy(zero_copy_only=False).astype(object)
    return pool


def paragraph_docs(sf_dir: str) -> rd.Dataset:
    """Deterministic multi-paragraph corpus over the documents table.

    Doc i = pool[(7i+1)%N] ⊕ pool[(13i+5)%N] (⊕ pool[(29i+11)%N] when i%3==0),
    joined by blank lines, where pool is the documents' own texts (none of
    which contain a newline — verified property of the driver corpus, so the
    engine's split on the separator recovers exactly these paragraphs).
    Oracle scaffolding like :func:`augmented_near_docs`: the pool broadcast is
    test-scale machinery, not a pipeline stage.
    """
    import ray

    import pyarrow.parquet as pq

    pool = _dense_text_pool(sf_dir)
    n_pool = len(pool)
    pool_ref = ray.put(pool)

    def build(t: pa.Table) -> pa.Table:
        from .stages.exchange import fetch_cached

        pool = fetch_cached(pool_ref)
        ids = t["doc_id"].to_numpy()
        p0 = pool[(ids * 7 + 1) % n_pool]
        p1 = pool[(ids * 13 + 5) % n_pool]
        p2 = pool[(ids * 29 + 11) % n_pool]
        texts = p0 + _PARA_SEP + p1
        has3 = ids % 3 == 0
        texts[has3] = texts[has3] + _PARA_SEP + p2[has3]
        ta = pa.array(texts, pa.string())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": ta,
                "lang": t["lang"],
                "source": t["source"],
                "n_chars": pc.utf8_length(ta).cast(pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(build, batch_format="pyarrow")


def q_paragraph_dedup_docs(sf_dir: str):
    """Corpus-wide keep-first PARAGRAPH dedup (CCNet / RefinedWeb-style):
    the first occurrence of each exact paragraph survives, later occurrences
    are removed from their documents, documents are rebuilt from the
    survivors (dropped entirely when nothing survives). Drop-set dual of
    dedup_exact — document text never enters a shuffle on the default limb
    (stages/paradedup.py)."""
    from .stages.paradedup import paragraph_dedup

    return paragraph_dedup(
        paragraph_docs(sf_dir), id_cols=("doc_id",), sep=_PARA_SEP
    )


SQL_PARAGRAPH_DEDUP_DOCS = f"""
    {_PARA_CORPUS_SQL},
    kept AS (
        SELECT * FROM paras
        QUALIFY row_number() OVER (PARTITION BY para ORDER BY doc_id, pos) = 1
    )
    SELECT doc_id,
           string_agg(para, chr(10) || chr(10) ORDER BY pos) AS text,
           any_value(lang) AS lang,
           any_value(source) AS source,
           length(string_agg(para, chr(10) || chr(10) ORDER BY pos)) AS n_chars
    FROM kept GROUP BY doc_id
"""


def q_line_repetition_docs(sf_dir: str):
    """Per-doc duplicate-LINE repetition signal (the Gopher line-level
    quality rule, companion to repetition_docs' trigram fraction): fraction
    of lines repeating an earlier line of the same doc, and the character
    mass inside those repeats. Batch-vectorized (one Arrow split + one
    hashtable pass per batch)."""
    from .functions.textstats import dup_line_stats

    def add(t: pa.Table) -> pa.Table:
        n, f, cf = dup_line_stats(t["text"], sep=_PARA_SEP)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_lines": pa.array(n, pa.int64()),
                "dup_line_frac": pa.array(f, pa.float64()),
                "dup_line_char_frac": pa.array(cf, pa.float64()),
            }
        )

    return paragraph_docs(sf_dir).map_batches(add, batch_format="pyarrow")


SQL_LINE_REPETITION_DOCS = f"""
    {_PARA_CORPUS_SQL},
    m AS (
        SELECT doc_id, para, pos,
               row_number() OVER (PARTITION BY doc_id, para ORDER BY pos) AS rn
        FROM paras
    )
    SELECT doc_id,
           count(*) AS n_lines,
           sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) / count(*)::DOUBLE
               AS dup_line_frac,
           CASE WHEN sum(length(para)) = 0 THEN 0.0
                ELSE sum(CASE WHEN rn > 1 THEN length(para) ELSE 0 END)
                     / sum(length(para))::DOUBLE
           END AS dup_line_char_frac
    FROM m GROUP BY doc_id
"""


def q_dedup_lines_within_docs(sf_dir: str):
    """WITHIN-document line dedup (removal twin of line_repetition_docs):
    repeats of an earlier line of the same doc are removed, text rebuilt.
    Pure map — zero shuffles at any corpus size (stages/paradedup.py)."""
    from .stages.paradedup import dedup_lines_within

    return dedup_lines_within(paragraph_docs(sf_dir), sep=_PARA_SEP)


SQL_DEDUP_LINES_WITHIN_DOCS = f"""
    {_PARA_CORPUS_SQL},
    kept AS (
        SELECT * FROM paras
        QUALIFY row_number() OVER (PARTITION BY doc_id, para ORDER BY pos) = 1
    )
    SELECT doc_id,
           string_agg(para, chr(10) || chr(10) ORDER BY pos) AS text,
           any_value(lang) AS lang,
           any_value(source) AS source,
           length(string_agg(para, chr(10) || chr(10) ORDER BY pos)) AS n_chars
    FROM kept GROUP BY doc_id
"""


def q_cap_per_source_docs(sf_dir: str):
    """Per-source quota cap (RefinedWeb-style per-domain budget): keep each
    source's 10 smallest doc_ids. Combiner + slim threshold exchange +
    broadcast filter — the hot-key-safe shape (stages/quota.py)."""
    from .stages.quota import cap_per_key

    ds = _docs(sf_dir).select_columns(["doc_id", "source"])
    return cap_per_key(ds, key_col="source", order_col="doc_id", n=10)


SQL_CAP_PER_SOURCE_DOCS = """
    SELECT doc_id, source FROM (
        SELECT doc_id, source,
               row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
        FROM documents
    ) WHERE rn <= 10
"""


_TOKEN_BUDGET_PER_SOURCE = 5_000


def q_cap_budget_per_source_docs(sf_dir: str):
    """Per-source TOKEN budget (the RefinedWeb form: each source buys a
    character/token allowance, not a row count): keep each source's docs in
    doc_id order while the cumulative n_chars stays within the budget.
    Combiner prunes to could-fit rows + one cutoff marker per key per
    block; slim threshold exchange; broadcast filter
    (stages/quota.py cap_per_key_budget)."""
    from .stages.quota import cap_per_key_budget

    ds = _docs(sf_dir).select_columns(["doc_id", "source", "n_chars"])
    out = cap_per_key_budget(
        ds,
        key_col="source",
        order_col="doc_id",
        weight_col="n_chars",
        budget=_TOKEN_BUDGET_PER_SOURCE,
    )
    return out.select_columns(["doc_id", "source"])


SQL_CAP_BUDGET_PER_SOURCE_DOCS = f"""
    SELECT doc_id, source FROM (
        SELECT doc_id, source,
               sum(n_chars) OVER (PARTITION BY source ORDER BY doc_id
                                  ROWS UNBOUNDED PRECEDING) AS cum
        FROM documents
    ) WHERE cum <= {_TOKEN_BUDGET_PER_SOURCE}
"""


def q_unigram_logprob_docs(sf_dir: str):
    """Corpus-trained unigram LM score (CCNet-style quality signal): mean
    ln p(token) per document, p = corpus token frequency. Vocab built with
    a distinct-token combiner + token-owned bucket exchange, broadcast
    once; the corpus streams through a single scoring pass
    (stages/lmscore.py; top_vocab caps the table with a pooled OOV mass at
    web scale — full vocab here for the exact oracle)."""
    from .stages.lmscore import unigram_logprob_scores

    return unigram_logprob_scores(_docs(sf_dir), id_cols=("doc_id",))


SQL_UNIGRAM_LOGPROB_DOCS = r"""
    WITH toks AS (
        SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS token
        FROM documents WHERE trim(text) <> ''
    ),
    tf AS (SELECT token, count(*) AS c FROM toks GROUP BY token),
    tot AS (SELECT sum(c)::DOUBLE AS t FROM tf)
    SELECT doc_id, round(avg(ln(c / t)), 6) AS logprob
    FROM toks JOIN tf USING (token) CROSS JOIN tot
    GROUP BY doc_id
"""


_SAMPLE_FRACTIONS = {"en": 0.5, "de": 0.2}
_SAMPLE_DEFAULT = 0.1


def q_sample_per_lang_docs(sf_dir: str):
    """Deterministic stratified sampling (the data-mixing primitive): keep
    50% of en, 20% of de, 10% of everything else, by the repo's md5 id-hash
    rule — stable under re-runs, resharding and retries, zero shuffles
    (stages/sampling.py)."""
    from .stages.sampling import stratified_sample

    ds = _docs(sf_dir).select_columns(["doc_id", "lang"])
    return stratified_sample(
        ds, strata_col="lang", fractions=_SAMPLE_FRACTIONS, default=_SAMPLE_DEFAULT
    )


def _sample_per_lang_sql() -> str:
    from .stages.sampling import stratified_sample_sql_case

    pred = stratified_sample_sql_case("lang", _SAMPLE_FRACTIONS, _SAMPLE_DEFAULT)
    return f"SELECT doc_id, lang FROM documents WHERE {pred}"


_DUPSPAN_K = 30


def q_dup_span_stats_docs(sf_dir: str):
    """Cross-document duplicate-SPAN mass (Lee et al. substring-dedup
    detector): per doc, how many of its 30-char windows occur in at least
    one OTHER document, and the fraction of the doc that is. Exact 128-bit
    window identities, two slim exchanges, text never shuffles
    (stages/dupspans.py)."""
    from .stages.dupspans import dup_span_stats

    return dup_span_stats(_docs(sf_dir), k=_DUPSPAN_K)


SQL_DUP_SPAN_STATS_DOCS = f"""
    WITH mx AS (SELECT max(length(text)) AS m FROM documents),
    idx AS (SELECT i FROM (SELECT unnest(range(1, (SELECT m FROM mx) + 1)) AS i)),
    w AS (
        SELECT d.doc_id, substr(d.text, idx.i::INT, {_DUPSPAN_K}) AS win
        FROM documents d JOIN idx ON idx.i <= length(d.text) - {_DUPSPAN_K} + 1
    ),
    dupw AS (SELECT win FROM w GROUP BY win HAVING count(DISTINCT doc_id) >= 2)
    SELECT doc_id,
           count(*) AS n_windows,
           count(*) FILTER (WHERE win IN (SELECT win FROM dupw)) AS n_dup_windows,
           round(count(*) FILTER (WHERE win IN (SELECT win FROM dupw))::DOUBLE
                 / count(*), 6) AS dup_fraction
    FROM w GROUP BY doc_id
"""


def q_remove_dup_spans_docs(sf_dir: str):
    """Surgical cross-document duplicate-span REMOVAL (the Lee et al.
    operation): every character covered by a 30-char window whose text also
    occurs in a smaller-id document is excised; the first doc keeps its
    copy, within-doc repeats untouched, rows never dropped
    (stages/dupspans.py remove_dup_spans; rounds= bounds exchange memory at
    scale)."""
    from .stages.dupspans import remove_dup_spans

    out = remove_dup_spans(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        k=_DUPSPAN_K,
        recount_col=None,
    )
    return out.select_columns(["doc_id", "text", "n_removed_chars"])


_URL_VARIANTS_PY = [
    "https://docs.example/page/{p}",
    "HTTPS://DOCS.Example:443/page/{p}#section",
    "https://docs.example/page/{p}?utm_source=feed",
    "https://docs.example/page/{p}?ref=1&utm_campaign=x",
    "https://docs.example/page/{p}?ref=1",
    "https://docs.example:443/page/{p}?utm_medium=m&ref=1",
]


def q_url_canonical_dedup_docs(sf_dir: str):
    """Canonical-URL dedup — the Common-Crawl step before any content pass:
    messy crawl URLs (case/default-port/fragment/tracking-param variants,
    built deterministically from doc_id; two consecutive ids share one
    logical page) normalize through ``functions.urlnorm`` (RE2 rule chain,
    byte-identical to the SQL oracle's regexp_replace chain by
    construction) and dedup keep-first by doc_id on the canonical form via
    the standard slim-identity exact-dedup stage."""
    import pyarrow as _pa

    from .functions.urlnorm import normalize_urls
    from .stages.dedup_exact import dedup_exact

    def build(t: _pa.Table) -> _pa.Table:
        import numpy as _np

        ids = t["doc_id"].to_numpy()
        pages = ids // 2
        variant = ids % 6
        urls = _np.empty(len(ids), dtype=object)
        for v, tpl in enumerate(_URL_VARIANTS_PY):
            m = variant == v
            urls[m] = [tpl.format(p=p) for p in pages[m]]
        canon = normalize_urls(_pa.array(urls, _pa.string()))
        return _pa.table({"doc_id": t["doc_id"], "url_canon": canon})

    messy = _docs(sf_dir).select_columns(["doc_id"]).map_batches(
        build, batch_format="pyarrow"
    )
    kept = dedup_exact(messy, key_cols=("url_canon",), order_cols=("doc_id",))
    return kept.select_columns(["doc_id", "url_canon"])


def _url_canonical_sql() -> str:
    from .functions.urlnorm import sql_normalize_expr

    cases = " ".join(
        f"WHEN {v} THEN '{tpl.split('{p}')[0]}' || (doc_id // 2)::VARCHAR || '{tpl.split('{p}')[1]}'"
        for v, tpl in enumerate(_URL_VARIANTS_PY)
    )
    return f"""
    WITH u AS (
        SELECT doc_id, CASE doc_id % 6 {cases} END AS url FROM documents
    ),
    c AS (SELECT doc_id, {sql_normalize_expr('url')} AS url_canon FROM u)
    SELECT doc_id, url_canon FROM c
    QUALIFY row_number() OVER (PARTITION BY url_canon ORDER BY doc_id) = 1
    """


def q_remove_dup_spans_prefilter_docs(sf_dir: str):
    """remove_dup_spans through the stats-prefiltered limb: clean docs
    (zero duplicated windows -> all their windows globally unique) are
    excluded from the removal exchange entirely, which is EXACT — singleton
    window groups can neither receive cuts nor shift a group minimum — and
    sizes the exchange by duplicated mass (stages/dupspans.py)."""
    from .stages.dupspans import remove_dup_spans

    out = remove_dup_spans(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        k=_DUPSPAN_K,
        recount_col=None,
        prefilter=True,
    )
    return out.select_columns(["doc_id", "text", "n_removed_chars"])


SQL_REMOVE_DUP_SPANS_DOCS = f"""
    WITH mx AS (SELECT max(length(text)) AS m FROM documents),
    idx AS (SELECT i FROM (SELECT unnest(range(1, (SELECT m FROM mx) + 1)) AS i)),
    w AS (
        SELECT d.doc_id, idx.i AS j, substr(d.text, idx.i::INT, {_DUPSPAN_K}) AS win
        FROM documents d JOIN idx ON idx.i <= length(d.text) - {_DUPSPAN_K} + 1
    ),
    firstdoc AS (SELECT win, min(doc_id) AS fd FROM w GROUP BY win),
    cutw AS (SELECT w.doc_id, w.j FROM w JOIN firstdoc f ON w.win = f.win
             WHERE f.fd < w.doc_id),
    pos AS (
        SELECT d.doc_id, idx.i AS p FROM documents d JOIN idx ON idx.i <= length(d.text)
    ),
    cut AS (
        SELECT DISTINCT p.doc_id, p.p FROM pos p
        JOIN cutw x ON p.doc_id = x.doc_id AND p.p BETWEEN x.j AND x.j + {_DUPSPAN_K} - 1
    ),
    kept AS (
        SELECT p.doc_id, p.p FROM pos p
        WHERE NOT EXISTS (SELECT 1 FROM cut c WHERE c.doc_id = p.doc_id AND c.p = p.p)
    )
    SELECT d.doc_id,
           coalesce(string_agg(substr(d.text, k.p::INT, 1), '' ORDER BY k.p), '') AS text,
           length(d.text) - count(k.p) AS n_removed_chars
    FROM documents d LEFT JOIN kept k ON d.doc_id = k.doc_id
    GROUP BY d.doc_id, d.text
"""



def q_length_quantiles_docs(sf_dir: str):
    """Exact p50/p90/p99 of document length via the distributed value
    histogram (no full sort — combiner + slim merge; stages/quantiles.py).
    The percentile cutoffs a length-based quality filter feeds on."""
    from .stages.quantiles import exact_quantiles

    return exact_quantiles(_docs(sf_dir), "n_chars", qs=(0.5, 0.9, 0.99))


SQL_LENGTH_QUANTILES_DOCS = """
    SELECT quantile_disc(n_chars, 0.5) AS p50,
           quantile_disc(n_chars, 0.9) AS p90,
           quantile_disc(n_chars, 0.99) AS p99
    FROM documents
"""


def q_pack_sequences_docs(sf_dir: str):
    """LLM sequence packing (concat-and-chunk): docs laid on a token tape in
    doc_id order; each doc assigned the 2048-token training sequence its
    first token lands in. Distributed prefix sum, two streaming passes, no
    shuffle (stages/packing.py)."""
    from .stages.packing import pack_sequences

    return pack_sequences(_docs(sf_dir), seq_len=2048)


SQL_PACK_SEQUENCES_DOCS = r"""
    WITH t AS (
        SELECT doc_id,
               CASE WHEN trim(text) = '' THEN 0
                    ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
        FROM documents
    ), c AS (
        SELECT doc_id, n_tokens,
               -- SUM over BIGINT is HUGEINT (-> float64 in pandas); cast back
               CAST(coalesce(SUM(n_tokens) OVER (
                   ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
               ), 0) AS BIGINT) AS tok_offset
        FROM t
    )
    SELECT doc_id, n_tokens, tok_offset,
           CAST(tok_offset // 2048 AS BIGINT) AS seq_id
    FROM c
"""


def q_shuffle_rank_docs(sf_dir: str):
    """Deterministic global shuffle for reproducible training order:
    rank under ORDER BY (md5(doc_id), doc_id) — pseudo-random w.r.t. insert
    order, identical across re-runs/resharding/retries (random_shuffle is
    not). Distributed sort + two-pass prefix count; no payload moves
    (stages/packing.py:deterministic_shuffle_rank)."""
    from .stages.packing import deterministic_shuffle_rank

    return deterministic_shuffle_rank(_docs(sf_dir), id_col="doc_id")


SQL_SHUFFLE_RANK_DOCS = """
    SELECT doc_id,
           CAST(row_number() OVER (ORDER BY md5(doc_id::VARCHAR), doc_id) - 1
                AS BIGINT) AS shuffle_rank
    FROM documents
"""


def q_decontamination_docs(sf_dir: str):
    """Benchmark decontamination: training docs (the augmented corpus)
    containing an eval doc's text verbatim. Eval set = base docs with
    doc_id % PREFIX_MOD == 0 (their planted prefix-extensions guarantee a
    nonempty result); the tiny eval side broadcasts once, the corpus is
    scanned in one shuffle-free vectorized pass (stages/decontaminate.py)."""
    from .stages.decontaminate import contamination_pairs

    def pick_eval(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return t.filter(pa.array(ids % PREFIX_MOD == 0))

    eval_ds = _docs(sf_dir).map_batches(pick_eval, batch_format="pyarrow")
    pairs = contamination_pairs(augmented_docs(sf_dir), eval_ds)

    def cast(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()), "eval_id": t["eval_id"].cast(pa.int64())}
        )

    return pairs.map_batches(cast, batch_format="pyarrow")


SQL_DECONTAMINATION_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL}),
    eval AS (
        SELECT doc_id AS eval_id, text AS eval_text FROM documents
        WHERE doc_id % {PREFIX_MOD} = 0
    )
    SELECT a.doc_id, e.eval_id
    FROM aug a JOIN eval e
      ON position(e.eval_text IN a.text) > 0 AND a.doc_id <> e.eval_id
"""


_DECON_10K_NEEDLES = 10_000
_DECON_10K_EVAL_OFFSET = 10_000_000  # clear of the augmented 1e6/2e6 id ranges


def q_decontamination_10k_docs(sf_dir: str):
    """Benchmark decontamination at REAL eval-suite scale (10k needles —
    MMLU+GSM8K-sized): training docs containing any of 10,000 eval texts.
    Needle count pushes past the scan limb's threshold, so this exercises
    the multi-pattern Rabin–Karp hashed-prefix prefilter
    (stages/decontaminate.py method='ngram' via auto): sorted needle-prefix
    hashes broadcast once, one vectorized window-hash pass per batch,
    searchsorted membership (sub-linear in needles), byte verify on hits.
    Eval text i = documents[(7i) % N].text (cycled — duplicate needle texts
    under distinct eval_ids are intentional and must each emit)."""
    import pyarrow.parquet as pq

    from .stages.decontaminate import contamination_pairs

    pool = _dense_text_pool(sf_dir)
    n_pool = len(pool)
    idx = (np.arange(_DECON_10K_NEEDLES, dtype=np.int64) * 7) % n_pool
    eval_ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(
                    _DECON_10K_EVAL_OFFSET + np.arange(_DECON_10K_NEEDLES), pa.int64()
                ),
                "text": pa.array(pool[idx], pa.string()),
            }
        )
    )
    pairs = contamination_pairs(augmented_docs(sf_dir), eval_ds)

    def cast(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "eval_id": t["eval_id"].cast(pa.int64()),
            }
        )

    return pairs.map_batches(cast, batch_format="pyarrow")


SQL_DECONTAMINATION_10K_DOCS = f"""
    WITH aug AS ({_AUGMENT_SQL}),
    nn AS (SELECT count(*) AS n FROM documents),
    eval AS (
        SELECT {_DECON_10K_EVAL_OFFSET} + t.i AS eval_id, d.text AS eval_text
        FROM range({_DECON_10K_NEEDLES}) t(i) CROSS JOIN nn
        JOIN documents d ON d.doc_id = (t.i * 7) % nn.n
    )
    SELECT a.doc_id, e.eval_id
    FROM aug a JOIN eval e ON position(e.eval_text IN a.text) > 0
"""


def q_redact_docs(sf_dir: str):
    """PII scrub (emails + phone numbers -> typed tags) over a corpus with
    deterministically PLANTED contacts (doc_id % 3 == 0 gets an email+phone
    suffix built from the doc_id — the natural corpus has no PII, so the
    plant makes the redaction real). pyarrow and DuckDB both bundle RE2, so
    the replacement parity is exact, not approximate."""
    from .functions.textstats import redact_pii

    def plant_redact(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        text = t["text"].combine_chunks()
        suffix = pc.binary_join_element_wise(
            pa.array([" contact u"] * t.num_rows),
            pc.cast(ids, pa.string()).combine_chunks(),
            pa.array(["@example.com or 555-123-4567"] * t.num_rows),
            "",
        )
        mask = pa.array(ids.to_numpy() % 3 == 0)
        planted = pc.if_else(
            mask, pc.binary_join_element_wise(text, suffix, ""), text
        )
        clean, n_pii = redact_pii(planted)
        return pa.table({"doc_id": ids, "clean_text": clean, "n_pii": n_pii})

    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        plant_redact, batch_format="pyarrow"
    )


_PII_EMAIL_SQL = "[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}"
_PII_PHONE_SQL = "\\b\\d{3}[- ]\\d{3}[- ]\\d{4}\\b"
SQL_REDACT_DOCS = f"""
    WITH planted AS (
        SELECT doc_id,
               CASE WHEN doc_id % 3 = 0
                    THEN text || ' contact u' || doc_id || '@example.com or 555-123-4567'
                    ELSE text END AS text
        FROM documents
    )
    SELECT doc_id,
           regexp_replace(regexp_replace(text, '{_PII_EMAIL_SQL}', '<EMAIL>', 'g'),
                          '{_PII_PHONE_SQL}', '<PHONE>', 'g') AS clean_text,
           len(regexp_extract_all(text, '{_PII_EMAIL_SQL}'))
             + len(regexp_extract_all(text, '{_PII_PHONE_SQL}')) AS n_pii
    FROM planted
"""


def q_lang_id_docs(sf_dir: str):
    """Stopword-vote language ID — the heuristic is exactly SQL-expressible
    (distinct-token intersection counts per language, earlier-code tiebreak),
    so the oracle is generated from the SAME stopword lists."""
    from .functions.textstats import language_id

    def add(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "lang_pred": language_id(df["text"].to_numpy(dtype=object))}
        )

    return _docs(sf_dir).map_batches(add, batch_format="pandas")


def _lang_id_sql() -> str:
    from .functions.textstats import _LANG_STOPWORDS

    def lst(lang):
        return "[" + ", ".join(f"'{w}'" for w in sorted(_LANG_STOPWORDS[lang])) + "]"

    votes = ",\n               ".join(
        f"len(list_intersect(toks, {lst(lang)})) AS v_{lang}"
        for lang in sorted(_LANG_STOPWORDS)
    )
    # python picks the FIRST lexicographic lang with a strictly higher vote:
    # the CASE cascade in sorted order with >= reproduces that tie-break
    return f"""
        WITH t AS (
            SELECT doc_id,
                   list_distinct(regexp_split_to_array(lower(text), '\\s+')) AS toks
            FROM documents
        ), v AS (
            SELECT doc_id,
               {votes}
            FROM t
        )
        SELECT doc_id,
               CASE WHEN greatest(v_de, v_en, v_es, v_fr) = 0 THEN 'und'
                    WHEN v_de >= v_en AND v_de >= v_es AND v_de >= v_fr THEN 'de'
                    WHEN v_en >= v_es AND v_en >= v_fr THEN 'en'
                    WHEN v_es >= v_fr THEN 'es'
                    ELSE 'fr' END AS lang_pred
        FROM v
    """



def q_fingerprint_docs(sf_dir: str):
    """Rolling-hash document fingerprinting (SQL_FINGERPRINT_DOCS replays the
    identical polynomial arithmetic in DuckDB — oracle-checked)."""
    import numpy as np

    from .functions.hashing import rolling_fingerprint

    def add(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "fingerprint": np.array(
                    [rolling_fingerprint(t or "") for t in df["text"]], dtype=np.uint64
                ),
            }
        )

    return _docs(sf_dir).map_batches(add, batch_format="pandas")


# the exact rolling_fingerprint arithmetic (functions/hashing.py:85-105) in
# SQL: powers of the base mod 2^64 via a recursive CTE (HUGEINT keeps every
# intermediate product exact before the explicit mod), one row per
# (doc, window-aligned sample, byte) for the polynomial terms, wrap-mod sums
# per window, bit_xor across samples. Codepoints == UTF-8 bytes because the
# documents corpus is ASCII (validated: octet_length == length for all rows).
SQL_FINGERPRINT_DOCS = """
WITH RECURSIVE pw(e, p) AS (
  SELECT 0, 1::HUGEINT
  UNION ALL
  SELECT e + 1, (p * 1000003) % 18446744073709551616::HUGEINT FROM pw WHERE e < 63
),
chars AS (
  SELECT doc_id, text, length(text) AS n, least(64, length(text)) AS w
  FROM documents WHERE text IS NOT NULL AND length(text) > 0
),
samples AS (
  SELECT doc_id, text, w, unnest(range(0, n - w + 1, w)) AS s FROM chars
),
terms AS (
  SELECT doc_id, s,
    (ord(substring(text, (s + j.j + 1)::INT, 1))::HUGEINT * pw.p)
      % 18446744073709551616::HUGEINT AS term
  FROM samples
  CROSS JOIN (SELECT unnest(range(0, 64)) AS j) j
  JOIN pw ON pw.e = samples.w - 1 - j.j
  WHERE j.j < samples.w
),
winhash AS (
  SELECT doc_id, s,
         (sum(term) % 18446744073709551616::HUGEINT)::UBIGINT AS h
  FROM terms GROUP BY doc_id, s
)
SELECT doc_id, bit_xor(h) AS fingerprint FROM winhash GROUP BY doc_id
UNION ALL
SELECT doc_id, 0::UBIGINT AS fingerprint
FROM documents WHERE text IS NULL OR length(text) = 0
"""


def q_minhash_dedup_docs(sf_dir: str):
    """MinHash-LSH near-dup dedup (north rule core) over the oracle-planted
    corpus: exact + above-threshold copies dropped, reversed copies kept."""
    from .pipelines.dedup import DedupConfig, run_dedup

    out = run_dedup(
        augmented_near_docs(sf_dir),
        DedupConfig(
            mode="minhash",
            id_col="doc_id",
            order_cols=("doc_id",),
            emit_clusters=False,
        ),
    )
    return out.kept.select_columns(["doc_id", "lang"])


def q_minhash_oph_dedup_docs(sf_dir: str):
    """One-permutation MinHash with optimal densification (the preferred
    100 TB signing scheme, ~K-fold less arithmetic) over the same planted
    oracle corpus: bin-wise collision probability equals Jaccard, so the
    planted j>=0.98 pairs band-collide with miss probability < 1e-15."""
    from .functions.sketches import MinHashParams
    from .pipelines.dedup import DedupConfig, run_dedup

    out = run_dedup(
        augmented_near_docs(sf_dir),
        DedupConfig(
            mode="minhash",
            minhash=MinHashParams(scheme="oph"),
            id_col="doc_id",
            order_cols=("doc_id",),
            emit_clusters=False,
        ),
    )
    return out.kept.select_columns(["doc_id", "lang"])


def q_ngram_jaccard_dedup_docs(sf_dir: str):
    """Word-n-gram Jaccard near-dup dedup: MinHash/LSH candidates over word
    3-gram shingles, exact word-Jaccard verify at 0.6 — same planted oracle
    (one appended token on >=300-char docs keeps word-3-gram Jaccard >=0.93)."""
    from .functions.sketches import MinHashParams
    from .pipelines.dedup import DedupConfig, run_dedup

    out = run_dedup(
        augmented_near_docs(sf_dir),
        DedupConfig(
            mode="minhash",
            minhash=MinHashParams(shingle="word", word_n=3),
            threshold=0.6,
            id_col="doc_id",
            order_cols=("doc_id",),
            emit_clusters=False,
        ),
    )
    return out.kept.select_columns(["doc_id", "lang"])


def q_simhash_dedup_docs(sf_dir: str):
    """SimHash Hamming-ball near-dup dedup (--distance analogue) over the
    planted corpus without the marker class (an appended token's bit-flip
    count is not bounded a priori): exact copies (distance 0) dropped,
    reversed copies (~32 bits away) kept."""
    from .pipelines.dedup import DedupConfig, run_dedup

    out = run_dedup(
        augmented_near_docs(sf_dir, with_above=False),
        DedupConfig(
            mode="simhash",
            id_col="doc_id",
            order_cols=("doc_id",),
            distance=3,
            emit_clusters=False,
        ),
    )
    return out.kept.select_columns(["doc_id", "lang"])


# -------------------------------------------------------------------- similarity

def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k similarity search over embeddings."""
    import pyarrow.parquet as pq

    from .stages.ann import brute_force_topk

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    order = np.argsort(ids)
    qidx = order[:5]
    Q = np.stack([t["embedding"][int(i)].as_py() for i in qidx])
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    got = brute_force_topk(emb, Q, ids[qidx], k=10, concurrency=2)
    return got[["query_id", "vec_id", "rank"]]


SQL_ANN_TOPK = """
    WITH q AS (SELECT vec_id AS query_id, embedding AS qe
               FROM embeddings ORDER BY vec_id LIMIT 5)
    SELECT query_id, vec_id, rank FROM (
        SELECT q.query_id, e.vec_id,
               row_number() OVER (
                   PARTITION BY q.query_id
                   ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
               ) AS rank
        FROM embeddings e CROSS JOIN q
    ) WHERE rank <= 10
"""


def q_ann_ivf_topk(sf_dir: str):
    """IVF-partitioned cosine top-k run at nprobe == nlist (exhaustive probing
    -> exact results, shared oracle with ann_topk); nprobe < nlist is the
    tested approximate scale path."""
    import pyarrow.parquet as pq

    from .stages.ann import ivf_topk

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    order = np.argsort(ids)
    qidx = order[:5]
    Q = np.stack([t["embedding"][int(i)].as_py() for i in qidx])
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    got = ivf_topk(emb, Q, ids[qidx], k=10, nlist=16, nprobe=16, concurrency=2)
    return got[["query_id", "vec_id", "rank"]]


EMB_EXACT_MOD = 10
EMB_EXACT_OFFSET = 10_000
EMB_PERT_MOD = 7
EMB_PERT_OFFSET = 20_000
EMB_PERT_DELTA = 0.5

_AUGMENT_EMB_SQL = f"""
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + {EMB_EXACT_OFFSET}, embedding
    FROM embeddings WHERE vec_id % {EMB_EXACT_MOD} = 0
    UNION ALL
    SELECT vec_id + {EMB_PERT_OFFSET},
           list_prepend(embedding[1] + {EMB_PERT_DELTA}, embedding[2:])
    FROM embeddings WHERE vec_id % {EMB_PERT_MOD} = 0
"""


def augmented_embeddings(sf_dir: str) -> rd.Dataset:
    """embeddings ∪ exact copies ∪ first-element-perturbed copies — the
    deterministic near-dup planting, mirrored exactly in _AUGMENT_EMB_SQL.
    All arithmetic float32 -> float64 in both engines so values agree."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def exact_copies(df: pd.DataFrame) -> pd.DataFrame:
        m = df[df["vec_id"] % EMB_EXACT_MOD == 0].copy()
        m["vec_id"] = m["vec_id"] + EMB_EXACT_OFFSET
        m["embedding"] = m["embedding"].map(lambda v: np.asarray(v, np.float64))
        return m

    def perturbed(df: pd.DataFrame) -> pd.DataFrame:
        m = df[df["vec_id"] % EMB_PERT_MOD == 0].copy()
        m["vec_id"] = m["vec_id"] + EMB_PERT_OFFSET

        def pert(v):
            x = np.asarray(v, np.float64).copy()
            x[0] = x[0] + EMB_PERT_DELTA
            return x

        m["embedding"] = m["embedding"].map(pert)
        return m

    def as64(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["embedding"] = df["embedding"].map(lambda v: np.asarray(v, np.float64))
        return df

    return (
        ds.map_batches(as64, batch_format="pandas")
        .union(ds.map_batches(exact_copies, batch_format="pandas"))
        .union(ds.map_batches(perturbed, batch_format="pandas"))
    )


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs (exact all-pairs path) over the
    augmented embeddings; oracle = the same cosine join in DuckDB."""
    from .stages.ann import embedding_neardup_exact

    edges = embedding_neardup_exact(augmented_embeddings(sf_dir), threshold=0.95)
    df = edges.to_pandas()
    df["a"] = df["a"].astype("int64")
    df["b"] = df["b"].astype("int64")
    return df


SQL_EMBEDDING_NEARDUP = f"""
    WITH aug AS ({_AUGMENT_EMB_SQL})
    SELECT x.vec_id AS a, y.vec_id AS b,
           round(list_cosine_similarity(x.embedding, y.embedding), 6) AS cos_sim
    FROM aug x JOIN aug y ON x.vec_id < y.vec_id
     AND list_cosine_similarity(x.embedding, y.embedding) >= 0.95
"""


def q_embedding_neardup_lsh(sf_dir: str):
    """Hyperplane-LSH embedding near-dup — the 10^12-row scale path — run at
    the recall-tested config (16 bands x 4 bits: per-qualifying-pair miss
    probability < 5e-8, deterministic in practice) with exact in-bucket
    cosine verify, so it shares the exact path's oracle."""
    from .stages.ann import embedding_neardup_lsh

    edges = embedding_neardup_lsh(
        augmented_embeddings(sf_dir), threshold=0.95, planes=64, bands=16
    )
    df = edges.to_pandas()
    df["a"] = df["a"].astype("int64")
    df["b"] = df["b"].astype("int64")
    return df


def q_embedding_dedup(sf_dir: str):
    """Exact embedding dedup (byte-identical vectors, keep min id)."""
    from .stages.ann import embedding_dedup_exact

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    kept = embedding_dedup_exact(ds)
    return kept.select_columns(["vec_id", "label"])


SQL_EMBEDDING_DEDUP = """
    SELECT vec_id, label FROM embeddings
    QUALIFY row_number() OVER (PARTITION BY embedding ORDER BY vec_id) = 1
"""


# ------------------------------------------------------------------- aggregates

def q_lineitem_agg(sf_dir: str):
    """Grouped aggregate with in-batch pre-aggregation (combiner pattern)."""
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pcc

        rev = pcc.multiply(t["l_extendedprice"], pcc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("revenue", rev)
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_rev=("revenue", "sum"),
            n=("l_quantity", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = (
        partials.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("sum_qty", alias_name="sum_qty"), Sum("sum_rev", alias_name="sum_rev"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["sum_qty"] = out["sum_qty"].round(2)
    out["sum_rev"] = out["sum_rev"].round(2)
    return out


SQL_LINEITEM_AGG = """
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 2) AS sum_qty,
           round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_rev,
           count(*) AS n
    FROM lineitem
    GROUP BY l_returnflag, l_linestatus
"""


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window aggregate per user (streaming-shaped workload;
    Arrow-native combiner + bucketed merge, stages/windows.py)."""
    from .stages.windows import tumbling_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    return tumbling_window(ds, width_minutes=60)


SQL_EVENTS_WINDOW = """
    SELECT user_id, date_trunc('hour', ts) AS window_start,
           round(sum(value), 6) AS sum_value, count(*) AS n_events
    FROM events
    GROUP BY user_id, date_trunc('hour', ts)
"""


# ----------------------------------------------------------------------- pages

def q_multimodal_features(sf_dir: str):
    """REAL multimodal decode, oracle-checked: deterministic per-doc PNG and
    WAV payloads (pure-stdlib encoders) flow through the actor-pool decode
    stages with ``require_real=True``; every output column is an integer the
    SQL oracle recomputes from ``doc_id`` arithmetic — dims and pixel value
    straight from the image generator, sample count and 16-bit-quantized RMS
    from the audio generator."""
    import numpy as np
    import pyarrow as pa

    from .functions.codecs import encode_png, encode_wav
    from .stages.multimodal import AudioFeatures, ImageFeatures

    def build(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        pngs, wavs = [], []
        for i in ids:
            i = int(i)
            w, h, v = 16 + i % 32, 16 + i % 16, i % 256
            pngs.append(encode_png(np.full((h, w), v, dtype=np.uint8)))
            n, a = 800 + i % 100, (i % 100) / 100.0
            wavs.append(encode_wav(np.full(n, a)))
        return pd.DataFrame({"doc_id": ids, "image": pngs, "audio": wavs})

    # num_cpus=0.5: two stacked 2-actor pools must not pin every core of a
    # small session (4-CPU test fixture) or the upstream read starves — the
    # documented join/actor-pool deadlock pattern
    ds = _docs(sf_dir).map_batches(build, batch_format="pandas")
    ds = ds.map_batches(
        ImageFeatures, fn_constructor_kwargs={"bin_col": "image", "require_real": True},
        batch_format="pyarrow", batch_size=64, concurrency=2, num_cpus=0.5,
    )
    ds = ds.map_batches(
        AudioFeatures, fn_constructor_kwargs={"bin_col": "audio", "require_real": True},
        batch_format="pyarrow", batch_size=64, concurrency=2, num_cpus=0.5,
    )

    def project(t: pa.Table) -> pa.Table:
        feats = np.asarray(t["image_feat"].combine_chunks().flatten()).reshape(
            t.num_rows, ImageFeatures.FEATURE_DIM
        )
        energy = np.asarray(t["audio_energy"].combine_chunks().flatten()).reshape(
            t.num_rows, AudioFeatures.BINS
        )
        # integer-exact projections: constant-gray image -> grid mean * 255
        # is exactly the planted pixel value; constant-amplitude audio ->
        # RMS * 10000 rounds to the planted amplitude scaled (quantization
        # error < 0.2 vs a .5 rounding boundary)
        gray = np.round(feats.mean(axis=1) * 255.0).astype(np.int64)
        rms = np.round(energy.mean(axis=1).astype(np.float64) * 10000.0).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "width": t["width"].cast(pa.int64()),
                "height": t["height"].cast(pa.int64()),
                "gray": pa.array(gray, pa.int64()),
                "n_samples": t["n_bytes"].cast(pa.int64()),
                "rms_x10k": pa.array(rms, pa.int64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


SQL_MULTIMODAL_FEATURES = """
SELECT doc_id,
       (16 + doc_id % 32)::BIGINT AS width,
       (16 + doc_id % 16)::BIGINT AS height,
       (doc_id % 256)::BIGINT AS gray,
       (800 + doc_id % 100)::BIGINT AS n_samples,
       round(round((doc_id % 100) / 100.0 * 32767) / 32767 * 10000)::BIGINT AS rms_x10k
FROM documents
"""


def q_pages_flagship(sf_dir: str):
    """Flagship pages pipeline — the near-dup-planted documents lifted to the
    (url, warc_ts, html, text, lang) pages schema, through quarantine
    validation and ``run_dedup``'s MinHash mode (exact keep-first, then
    near-dup): kept urls are the planted clusters' earliest members plus the
    reversed (below-threshold) copies."""
    from .corpus import render_html
    from .pipelines.dedup import DedupConfig, run_dedup
    from .sources.pages import split_quarantine

    import datetime as _dtm

    epoch = _dtm.datetime(2025, 1, 1)

    def lift(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        return pd.DataFrame(
            {
                "url": [f"https://docs.example/d/{i}" for i in ids],
                "warc_ts": pd.to_datetime(
                    [epoch + _dtm.timedelta(microseconds=int(i)) for i in ids]
                ),
                "html": [render_html(t) for t in df["text"]],
                "text": df["text"].to_numpy(),
                "lang": df["lang"].to_numpy(),
            }
        )

    pages = augmented_near_docs(sf_dir).map_batches(lift, batch_format="pandas")
    good, _bad = split_quarantine(pages)
    out = run_dedup(good, DedupConfig(mode="minhash", emit_clusters=False))
    return out.kept.select_columns(["url", "lang"])


SQL_PAGES_FLAGSHIP = f"""
    WITH kept AS ({_NEAR_IDS_SQL})
    SELECT 'https://docs.example/d/' || doc_id AS url, lang FROM kept
"""


REGISTRY = {
    # Driver-gate ordering: the correctness driver witnesses only the FIRST
    # 50 entries per round.  Order = (1) queries with no driver-green row in
    # the previous round's CORRECTNESS artifact, (2) new/heavy queries,
    # (3) long-stable cheap queries rotated past the cap (all were
    # driver-witnessed green in earlier rounds).  When adding a query, insert
    # it BEFORE the stable tail so the next round's gate witnesses it.
    # Round-5 rotation: the 21 r04-unwitnessed entries lead, then the new
    # prefilter query, round-5-code-touched re-witnesses, the six round-4
    # additions, and the heavy dedup family; entries 51+ are the stable tail.
    "paragraph_dedup_docs": (q_paragraph_dedup_docs, SQL_PARAGRAPH_DEDUP_DOCS),
    "dedup_lines_within_docs": (q_dedup_lines_within_docs, SQL_DEDUP_LINES_WITHIN_DOCS),
    "cross_dedup_exact_docs": (q_cross_dedup_exact_docs, SQL_CROSS_DEDUP_EXACT_DOCS),
    "cross_dedup_near_docs": (q_cross_dedup_near_docs, SQL_CROSS_DEDUP_NEAR_DOCS),
    "length_quantiles_docs": (q_length_quantiles_docs, SQL_LENGTH_QUANTILES_DOCS),
    "pack_sequences_docs": (q_pack_sequences_docs, SQL_PACK_SEQUENCES_DOCS),
    "quality_filter_docs": (q_quality_filter_docs, SQL_QUALITY_FILTER_DOCS),
    "lang_dist_docs": (q_lang_dist_docs, SQL_LANG_DIST_DOCS),
    "top_tokens_docs": (q_top_tokens_docs, SQL_TOP_TOKENS_DOCS),
    "set_intersect_docs": (q_set_intersect_docs, SQL_SET_INTERSECT_DOCS),
    "set_except_docs": (q_set_except_docs, SQL_SET_EXCEPT_DOCS),
    "sort_topn_docs": (q_sort_topn_docs, SQL_SORT_TOPN_DOCS),
    "topk_per_lang_docs": (q_topk_per_lang_docs, SQL_TOPK_PER_LANG_DOCS),
    "redact_docs": (q_redact_docs, SQL_REDACT_DOCS),
    "token_counts_docs": (q_token_counts_docs, SQL_TOKEN_COUNTS_DOCS),
    "quality_scores_docs": (q_quality_scores_docs, SQL_QUALITY_SCORES_DOCS),
    "lang_id_docs": (q_lang_id_docs, _lang_id_sql()),
    "train_split_docs": (q_train_split_docs, SQL_TRAIN_SPLIT_DOCS),
    "cluster_size_hist_docs": (q_cluster_size_hist_docs, SQL_CLUSTER_SIZE_HIST_DOCS),
    "dedup_counts_docs": (q_dedup_counts_docs, SQL_DEDUP_COUNTS_DOCS),
    "line_repetition_docs": (q_line_repetition_docs, SQL_LINE_REPETITION_DOCS),
    "remove_dup_spans_prefilter_docs": (q_remove_dup_spans_prefilter_docs, SQL_REMOVE_DUP_SPANS_DOCS),
    "url_canonical_dedup_docs": (q_url_canonical_dedup_docs, _url_canonical_sql()),
    "events_sessionize": (q_events_sessionize, SQL_EVENTS_SESSIONIZE),
    "pages_flagship": (q_pages_flagship, SQL_PAGES_FLAGSHIP),
    "minhash_dedup_docs": (q_minhash_dedup_docs, SQL_NEAR_KEPT),
    "minhash_oph_dedup_docs": (q_minhash_oph_dedup_docs, SQL_NEAR_KEPT),
    "ngram_jaccard_dedup_docs": (q_ngram_jaccard_dedup_docs, SQL_NEAR_KEPT),
    "simhash_dedup_docs": (q_simhash_dedup_docs, SQL_NEAR_KEPT_SIM),
    "anti_join_customers_orders": (q_anti_join_customers_orders, SQL_ANTI_JOIN_CUSTOMERS_ORDERS),
    "decontamination_10k_docs": (q_decontamination_10k_docs, SQL_DECONTAMINATION_10K_DOCS),
    "cap_budget_per_source_docs": (q_cap_budget_per_source_docs, SQL_CAP_BUDGET_PER_SOURCE_DOCS),
    "unigram_logprob_docs": (q_unigram_logprob_docs, SQL_UNIGRAM_LOGPROB_DOCS),
    "sample_per_lang_docs": (q_sample_per_lang_docs, _sample_per_lang_sql()),
    "dup_span_stats_docs": (q_dup_span_stats_docs, SQL_DUP_SPAN_STATS_DOCS),
    "remove_dup_spans_docs": (q_remove_dup_spans_docs, SQL_REMOVE_DUP_SPANS_DOCS),
    "dedup_exact_docs": (q_dedup_exact_docs, SQL_DEDUP_EXACT_DOCS),
    "dedup_exact_composite_docs": (q_dedup_exact_composite_docs, SQL_DEDUP_EXACT_COMPOSITE_DOCS),
    "dedup_exact_paranoid_docs": (q_dedup_exact_paranoid_docs, SQL_DEDUP_EXACT_DOCS),
    "dedup_tight_adjacency_docs": (q_dedup_tight_adjacency_docs, SQL_DEDUP_EXACT_DOCS),
    "dedup_loose_docs": (q_dedup_loose_docs, SQL_DEDUP_LOOSE_DOCS),
    "dedup_loose_paired_docs": (q_dedup_loose_paired_docs, SQL_DEDUP_LOOSE_PAIRED_DOCS),
    "dedup_tight_paired_docs": (q_dedup_tight_paired_docs, SQL_DEDUP_TIGHT_PAIRED_DOCS),
    "containment_docs": (q_containment_docs, SQL_CONTAINMENT_DOCS),
    "containment_sa_docs": (q_containment_sa_docs, SQL_CONTAINMENT_DOCS),
    "clusters_exact_docs": (q_clusters_exact_docs, SQL_CLUSTERS_EXACT_DOCS),
    "streaming_dedup_docs": (q_streaming_dedup_docs, SQL_STREAMING_DEDUP_DOCS),
    "streaming_neardup_docs": (q_streaming_neardup_docs, SQL_STREAMING_NEARDUP_DOCS),
    "streaming_quota_docs": (q_streaming_quota_docs, SQL_STREAMING_QUOTA_DOCS),
    "fingerprint_docs": (q_fingerprint_docs, SQL_FINGERPRINT_DOCS),
    "multimodal_features": (q_multimodal_features, SQL_MULTIMODAL_FEATURES),
    "ann_topk": (q_ann_topk, SQL_ANN_TOPK),
    "ann_ivf_topk": (q_ann_ivf_topk, SQL_ANN_TOPK),
    "embedding_dedup": (q_embedding_dedup, SQL_EMBEDDING_DEDUP),
    "embedding_neardup": (q_embedding_neardup, SQL_EMBEDDING_NEARDUP),
    "embedding_neardup_lsh": (q_embedding_neardup_lsh, SQL_EMBEDDING_NEARDUP),
    "lineitem_agg": (q_lineitem_agg, SQL_LINEITEM_AGG),
    "events_window": (q_events_window, SQL_EVENTS_WINDOW),
    "shuffle_rank_docs": (q_shuffle_rank_docs, SQL_SHUFFLE_RANK_DOCS),
    "doc_frequency_docs": (q_doc_frequency_docs, SQL_DOC_FREQUENCY_DOCS),
    "events_sliding_window": (q_events_sliding_window, SQL_EVENTS_SLIDING_WINDOW),
    "training_pipeline_docs": (q_training_pipeline_docs, SQL_TRAINING_PIPELINE_DOCS),
    "training_pipeline_full_docs": (q_training_pipeline_full_docs, SQL_TRAINING_PIPELINE_FULL_DOCS),
    "broadcast_join_customer_nation": (q_broadcast_join_customer_nation, SQL_BROADCAST_JOIN_CUSTOMER_NATION),
    "asof_join_events_orders": (q_asof_join_events_orders, SQL_ASOF_JOIN_EVENTS_ORDERS),
    "range_join_events_sessions": (q_range_join_events_sessions, SQL_RANGE_JOIN_EVENTS_SESSIONS),
    "join_orders_customer": (q_join_orders_customer, SQL_JOIN_ORDERS_CUSTOMER),
    "unordered_join_dedup_docs": (q_unordered_join_dedup_docs, SQL_UNORDERED_JOIN_DEDUP_DOCS),
    "join_unmatched_counts": (q_join_unmatched_counts, SQL_JOIN_UNMATCHED_COUNTS),
    "decontamination_docs": (q_decontamination_docs, SQL_DECONTAMINATION_DOCS),
    "token_counts_bpe_docs": (q_token_counts_bpe_docs, SQL_TOKEN_COUNTS_BPE_DOCS),
    "repetition_docs": (q_repetition_docs, SQL_REPETITION_DOCS),
    "cap_per_source_docs": (q_cap_per_source_docs, SQL_CAP_PER_SOURCE_DOCS),
}

