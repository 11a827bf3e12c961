"""Cross-corpus dedup: drop corpus rows that duplicate a REFERENCE corpus.

The training-data operation between exact dedup and eval decontamination:
when a new crawl (corpus B) is added to an already-curated dataset (reference
A), every B document that duplicates — exactly or nearly — an A document must
be dropped, while B-internal duplicates are left alone (that is
stages.dedup_exact / the flagship's job, run separately). The reference
engine's closest analogue is the unordered-join membership semantics
(/root/reference/src/hash_dup_remover.hpp:257-347): a cross-file pass where
one file's records are admitted or dropped based on the other file's
contents; here the predicate is content identity / near-identity instead of
an id match.

Two modes:

* ``cross_dedup_exact`` — B rows whose 128-bit content identity (same
  construction as stages.dedup_exact) appears in A are dropped. Shape: slim
  identity rows from BOTH sides meet in one ``exchange.cogroup``; each
  bucket intersects the two sides and emits the matching identities —
  the drop set, bounded by the CONTAMINATION size, small by definition in
  the realistic regime — and ``exchange.semi_filter`` removes them from B:
  one streaming filter under its broadcast budget (payload never
  shuffles), one payload-with-keys exchange above it (payload moves once).

* ``cross_dedup_minhash`` — near-duplicates via the flagship MinHash/LSH
  machinery: A ∪ B are side-tag-prefixed, signed and banded together,
  verified edges feed connected components, and every B member of a cluster
  that contains at least one A member is dropped (cluster-transitive, the
  same judgment the within-corpus pipeline applies when it keeps one
  representative per cluster). B-only clusters are untouched. The label
  pass is one slim exchange on the cluster label; the resulting B drop ids
  go through the same ``semi_filter``, keyed on the id hash pair.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .dedup_exact import _identity128


def _slim_identity(ds: ray.data.Dataset, key_cols) -> ray.data.Dataset:
    def slim(batch: pa.Table) -> pa.Table:
        k1, k2 = _identity128(batch, key_cols)
        return pa.table({"_k1": pa.array(k1, pa.uint64()), "_k2": pa.array(k2, pa.uint64())})

    return ds.map_batches(slim, batch_format="pyarrow")


def cross_dedup_exact(
    corpus: ray.data.Dataset,
    reference: ray.data.Dataset,
    key_cols=("text",),
    num_buckets: int = 64,
    counters: dict | None = None,
) -> ray.data.Dataset:
    """Drop every ``corpus`` row whose content identity appears in
    ``reference``; returns the filtered corpus (lazy). ALL matching corpus
    rows drop (membership, not keep-first) — corpus-internal duplicates of
    non-contaminated content ride through untouched.
    """
    key_cols = list(key_cols)
    from .exchange import _pair_lookup_pos, _unique_pairs, cogroup, semi_filter

    def bucket_hits(ref: pa.Table, corp: pa.Table) -> pa.Table:
        # distinct contaminated identities: corpus pairs ∩ reference pairs
        if not ref.num_rows or not corp.num_rows:
            return pa.table({"_k1": pa.array([], pa.uint64()), "_k2": pa.array([], pa.uint64())})
        r1, r2 = _unique_pairs(ref["_k1"].to_numpy(), ref["_k2"].to_numpy())
        q1, q2 = corp["_k1"].to_numpy(), corp["_k2"].to_numpy()
        found = _pair_lookup_pos(r1, r2, q1, q2)[1]
        h1, h2 = _unique_pairs(q1[found], q2[found])
        return pa.table({"_k1": pa.array(h1, pa.uint64()), "_k2": pa.array(h2, pa.uint64())})

    drops = cogroup(
        _slim_identity(reference, key_cols), _slim_identity(corpus, key_cols), "_k1",
        bucket_hits, num_buckets,
    )
    if counters is not None:
        counters["contaminated_identities"] = drops.count()
    return semi_filter(corpus, drops, functools.partial(_identity128, key_cols=key_cols))


def _tag_side(ds: ray.data.Dataset, prefix: str, id_col: str, text_col: str) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.string())
        tagged = pc.binary_join_element_wise(
            pa.array([prefix] * batch.num_rows), ids.combine_chunks(), ""
        )
        return pa.table({id_col: tagged, text_col: batch[text_col]})

    return ds.select_columns([id_col, text_col]).map_batches(fn, batch_format="pyarrow")


def sign_reference_bands(
    reference: ray.data.Dataset,
    id_col: str = "url",
    text_col: str = "text",
    params=None,
) -> ray.data.Dataset:
    """Sign the curated corpus ONCE for reuse across cross_dedup_minhash
    runs: returns its numeric band rows (band_key, h1, h2 — three uint64
    columns), side-tagged exactly as cross_dedup_minhash tags them
    internally. Persist with ``.write_parquet(dir)`` and reload with
    ``ray.data.read_parquet(dir)``; pass as ``reference_bands=``. At 10^12
    docs this amortizes the dominant cost of cross-corpus near-dedup — the
    A-side signing — across every new crawl deduped against A (the verify
    stage still column-prune-scans A's (id, text) to gather the few
    endpoint texts that candidate edges actually touch).
    """
    from ..functions.sketches import MinHashParams
    from .minhash import sign_and_band

    params = params or MinHashParams()
    return _tag_side(reference, "A:", id_col, text_col).map_batches(
        sign_and_band,
        fn_kwargs={
            "params": params,
            "text_col": text_col,
            "id_col": id_col,
            "order_cols": (id_col,),
            "numeric_ids": True,
        },
        batch_format="pyarrow",
        batch_size=2048,
    )


def cross_dedup_minhash(
    corpus: ray.data.Dataset,
    reference: ray.data.Dataset,
    id_col: str = "url",
    text_col: str = "text",
    params=None,
    threshold: float | None = None,
    num_buckets: int = 64,
    counters: dict | None = None,
    reference_bands: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Drop every ``corpus`` doc sharing a verified near-dup CLUSTER with a
    ``reference`` doc; returns the filtered corpus (lazy).

    Ids are side-tag-prefixed internally ("A:"/"B:") so the two corpora may
    reuse ids; the string edge contract (emit="ids") carries the tags through
    components, and one slim exchange on the cluster label finds clusters
    containing at least one reference member. Cluster-transitive by design —
    the same connectivity judgment as the within-corpus flagship (a B doc
    near a B doc near an A doc is dropped). B-only clusters (corpus-internal
    near-dups) are untouched.
    """
    from ..functions.sketches import MinHashParams
    from .components import connected_components
    from .exchange import hash_exchange, semi_filter
    from .minhash import _column_id_pair, dedup_edges_minhash
    from ..functions.hashing import hash64

    params = params or MinHashParams()

    a_tagged = _tag_side(reference, "A:", id_col, text_col)
    b_tagged = _tag_side(corpus, "B:", id_col, text_col)
    union = a_tagged.union(b_tagged)
    edges = dedup_edges_minhash(
        union,
        params=params,
        id_col=id_col,
        text_col=text_col,
        order_cols=(id_col,),
        threshold=threshold,
        emit="ids",
        # incremental mode: A's band rows were persisted by a prior
        # sign_reference_bands run — sign only the new crawl (B); the verify
        # stage still gathers endpoint texts from the full union
        sign_pages=None if reference_bands is None else b_tagged,
        extra_band_rows=reference_bands,
    )
    labels = connected_components(edges)

    def lab_slim(t: pa.Table) -> pa.Table:
        lab = t["label"]
        if isinstance(lab, pa.ChunkedArray):
            lab = lab.combine_chunks()
        lh = hash64(lab.to_numpy(zero_copy_only=False).astype(object))
        return pa.table(
            {"node": t["node"], "label": lab, "_lh": pa.array(lh, pa.uint64())}
        )

    def contaminated_b(t: pa.Table | None) -> pa.Table:
        empty = pa.table({"b_id": pa.array([], pa.string())})
        if t is None or t.num_rows == 0:
            return empty
        import pandas as pd

        df = t.to_pandas()
        is_a = df["node"].str.startswith("A:")
        bad = set(df.loc[is_a, "label"])
        if not bad:
            return empty
        hit = df["label"].isin(bad) & ~is_a
        return pa.table(
            {"b_id": pa.array(df.loc[hit, "node"].str[2:].to_numpy(), pa.string())}
        )

    drops = hash_exchange(
        labels.map_batches(lab_slim, batch_format="pyarrow"),
        "_lh",
        num_buckets,
        contaminated_b,
    )
    if counters is not None:
        counters["cross_near_drops"] = drops.count()

    def as_keys(t: pa.Table) -> pa.Table:
        h1, h2 = _column_id_pair(t, "b_id")
        return pa.table({"_k1": pa.array(h1, pa.uint64()), "_k2": pa.array(h2, pa.uint64())})

    keys = drops.map_batches(as_keys, batch_format="pyarrow")
    return semi_filter(corpus, keys, functools.partial(_column_id_pair, col=id_col))
