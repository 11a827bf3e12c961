"""MinHash-LSH and SimHash near-dup pipelines: recall/precision on planted classes."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from fastq_dupaway_ray import refmodel
from fastq_dupaway_ray.functions.hashing import char_ngram_hashes, jaccard
from fastq_dupaway_ray.functions.sketches import MinHashParams
from fastq_dupaway_ray.stages.components import connected_components
from fastq_dupaway_ray.stages.minhash import dedup_edges_minhash
from fastq_dupaway_ray.stages.representative import apply_cluster_labels
from fastq_dupaway_ray.stages.simhash import simhash_candidate_edges


@pytest.fixture(scope="module")
def ds(ray_session, pages_corpus):
    path, _ = pages_corpus
    return rd.read_parquet(path)


@pytest.fixture(scope="module")
def minhash_edges(ds):
    return dedup_edges_minhash(ds, verify=True, threshold=0.7).materialize()


def _base_url_of(dup_url: str) -> int:
    # .../dup/<class>/<base_idx>/<copy>
    return int(dup_url.split("/")[-2])


def test_minhash_recall_on_high_jaccard_classes(minhash_edges, pages_rows):
    """North-rule recall: every planted exact/near-exact dup must be caught."""
    edf = minhash_edges.to_pandas()
    covered = set(edf["a"]) | set(edf["b"])
    planted = [r["url"] for r in pages_rows if "/dup/exact/" in r["url"] or "/dup/jac095/" in r["url"]]
    assert planted, "corpus must plant duplicates"
    hit = sum(1 for u in planted if u in covered)
    assert hit / len(planted) >= 0.99


def test_minhash_verify_precision(minhash_edges, pages_rows):
    """Every verified edge's true shingle Jaccard >= threshold (no false dup)."""
    texts = {r["url"]: r["text"] for r in pages_rows}
    edf = minhash_edges.to_pandas()
    assert len(edf) > 0
    for _, e in edf.iterrows():
        sa = char_ngram_hashes(texts[e["a"]], 8)
        sb = char_ngram_hashes(texts[e["b"]], 8)
        assert jaccard(sa, sb) >= 0.7
        assert abs(e["jaccard"] - jaccard(sa, sb)) < 1e-9


def test_low_jaccard_pairs_not_linked(minhash_edges, pages_rows):
    """jac05 rows (Jaccard ~0.5 vs base) must NOT be merged at threshold 0.7."""
    edf = minhash_edges.to_pandas()
    pair_set = {frozenset((a, b)) for a, b in zip(edf["a"], edf["b"])}
    for r in pages_rows:
        if "/dup/jac05/" in r["url"]:
            base_idx = _base_url_of(r["url"])
            base_urls = [q["url"] for q in pages_rows if q["url"].endswith(f"/p/{base_idx}")]
            for bu in base_urls:
                assert frozenset((bu, r["url"])) not in pair_set


def test_minhash_end_to_end_cluster_counts(ds, minhash_edges, pages_rows):
    labels = connected_components(minhash_edges).materialize()
    kept, clusters = apply_cluster_labels(ds, labels)
    n_total = len(pages_rows)
    n_kept = kept.count()
    cdf = clusters.to_pandas()
    n_reps = int(cdf["is_representative"].sum())
    # every row is either kept (singleton or rep) or a non-rep cluster member
    assert n_kept == n_total - (len(cdf) - n_reps)
    # representative = earliest (warc_ts, url) in its cluster
    order = {r["url"]: (r["warc_ts"], r["url"]) for r in pages_rows}
    for cid, grp in cdf.groupby("cluster_id"):
        rep = grp[grp["is_representative"]]["member"].iloc[0]
        assert order[rep] == min(order[m] for m in grp["member"])


def test_simhash_catches_exact_dups(ds, pages_rows):
    edges = simhash_candidate_edges(ds, distance=3).materialize()
    edf = edges.to_pandas()
    covered = set(edf["a"]) | set(edf["b"])
    exact_planted = [r["url"] for r in pages_rows if "/dup/exact/" in r["url"]]
    hit = sum(1 for u in exact_planted if u in covered)
    assert hit == len(exact_planted)
    # all reported edges respect the distance bound
    assert (edf["hamming"] <= 3).all()


def test_components_match_union_find(minhash_edges):
    edf = minhash_edges.to_pandas()
    labels = connected_components(minhash_edges).to_pandas()
    ref = refmodel.union_find_components(list(zip(edf["a"], edf["b"])))
    assert dict(zip(labels["node"], labels["label"])) == ref


def test_components_distributed_label_propagation(ray_session):
    """Force the distributed path on a graph with known components."""
    from fastq_dupaway_ray.stages.components import _connected_components_distributed

    edges = [("a", "b"), ("b", "c"), ("x", "y"), ("p", "q"), ("q", "r"), ("r", "s")]
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["a", "b"]))
    labels = _connected_components_distributed(eds, max_rounds=10).to_pandas()
    got = dict(zip(labels["node"], labels["label"]))
    assert got == refmodel.union_find_components(edges)


def test_components_distributed_long_chain_and_random(ray_session):
    """Multi-round convergence: a 40-node chain (diameter 39 but min-label
    doubles reach per round) + a random graph, vs driver union-find."""
    from fastq_dupaway_ray.stages.components import _connected_components_distributed

    rng = np.random.default_rng(3)
    edges = [(i, i + 1) for i in range(39)]  # one long chain 0..39
    edges += [(int(a) + 100, int(b) + 100) for a, b in rng.integers(0, 60, size=(80, 2)) if a != b]
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["a", "b"]))
    labels = _connected_components_distributed(eds, max_rounds=64).to_pandas()
    got = dict(zip(labels["node"], labels["label"]))
    assert got == refmodel.union_find_components(edges)


def test_min_label_loop_chains_and_random_vs_union_find():
    """The driver solve's root-hooking relaxation on adversarial shapes:
    long chains (worst case for node-only scatter — one hop per round),
    stars, and a dense random block, numeric and string limbs both pinned
    to the union-find oracle."""
    from fastq_dupaway_ray.stages.components import (
        _components_min_label_numpy,
        _components_min_label_pairs,
    )

    rng = np.random.default_rng(7)
    edges = [(i, i + 1) for i in range(200)]  # 201-chain, ids ascending
    edges += [(1000, 1000 + k) for k in range(1, 50)]  # star
    edges += [  # chain with ids DESCENDING (min at the far end)
        (2000 + i + 1, 2000 + i) for i in range(100)
    ]
    edges += [
        (int(a) + 5000, int(b) + 5000)
        for a, b in rng.integers(0, 300, size=(500, 2))
        if a != b
    ]
    ref = refmodel.union_find_components(edges)

    a = np.array([e[0] for e in edges], dtype=object)
    b = np.array([e[1] for e in edges], dtype=object)
    nodes, labels = _components_min_label_numpy(a, b)
    assert dict(zip(nodes, labels)) == ref

    a1 = np.array([e[0] for e in edges], dtype=np.uint64)
    b1 = np.array([e[0 + 1] for e in edges], dtype=np.uint64)
    salt = np.uint64(0x9E3779B97F4A7C15)
    nodes_p, roots_p = _components_min_label_pairs(a1, a1 * salt, b1, b1 * salt)
    got = dict(zip(nodes_p["h1"].tolist(), roots_p["h1"].tolist()))
    assert got == ref


def test_word_ngram_jaccard_mode(ray_session):
    """MinHash/LSH over word 3-gram shingles with exact word-Jaccard verify:
    edge jaccard values must equal the direct word-shingle computation."""
    import numpy as np

    from fastq_dupaway_ray.functions.hashing import word_ngram_hashes
    from fastq_dupaway_ray.stages.minhash import dedup_edges_minhash

    base = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
            "kilo lima mike november oscar papa quebec romeo sierra tango ")
    rows = []
    for i in range(30):
        rows.append({"url": f"u/{i}", "warc_ts": i, "text": base + f"uniq{i} marker{i} tail{i}"})
    rows.append({"url": "u/dup", "warc_ts": 99, "text": base + "uniq0 marker0 tail0"})  # exact dup of u/0
    rows.append({"url": "u/near", "warc_ts": 100, "text": base + "uniq1 marker1 CHANGED"})  # near dup of u/1
    ds = rd.from_pandas(pd.DataFrame(rows))

    params = MinHashParams(shingle="word", word_n=3)
    edges = dedup_edges_minhash(
        ds, params=params, verify=True, threshold=0.6, order_cols=("warc_ts", "url")
    ).to_pandas()
    texts = {r["url"]: r["text"] for r in rows}
    pairs = set(zip(edges["a"], edges["b"]))
    assert ("u/0", "u/dup") in pairs or ("u/dup", "u/0") in pairs
    for _, e in edges.iterrows():
        sa = word_ngram_hashes(texts[e["a"]], 3)
        sb = word_ngram_hashes(texts[e["b"]], 3)
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        truth = inter / (len(sa) + len(sb) - inter)
        assert abs(truth - e["jaccard"]) < 1e-12
        assert e["jaccard"] >= 0.6


def test_hot_bucket_salting_preserves_connectivity(ray_session):
    """A band bucket larger than max_bucket must still union into ONE
    component (salt groups chained to the global head), with O(n) edges."""
    from fastq_dupaway_ray.stages.minhash import lsh_candidate_edges

    n = 50
    rows = pd.DataFrame(
        {
            "band_key": np.full(n, 7, dtype=np.uint64),
            "url": [f"u/{i:03d}" for i in range(n)],
            "warc_ts": np.arange(n),
        }
    )
    edges = lsh_candidate_edges(
        rd.from_pandas(rows), max_bucket=8, order_cols=("warc_ts", "url")
    ).to_pandas()
    # O(n) edge count: one per member + one per extra salt-group head
    assert len(edges) == (n - 1)
    comp = refmodel.union_find_components(list(zip(edges["a"], edges["b"])))
    labels = {comp.get(f"u/{i:03d}") for i in range(n)}
    assert len(labels) == 1


def test_north_rule_dup_pair_recall_vs_reference_assignments(minhash_edges, pages_rows):
    """North rule: dup-pair recall >= 0.99 vs the REFERENCE's own cluster
    assignments at the same config. The reference's fuzzy mode is tail-hamming
    sorted adjacency (--distance, /root/reference/src/comparator.cpp:76-91);
    refmodel.dedup_sorted mirrors it serially. Every (head, member) dup pair
    the reference finds must land in one engine cluster."""
    ref = refmodel.dedup_sorted(pages_rows, mode="hamming", distance=3)
    ref_pairs = [
        (head, m) for head, members in ref.clusters.items() for m in members if m != head
    ]
    assert len(ref_pairs) >= 20, "corpus must plant enough reference dup pairs"

    edf = minhash_edges.to_pandas()
    comp = refmodel.union_find_components(list(zip(edf["a"], edf["b"])))
    hit = sum(
        1 for h, m in ref_pairs if comp.get(h) is not None and comp.get(h) == comp.get(m)
    )
    recall = hit / len(ref_pairs)
    assert recall >= 0.99, f"dup-pair recall {recall:.4f} over {len(ref_pairs)} pairs"


def test_oph_scheme_recall_and_precision(ds, pages_rows):
    """One-permutation + densification signer: same planted-class recall as
    the K-permutation default through the full LSH pipeline."""
    from fastq_dupaway_ray.functions.sketches import MinHashParams
    from fastq_dupaway_ray.stages.minhash import dedup_edges_minhash

    edges = dedup_edges_minhash(
        ds, params=MinHashParams(scheme="oph"), verify=True, threshold=0.7
    ).to_pandas()
    covered = set(edges["a"]) | set(edges["b"])
    planted = [r["url"] for r in pages_rows if "/dup/exact/" in r["url"] or "/dup/jac095/" in r["url"]]
    assert planted
    hit = sum(1 for u in planted if u in covered)
    assert hit / len(planted) >= 0.99
    # verify step is exact jaccard -> precision holds regardless of scheme
    assert (edges["jaccard"] >= 0.7).all()


def test_simhash_paired_both_mates(ray_session):
    """Paired tail-hamming at scale (SimHash over two text columns): a pair
    is a candidate edge only if EVERY mate is within distance — matching the
    reference's both-mates hamming predicate (comparator.cpp:84-91)."""
    import pandas as pd

    import ray.data as rd

    from fastq_dupaway_ray.stages.simhash import simhash_candidate_edges

    L = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 5
    R = "one two three four five six seven eight nine ten " * 5
    R_far = "completely different unrelated content tokens everywhere " * 5
    rows = [
        {"url": "a", "warc_ts": 1, "text_1": L, "text_2": R},
        {"url": "b", "warc_ts": 2, "text_1": L, "text_2": R},       # dup of a (both mates)
        {"url": "c", "warc_ts": 3, "text_1": L, "text_2": R_far},   # left matches, right far
    ]
    edges = simhash_candidate_edges(
        rd.from_pandas(pd.DataFrame(rows)),
        distance=3,
        text_cols=("text_1", "text_2"),
        order_cols=("warc_ts", "url"),
    ).to_pandas()
    got = set(zip(edges["a"], edges["b"]))
    assert ("a", "b") in got or ("b", "a") in got
    assert not any("c" in e for e in got), got


def test_numeric_verify_join_fallback_matches_broadcast(ray_session, tmp_path, monkeypatch):
    """The numeric spine's two verify limbs (broadcast index vs hash-pair
    join) must agree on both output contracts: string (a, b, jaccard) ids,
    and with ``emit_ids=False`` the (ah1, ah2, bh1, bh2, jaccard) hash
    pairs the flagship feeds to components."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastq_dupaway_ray.stages import minhash as mh
    from fastq_dupaway_ray.stages.minhash import (
        lsh_candidate_edges,
        sign_and_band,
        verify_edges_jaccard,
    )

    def verify_over_budget(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(mh, "VERIFY_EDGE_BUDGET", 0)
            return verify_edges_jaccard(*args, **kwargs)

    base = "pack my box with five dozen liquor jugs every single day " * 3
    rows = [
        {"url": f"u{i}", "warc_ts": i, "text": base if i % 2 == 0 else f"{base} tail{i}"}
        for i in range(40)
    ]
    p = str(tmp_path / "pages")
    os.makedirs(p)
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(rows)), os.path.join(p, "part-0.parquet"))
    pages = rd.read_parquet(p)
    params = MinHashParams()
    band_rows = pages.map_batches(
        sign_and_band,
        fn_kwargs={"params": params, "numeric_ids": True},
        batch_format="pyarrow",
    )
    edges = lsh_candidate_edges(band_rows, numeric_ids=True).materialize()
    assert edges.count() > 0
    assert set(edges.schema().names) >= {"ah1", "ah2", "bh1", "bh2"}
    thr = params.threshold()
    for emit_ids in (True, False):
        via_broadcast = verify_edges_jaccard(
            edges, pages, thr, params=params, emit_ids=emit_ids
        ).to_pandas()
        via_join = verify_over_budget(
            edges, pages, thr, params=params, emit_ids=emit_ids
        ).to_pandas()
        cols = ["a", "b"] if emit_ids else ["ah1", "ah2", "bh1", "bh2"]
        key = lambda df: sorted(zip(*(df[c] for c in cols), df["jaccard"].round(9)))
        assert len(via_broadcast) > 0
        assert key(via_broadcast) == key(via_join), emit_ids
        assert set(via_broadcast.columns) == set(via_join.columns) == {*cols, "jaccard"}

    # numeric labels from the join limb come without an index: the
    # representative stage attaches their members by a scan and keeps the
    # same rows and clusters as from the indexed broadcast run
    vout: dict = {}
    indexed = verify_edges_jaccard(edges, pages, thr, params=params, emit_ids=False, out=vout)
    joined = verify_over_budget(edges, pages, thr, params=params, emit_ids=False)

    def representatives(scored, attrs):
        ctr: dict = {}
        labels = connected_components(scored.materialize()).materialize()
        kept, clus = apply_cluster_labels(pages, labels, counters=ctr, member_attrs=attrs)
        cl = clus.to_pandas()[["cluster_id", "member", "is_representative"]]
        return sorted(kept.to_pandas()["url"]), sorted(map(tuple, cl.values.tolist())), ctr["near_drops"]

    base = representatives(indexed, (vout["index_shards"], vout["attr_cols"]))
    assert base[2] > 0
    assert representatives(joined, None) == base


@pytest.fixture(scope="module")
def numeric_edges(ds):
    """Deduplicated numeric (ah1..bh2) LSH edges of the corpus in 3 blocks."""
    from fastq_dupaway_ray.stages.minhash import lsh_candidate_edges, sign_and_band

    band_rows = ds.select_columns(["url", "text"]).map_batches(
        sign_and_band, fn_kwargs={"params": MinHashParams(), "numeric_ids": True},
        batch_format="pyarrow",
    )
    edges = lsh_candidate_edges(band_rows, numeric_ids=True).to_pandas()
    edges = edges[["ah1", "ah2", "bh1", "bh2"]].drop_duplicates()
    return rd.from_pandas(np.array_split(edges, 3)).materialize()


def test_verify_scoring_limbs_agree(ds, numeric_edges, monkeypatch):
    """Scorer fan-out is sized by the edge count: a small edge list is
    scored by one task holding every block, a large one by pieces of each
    block. Both limbs, and the join limb, score the same rows."""
    from fastq_dupaway_ray.stages import exchange
    from fastq_dupaway_ray.stages import minhash as mh

    calls = []
    task = mh._score_edges_task

    class Spy:
        @staticmethod
        def remote(*args):
            piece, n_pieces, *blocks = args[5:]
            calls.append((piece, n_pieces, len(blocks)))
            return task.remote(*args)

    monkeypatch.setattr(mh, "_score_edges_task", Spy)
    params = MinHashParams()
    thr = 0.5

    def scored(**kwargs):
        df = mh.verify_edges_jaccard(
            numeric_edges, ds, thr, params=params, emit_ids=False, **kwargs
        ).to_pandas()
        return sorted(zip(df["ah1"], df["ah2"], df["bh1"], df["bh2"], df["jaccard"]))

    monkeypatch.setattr(exchange, "EXCHANGE_ROWS_PER_REDUCER", 1 << 40)
    grouped = scored()
    assert calls == [(0, 1, 3)]
    calls.clear()
    monkeypatch.setattr(exchange, "EXCHANGE_ROWS_PER_REDUCER", 1)
    pieces = scored()
    n_pieces = -(-int(mh.ray.cluster_resources()["CPU"]) * 3 // 3)
    assert calls == [(i, n_pieces, 1) for _b in range(3) for i in range(n_pieces)]
    monkeypatch.setattr(mh, "VERIFY_EDGE_BUDGET", 0)
    joined = scored()
    assert len(grouped) > 0
    assert grouped == pieces
    round9 = lambda rows: [(*r[:4], round(r[4], 9)) for r in rows]
    assert round9(grouped) == round9(joined)


def test_endpoint_index_reads_attrs_from_the_pick(ds, numeric_edges, executions):
    """The endpoint index runs one execution (the pick pass) — no schema
    probe of a lazy ``pages`` — and carries only the attr columns ``pages``
    holds."""
    from fastq_dupaway_ray.stages.minhash import build_endpoint_index

    pages = ds.map_batches(lambda t: t, batch_format="pyarrow")
    executions.clear()
    shards, texts, attrs = build_endpoint_index(
        numeric_edges, pages, attr_cols=("warc_ts", "url", "lang_score")
    )
    assert len(executions) == 1
    assert not any("limit" in op.lower() for op in executions[0])
    assert attrs == ["warc_ts"] and shards and texts
    _s, _t, attrs = build_endpoint_index(
        numeric_edges, ds.select_columns(["url", "text"]), attr_cols=("warc_ts",)
    )
    assert attrs == []


def test_verify_rejects_string_edges(ray_session):
    """verify_edges_jaccard scores numeric (ah1..bh2) edges only; string
    (a, b) edges get an explicit error naming the required columns, not a
    silent fallback."""
    from fastq_dupaway_ray.stages.minhash import verify_edges_jaccard

    pages = rd.from_pandas(pd.DataFrame({"url": ["a", "b"], "text": ["x y", "x y"]}))
    edges = rd.from_pandas(pd.DataFrame({"a": ["a"], "b": ["b"]}))
    with pytest.raises(ValueError, match="ah1"):
        verify_edges_jaccard(edges, pages, 0.5)


def test_verify_paths_agree_on_null_text(ray_session, monkeypatch):
    """Advice r2: the join verify's astype(str) turned None into the literal
    "None" (a real word-shingle token) — both verify limbs (broadcast index
    and hash-pair join) must treat null text as empty."""
    from fastq_dupaway_ray.stages import minhash as mh
    from fastq_dupaway_ray.stages.minhash import _id_hash_pair, verify_edges_jaccard

    rows = [
        {"url": "a", "warc_ts": 1, "text": None},
        {"url": "b", "warc_ts": 2, "text": None},
        {"url": "c", "warc_ts": 3, "text": "None None None tokens here repeated"},
    ]
    pages = rd.from_pandas(pd.DataFrame(rows))
    a1, a2 = _id_hash_pair(np.array(["a", "a"], dtype=object))
    b1, b2 = _id_hash_pair(np.array(["b", "c"], dtype=object))
    edges = rd.from_pandas(pd.DataFrame({"ah1": a1, "ah2": a2, "bh1": b1, "bh2": b2}))
    params = MinHashParams(shingle="word")
    broad = verify_edges_jaccard(edges, pages, 0.0, params=params).to_pandas()
    monkeypatch.setattr(mh, "VERIFY_EDGE_BUDGET", 0)
    join = verify_edges_jaccard(edges, pages, 0.0, params=params).to_pandas()
    key = lambda df: sorted(zip(df["a"], df["b"], df["jaccard"].round(9)))
    # two null texts are identical empty sets (1.0); empty vs real text is 0.0
    assert key(broad) == [("a", "b", 1.0), ("a", "c", 0.0)]
    assert key(broad) == key(join)


def test_min_label_numpy_matches_union_find_random():
    """The vectorized driver components (factorize + minimum.at relaxation)
    must equal the per-edge union-find oracle on random graphs: chains,
    stars, self-loops, duplicate edges, string + int ids."""
    from fastq_dupaway_ray.stages.components import _components_min_label_numpy

    rng = np.random.default_rng(17)
    for trial in range(8):
        n = int(rng.integers(2, 200))
        m = int(rng.integers(1, 400))
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        ids = np.array([f"u/{i:04d}" for i in range(n)], dtype=object)
        ea, eb = ids[a], ids[b]
        nodes, labels = _components_min_label_numpy(ea, eb)
        ref = refmodel.union_find_components(list(zip(ea, eb)))
        assert dict(zip(nodes, labels)) == ref, trial
    # long chain in adversarial order (worst case for naive propagation)
    k = 500
    ea = np.array([f"n{i:05d}" for i in range(k - 1, 0, -1)], dtype=object)
    eb = np.array([f"n{i:05d}" for i in range(k - 2, -1, -1)], dtype=object)
    nodes, labels = _components_min_label_numpy(ea, eb)
    assert set(labels) == {"n00000"}


def test_members_from_index_matches_attach_scan(ray_session, pages_rows):
    """Numeric labels keep the same rows and give the same clusters and
    ``near_drops`` whether apply_cluster_labels takes its members from the
    verify stage's endpoint index (``member_attrs``) or from the attach
    scan. A clustered url recrawled with unrelated text has two page rows:
    both sources give one member row per page row, and ``near_drops``
    counts rows."""
    import pyarrow as pa

    dup = next(r for r in pages_rows if "/dup/jac095/" in r["url"])
    recrawl = {**dup, "text": "an unrelated recrawl of this url " * 4}
    pages = rd.from_arrow(pa.Table.from_pylist([*pages_rows, recrawl]))
    vout: dict = {}
    edges = dedup_edges_minhash(
        pages, threshold=0.7, order_cols=("warc_ts", "url"), out=vout, emit="numeric",
    ).materialize()
    assert "index_shards" in vout, "numeric broadcast limb must have run"
    labels = connected_components(edges).materialize()
    assert "node_h1" in labels.schema().names

    def run(slim, attrs):
        ctr: dict = {}
        kept, clus = apply_cluster_labels(
            slim, labels, payload=pages, counters=ctr, member_attrs=attrs
        )
        kt = kept.to_pandas()[["url", "text"]]
        cl = clus.to_pandas()[["cluster_id", "member", "is_representative"]]
        return sorted(map(tuple, kt.values.tolist())), sorted(map(tuple, cl.values.tolist())), ctr["near_drops"]

    # the index run scans no pages: an empty ``pages`` shows it took the index
    via_index = run(pages.limit(0), (vout["index_shards"], vout["attr_cols"]))
    via_scan = run(pages, None)
    assert via_index == via_scan
    kept, clusters, near_drops = via_index
    assert [m for _c, m, _r in clusters].count(dup["url"]) == 2
    assert near_drops == sum(1 for *_cm, rep in clusters if not rep) > 0
    assert len(kept) == len(pages_rows) + 1 - near_drops


def test_apply_cluster_labels_unclustered_is_typed(ray_session):
    """No label (or no label node among the pages) keeps every row and
    gives a typed empty clusters table: the id column's type, or string
    for pandas object ids."""
    import pyarrow as pa

    rows = {"url": ["a", "b"], "warc_ts": [1, 2]}
    for pages in (rd.from_arrow(pa.table(rows)), rd.from_pandas(pd.DataFrame(rows))):
        for nodes in ([], ["zz"]):
            labels = rd.from_arrow(
                pa.table({"node": pa.array(nodes, pa.string()), "label": pa.array(nodes, pa.string())})
            )
            ctr: dict = {}
            kept, clusters = apply_cluster_labels(pages, labels, counters=ctr)
            assert clusters.schema().types == [pa.string(), pa.string(), pa.bool_()]
            assert clusters.count() == 0 and ctr["near_drops"] == 0
            assert sorted(kept.to_pandas()["url"]) == ["a", "b"]


@pytest.mark.parametrize("spine", ["string", "numeric"])
def test_apply_cluster_labels_exchange_limbs_match_broadcast(ds, monkeypatch, spine):
    """String and numeric labels keep the same rows and clusters when the
    drop set takes ``semi_filter``'s exchange limb (budget 0) and labels
    above ``DRIVER_PICK_LABELS`` (0) take the attach scan and the pick's
    hash exchange on the label, even with the verify index at hand. No Ray
    groupby runs on the forced limbs."""
    from fastq_dupaway_ray.stages import exchange, representative

    vout: dict = {}
    edges = dedup_edges_minhash(
        ds, verify=True, threshold=0.7, order_cols=("warc_ts", "url"), out=vout,
        emit="numeric" if spine == "numeric" else "ids",
    ).materialize()
    labels = connected_components(edges).materialize()
    attrs = (vout["index_shards"], vout["attr_cols"]) if spine == "numeric" else None

    def run():
        ctr: dict = {}
        kept, clus = apply_cluster_labels(
            ds.select_columns(["url", "warc_ts"]), labels, payload=ds,
            counters=ctr, member_attrs=attrs,
        )
        cl = clus.to_pandas()[["cluster_id", "member", "is_representative"]]
        return sorted(kept.to_pandas()["url"]), sorted(map(tuple, cl.values.tolist())), ctr["near_drops"]

    base = run()
    assert base[2] > 0
    monkeypatch.setattr(exchange, "DROP_BROADCAST_BUDGET", 0)
    monkeypatch.setattr(representative, "DRIVER_PICK_LABELS", 0)

    def no_groupby(*a, **k):
        raise AssertionError("Ray groupby on a forced limb")

    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    assert run() == base


def test_pair_lookup_pos_scans_equal_h1_runs():
    """A 64-bit h1 collision between two distinct ids must not hide the
    later-sorted one (leftmost-only probes silently lose it)."""
    import numpy as np

    from fastq_dupaway_ray.stages.exchange import _pair_lookup_pos

    h1s = np.array([3, 7, 7, 7, 9], dtype=np.uint64)
    h2s = np.array([0, 10, 20, 30, 5], dtype=np.uint64)
    q1 = np.array([7, 7, 7, 9, 1], dtype=np.uint64)
    q2 = np.array([30, 10, 99, 5, 0], dtype=np.uint64)
    pos, found = _pair_lookup_pos(h1s, h2s, q1, q2)
    assert found.tolist() == [True, True, False, True, False]
    assert pos[0] == 3 and pos[1] == 1 and pos[3] == 4


def test_simhash_char_feature_and_length_bucket_recall(ray_session):
    """The reference-parity SimHash config (char shingles + length_bucket +
    raised dense_limit) must recover >= 0.99 of the serial reference
    mirror's dup pairs on a planted corpus — the north-rule recall bar at
    test scale (the committed full-size run lives in RECALL_r05.json)."""
    import itertools

    import ray.data as rd

    from fastq_dupaway_ray import refmodel
    from fastq_dupaway_ray.corpus import CorpusSpec, generate_pages
    from fastq_dupaway_ray.stages.simhash import simhash_candidate_edges

    table = generate_pages(
        CorpusSpec(n_base=1200, exact_dup_rate=0.15, prefix_chain_rate=0.05,
                   hamming_rate=0.35, jaccard_rate=0.03, seed=5)
    )
    rows = table.select(["url", "warc_ts", "text"]).to_pylist()
    gt = refmodel.dedup_sorted(rows, mode="hamming", distance=2)
    gt_pairs = set()
    for members in gt.clusters.values():
        for a, b in itertools.combinations(sorted(members), 2):
            gt_pairs.add((a, b))
    assert len(gt_pairs) > 100

    edges = simhash_candidate_edges(
        rd.from_arrow(table).repartition(8),
        distance=8, feature="char", shingle_k=6,
        length_bucket=True, dense_limit=256,
    ).to_pandas()
    labels = refmodel.union_find_components(list(zip(edges["a"], edges["b"])))
    by_label: dict = {}
    for m, lab in labels.items():
        by_label.setdefault(lab, []).append(m)
    found = set()
    for members in by_label.values():
        for a, b in itertools.combinations(sorted(members), 2):
            found.add((a, b))
    recall = len(found & gt_pairs) / len(gt_pairs)
    assert recall >= 0.99, recall

    # length_bucket costs no recall vs the same config without it
    edges_nb = simhash_candidate_edges(
        rd.from_arrow(table).repartition(8),
        distance=8, feature="char", shingle_k=6, dense_limit=256,
    ).to_pandas()
    nb_set = set(map(tuple, edges_nb[["a", "b"]].itertuples(index=False)))
    lb_set = set(map(tuple, edges[["a", "b"]].itertuples(index=False)))
    # every same-length edge survives bucketing by length
    texts = {r["url"]: r["text"] for r in rows}
    same_len_nb = {
        (a, b) for a, b in nb_set if len(texts[a]) == len(texts[b])
    }
    assert same_len_nb <= lb_set


def test_dedup_config_simhash_parity_knobs(ray_session):
    """DedupConfig's simhash_* knobs reach the stage: the char-shingle
    parity config at ball 8 links a 1-char-substituted near copy that the
    default word-bigram ball 3 cannot reliably see."""
    import pandas as pd
    import ray.data as rd

    from fastq_dupaway_ray.pipelines.dedup import DedupConfig, run_dedup

    base = "alpha beta gamma delta epsilon zeta eta theta " * 6
    near = base.replace("gamma", "gamma", 1)[:-1] + "x"  # same length, 1 sub
    assert len(near) == len(base)
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [base, near, "another body entirely different words " * 6],
            "warc_ts": [0, 1, 2],
        }
    )
    out = run_dedup(
        rd.from_pandas(df),
        DedupConfig(
            mode="simhash",
            id_col="doc_id",
            order_cols=("doc_id",),
            distance=8,
            simhash_feature="char",
            simhash_shingle_k=6,
            simhash_length_bucket=True,
            simhash_dense_limit=256,
            emit_clusters=False,
        ),
    )
    kept = sorted(out.kept.to_pandas()["doc_id"])
    assert kept == [0, 2]  # the near copy merged with its original
