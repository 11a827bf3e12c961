"""Serial ground truth, per-pass output checks and dup-pair scoring.

Everything here runs outside the timed section, in the benchmark's parent
process, over the files a CLI pass left behind.

Ground truth per workload:

* ``reads_exact`` — ``refmodel.dedup_hash`` keep-first over the valid reads;
  its clusters give the duplicate pairs.
* ``crawl_simhash`` — ``refmodel.dedup_sorted(mode="hamming")`` at the
  reference ``--distance`` (2), scored as all pairs within each reference
  cluster, the way ``scripts/recall_eval.py`` scores the parity config.
* ``crawl_minhash`` — planted (base, copy) pairs whose exact char 8-shingle
  Jaccard is at or above the default ``MinHashParams`` threshold.

Quality ratios (``score_pairs``), each over valid rows only:

* ``exact_dup_recall`` — planted exact-copy pairs that share a final
  representative ÷ planted exact-copy pairs;
* ``dup_recall`` — ground-truth pairs that share one ÷ ground-truth pairs;
* ``merge_precision`` — merged pairs whose rows share a planted base ÷
  merged pairs.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter, defaultdict

import pyarrow.dataset as pads
import pyarrow.parquet as pq

SIMHASH_CHAR_DISTANCE = 2  # the CLI's default --distance


def _read_dir(path: str, columns=None):
    return pads.dataset(path, format="parquet").to_table(columns=columns)


def _valid_rows(entry: str, meta: dict) -> list[dict]:
    """Input rows the pipeline treats as valid, with truth columns joined."""
    truth = pq.read_table(os.path.join(entry, "truth.parquet")).to_pylist()
    if meta["kind"] == "reads":
        with open(os.path.join(entry, meta["input"]), "rb") as f:
            lines = f.read().split(b"\n")
        for t, i in zip(truth, range(0, len(truth) * 4, 4)):
            t["text"] = lines[i + 1].decode()
            t["warc_ts"] = t["ord"]
        return [t for t in truth if t["kind"] != "malformed"]
    pages = _read_dir(os.path.join(entry, meta["input"]), ["url", "warc_ts", "text"]).to_pylist()
    by_url = {t["url"]: t for t in truth}
    rows = []
    for p in pages:
        if not p["url"] or p["text"] is None:
            continue
        rows.append({**by_url[p["url"]], **p})
    return rows


def shingles(text: str, k: int = 8) -> set:
    return {text[i:i + k] for i in range(max(1, len(text) - k + 1))}


def jaccard(a: str, b: str, k: int = 8) -> float:
    sa, sb = shingles(a, k), shingles(b, k)
    return len(sa & sb) / len(sa | sb) if sa or sb else 1.0


def cluster_pairs(groups) -> set:
    """All unordered member pairs within each group."""
    pairs = set()
    for members in groups:
        pairs.update(itertools.combinations(sorted(members), 2))
    return pairs


def ground_truth(workload: str, entry: str, meta: dict) -> dict:
    """-> {"gt_pairs": [[a, b]...], "exact_pairs": [...], "kept": [...]?}"""
    from fastq_dupaway_ray import refmodel
    from fastq_dupaway_ray.functions.sketches import MinHashParams

    rows = _valid_rows(entry, meta)
    base_url = {r["base"]: r["url"] for r in rows if r["kind"] == "base"}
    exact_pairs = sorted(
        tuple(sorted((base_url[r["base"]], r["url"])))
        for r in rows if r["kind"] == "exact" and r["base"] in base_url
    )
    out = {"exact_pairs": exact_pairs}
    order = lambda r: (r["warc_ts"], r["url"])  # noqa: E731
    if workload == "reads_exact":
        res = refmodel.dedup_hash(rows, keys=("text",), key="url", order=order)
        out["gt_pairs"] = sorted(cluster_pairs(res.clusters.values()))
        out["kept"] = sorted(r["url"] for r in res.kept)
    elif workload == "crawl_simhash":
        res = refmodel.dedup_sorted(rows, mode="hamming", distance=SIMHASH_CHAR_DISTANCE,
                                    order=order)
        out["gt_pairs"] = sorted(cluster_pairs(res.clusters.values()))
    else:
        threshold = MinHashParams().threshold()
        text = {r["url"]: r["text"] for r in rows}
        out["gt_pairs"] = sorted(
            tuple(sorted((base_url[r["base"]], r["url"])))
            for r in rows
            if r["kind"] != "base" and r["base"] in base_url
            and jaccard(text[base_url[r["base"]]], r["text"],
                        MinHashParams().shingle_k) >= threshold
        )
    return out


def score_pairs(rep: dict, base: dict, gt_pairs, exact_pairs) -> dict:
    """Quality ratios from a final-representative map.

    ``rep``: url -> url of the row it was merged into (itself when kept
    alone); ``base``: url -> planted base id. A ratio over zero pairs is 1.0
    (nothing to miss, nothing wrongly merged)."""
    def recall(pairs):
        pairs = list(pairs)
        if not pairs:
            return 1.0
        return sum(1 for a, b in pairs if rep.get(a, a) == rep.get(b, b)) / len(pairs)

    groups = defaultdict(Counter)
    for url, r in rep.items():
        groups[r][base.get(url)] += 1
    merged = same = 0
    for by_base in groups.values():
        n = sum(by_base.values())
        merged += n * (n - 1) // 2
        same += sum(c * (c - 1) // 2 for b, c in by_base.items() if b is not None)
    return {
        "exact_dup_recall": recall(exact_pairs),
        "dup_recall": recall(gt_pairs),
        "merge_precision": same / merged if merged else 1.0,
    }


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_clusters(members: list[tuple], kept: set, order: dict) -> dict:
    """Every cluster has exactly one representative; it is the keep-first
    (warc_ts, url) member and is present in the kept output.

    Rows that share a url are one document to the near-dup stages (their id
    contract), so a member id listed once per conflated row counts once.
    Members without an entry in ``order`` (empty urls, whose order is
    ambiguous) are left out of the keep-first comparison. Returns member ->
    representative."""
    by_cluster = defaultdict(dict)
    for cid, m, is_rep in members:
        _require(by_cluster[cid].setdefault(m, is_rep) == is_rep,
                 f"cluster {cid!r}: member {m!r} is and is not its representative")
    rep = {}
    for cid, ms in by_cluster.items():
        reps = [m for m, is_rep in ms.items() if is_rep]
        _require(len(reps) == 1, f"cluster {cid!r} has {len(reps)} representatives")
        if reps[0] in order:
            first = min((m for m in ms if m in order), key=lambda m: order[m])
            _require(reps[0] == first, f"cluster {cid!r}: representative is not keep-first")
        _require(reps[0] in kept, f"cluster {cid!r}: representative missing from kept output")
        for m in ms:
            rep[m] = reps[0]
    return rep


def _fastx_ids(path: str) -> list[str]:
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    return [lines[i][1:].decode() for i in range(0, len(lines) - 1, 4)]


class Checker:
    """Checks CLI pass outputs for one input; loads the truth once."""

    def __init__(self, workload: str, entry: str, meta: dict, gt: dict):
        self.workload, self.entry, self.meta, self.gt = workload, entry, meta, gt
        truth = pq.read_table(os.path.join(entry, "truth.parquet")).to_pylist()
        self.base = {t["url"]: t["base"] for t in truth if t["kind"] != "malformed"}
        self.n_malformed = sum(1 for t in truth if t["kind"] == "malformed")
        self.rows = _valid_rows(entry, meta)
        self.order = {r["url"]: (r["warc_ts"], r["url"]) for r in self.rows}
        if workload == "crawl_simhash":
            # this path does not quarantine, so null-text rows are ordinary
            # rows with a unique url and take part in the keep-first check
            pages = _read_dir(os.path.join(entry, meta["input"]), ["url", "warc_ts"])
            self.order = {u: (t, u) for u, t in zip(pages["url"].to_pylist(),
                                                     pages["warc_ts"].to_pylist()) if u}
        if workload == "crawl_minhash":
            self.winner = {}  # text -> keep-first valid row with that text
            for r in sorted(self.rows, key=lambda r: self.order[r["url"]]):
                self.winner.setdefault(r["text"], r["url"])

    def check(self, out_dir: str, stdout: str) -> dict:
        """Check one pass; raises CheckFailed on any violation. Returns the
        quality ratios and the conservation terms."""
        if self.workload == "reads_exact":
            rep, terms = self._reads(out_dir)
        else:
            rep, terms = self._crawl(out_dir, stdout)
        total = self.meta["rows"]
        _require(sum(terms[k] for k in ("quarantined", "exact_drops", "near_drops", "kept"))
                 == total, f"conservation: {terms} does not add up to {total} input rows")
        for r in self.rows:
            rep.setdefault(r["url"], r["url"])
        rep = {u: v for u, v in rep.items() if u in self.base}
        return {**score_pairs(rep, self.base, self.gt["gt_pairs"], self.gt["exact_pairs"]),
                "terms": terms}

    def _reads(self, out_dir: str):
        kept_ids = _fastx_ids(os.path.join(out_dir, "kept.fastq"))
        kept = set(kept_ids)
        _require(len(kept) == len(kept_ids), "duplicate ids in kept output")
        _require(sorted(kept) == self.gt["kept"], "kept set differs from refmodel.dedup_hash")
        members, head = [], None
        with open(os.path.join(out_dir, "kept.fastq.clusters")) as f:
            for line in f.read().splitlines():
                if line.startswith("--@"):
                    members.append((head, line[3:], False))
                else:
                    _require(line.startswith("@"), f"bad clusters line {line!r}")
                    head = line[1:]
                    members.append((head, head, True))
        rep = _check_clusters(members, kept, self.order)
        _require({h for h, _, is_rep in members if is_rep} == kept,
                 "clusters heads differ from kept records")
        terms = {"quarantined": self.meta["rows"] - len(rep),
                 "exact_drops": len(rep) - len(kept), "near_drops": 0, "kept": len(kept)}
        _require(terms["quarantined"] == self.n_malformed,
                 "quarantined != planted malformed records")
        return rep, terms

    def _crawl(self, out_dir: str, stdout: str):
        kept_list = _read_dir(os.path.join(out_dir, "kept"), ["url"])["url"].to_pylist()
        kept = set(kept_list)
        # empty urls are malformed rows; only the non-quarantining path keeps
        # them, and it cannot tell them apart
        dup = [u for u, n in Counter(kept_list).items() if n > 1 and u]
        _require(not dup, f"duplicate urls in kept output: {dup[:3]}")
        ctab = _read_dir(os.path.join(out_dir, "kept.clusters"))
        members = list(zip(*(ctab[c].to_pylist()
                             for c in ("cluster_id", "member", "is_representative"))))
        rep = _check_clusters(members, kept, self.order)
        near_drops = sum(1 for m in members if not m[2])
        if self.workload == "crawl_simhash":
            _require(all(r["url"] in kept or r["url"] in rep for r in self.rows),
                     "valid row missing from both outputs")
            malformed = sum(1 for m in members if m[1] not in self.base)
            return rep, {"quarantined": 0, "exact_drops": 0, "near_drops": near_drops,
                         "kept": len(kept_list), "malformed_clustered": malformed}
        ctr = json.loads(stdout.strip().splitlines()[-1])
        terms = {"quarantined": ctr["quarantined"], "exact_drops": ctr["exact_dup_removed"],
                 "near_drops": ctr["near_dup_removed"], "kept": ctr["kept"]}
        _require(terms["kept"] == len(kept), "--verbose kept != kept output rows")
        _require(terms["near_drops"] == near_drops, "--verbose near drops != clusters")
        _require(terms["quarantined"] == self.n_malformed,
                 "quarantined != planted malformed rows")
        # exact drops: every valid row absent from both outputs must have an
        # identical-text row that comes first and survived
        dropped = [r for r in self.rows if r["url"] not in kept and r["url"] not in rep]
        _require(len(dropped) == terms["exact_drops"], "--verbose exact drops != missing rows")
        for r in dropped:
            w = self.winner[r["text"]]
            _require(w != r["url"] and (w in kept or w in rep),
                     f"row {r['url']!r} dropped without a surviving exact twin")
            rep[r["url"]] = rep.get(w, w)
        return rep, terms
