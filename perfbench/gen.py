"""Seeded benchmark inputs and their cache.

Two input kinds, both a pure function of (seed, spec):

* ``crawl`` — a pages Parquet table (url, warc_ts, html, text, lang) built on
  ``corpus.generate_pages`` (exact copies, char-Hamming copies, prefix chains,
  token-edit near-dups at Jaccard 0.95/0.8/0.5) plus heavy-tailed duplicate
  classes, two of them above the LSH ``max_bucket=256`` salt limit, and a
  small share of malformed rows (empty url, null text).
* ``reads`` — one FASTQ file of 150-bp reads, ~20% exact duplicates of earlier
  reads, plus a few records whose quality line is shorter than the sequence.

Each input carries a truth table the program never sees: one row per input
row with its planted ``base`` (the row it was copied from, or itself), its
``kind`` (base / exact / near / prefix / ham / malformed) and its row ``ord``.

Cache entries live in ``<cache_root>/<name>-s<seed>-<spec hash>/``. An entry
is built in a temporary sibling directory and renamed into place when
complete; a content manifest (size + sha256 per file) is checked on every
load, so a partial or damaged entry is rebuilt, never reused.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST = "MANIFEST.json"


@dataclasses.dataclass(frozen=True)
class CrawlSpec:
    n_base: int = 1600
    exact_dup_rate: float = 0.6
    prefix_chain_rate: float = 0.05
    hamming_rate: float = 0.08
    jaccard_rate: float = 0.06
    # heavy-tailed extra duplicate classes: members per class. Half of each
    # tail class (a quarter of each hot class) are exact copies, the rest
    # one-token edits; the hot classes keep > 256 distinct texts each, so
    # their LSH buckets get salted.
    hot_class_sizes: tuple = (900, 640)
    tail_class_sizes: tuple = (96, 64, 40, 28, 20, 16, 12, 10, 8, 8, 6, 6, 5, 5,
                               4, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2)
    malformed: int = 40  # half empty url, half null text
    shards: int = 4


@dataclasses.dataclass(frozen=True)
class ReadsSpec:
    n_reads: int = 12_000
    read_len: int = 150
    dup_rate: float = 0.2
    malformed: int = 40


def spec_key(spec) -> str:
    blob = json.dumps([type(spec).__name__, dataclasses.asdict(spec)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _truth_table(urls, base, kind) -> pa.Table:
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "base": pa.array(base, pa.int64()),
        "kind": pa.array(kind, pa.string()),
        "ord": pa.array(np.arange(len(urls)), pa.int64()),
    })


def _one_token_edit(rng, text: str, words) -> str:
    toks = text.split()
    toks[rng.randint(0, len(toks))] = words[rng.randint(0, len(words))] + "x"
    return " ".join(toks)


def build_crawl(spec: CrawlSpec, seed: int):
    """-> (pages table, truth table)."""
    from fastq_dupaway_ray import corpus

    pages = corpus.generate_pages(corpus.CorpusSpec(
        n_base=spec.n_base,
        exact_dup_rate=spec.exact_dup_rate,
        prefix_chain_rate=spec.prefix_chain_rate,
        hamming_rate=spec.hamming_rate,
        jaccard_rate=spec.jaccard_rate,
        seed=seed,
    ))
    urls = pages["url"].to_pylist()
    texts = pages["text"].to_pylist()
    ts = pages["warc_ts"].to_pylist()
    langs = pages["lang"].to_pylist()
    # generate_pages encodes the planted base in the url:
    # .../p/<i> for base i, .../dup/<class>/<i>/<copy> for its copies
    base, kind = [], []
    for u in urls:
        parts = u.split("/")
        if parts[-2] == "p":
            base.append(int(parts[-1]))
            kind.append("base")
        else:
            base.append(int(parts[-2]))
            cls = parts[-3]
            kind.append("exact" if cls == "exact" else "prefix" if cls == "prefix"
                        else "ham" if cls.startswith("ham") else "near")

    rng = np.random.RandomState(seed ^ 0x5A5A5A)
    words = corpus._WORDS
    last_ts = max(ts)
    step = ts[1] - ts[0]

    def emit(url, text, b, k, lang):
        nonlocal last_ts
        last_ts = last_ts + step
        urls.append(url)
        texts.append(text)
        ts.append(last_ts)
        langs.append(lang)
        base.append(b)
        kind.append(k)

    classes = list(spec.hot_class_sizes) + list(spec.tail_class_sizes)
    # hot-class heads have fixed, well separated lengths and edits within a
    # class are distinct, so every seed plants the same amount of duplicate
    # text (a 900-member class of 120-word pages is ~4x the work of one of
    # 30-word pages; colliding edits would turn into exact copies). Heads of
    # equal length would let the length-bucketed SimHash path chain the two
    # hot classes together on some seeds.
    n_words = np.array([len(texts[i].split()) for i in range(spec.n_base)])
    lo, hi = corpus.CorpusSpec.words_per_doc
    heads = []
    for target in np.linspace(lo, hi, len(spec.hot_class_sizes) + 2)[1:-1]:
        order = np.argsort(np.abs(n_words - target), kind="stable")
        heads.append(next(int(i) for i in order if i not in heads))
    rest = np.setdiff1d(np.arange(spec.n_base), heads)
    heads += rng.choice(rest, size=len(spec.tail_class_sizes), replace=False).tolist()
    for c, (h, size) in enumerate(zip(heads, classes)):
        n_exact = size // 2 if c >= len(spec.hot_class_sizes) else size // 4
        seen = {texts[h]}
        for m in range(size):
            if m < n_exact:
                text, k = texts[h], "exact"
            else:
                text, k = texts[h], "near"
                while text in seen:
                    text = _one_token_edit(rng, texts[h], words)
                seen.add(text)
            emit(f"https://hot{c}.example/dup/{k}/{h}/{m}", text, int(h), k, langs[h])
    for m in range(spec.malformed):
        h = int(rng.randint(0, spec.n_base))
        if m % 2:
            emit("", texts[h], h, "malformed", langs[h])
        else:
            emit(f"https://bad.example/null/{h}/{m}", None, h, "malformed", langs[h])

    # shuffle arrival so copies interleave with their bases the way a crawl
    # does; keep-first order stays defined by (warc_ts, url)
    perm = rng.permutation(len(urls))
    ts_sorted = sorted(ts)
    cols = {
        "url": [urls[i] for i in perm],
        "warc_ts": ts_sorted,
        "text": [texts[i] for i in perm],
        "lang": [langs[i] for i in perm],
    }
    table = pa.table({
        "url": pa.array(cols["url"], pa.string()),
        "warc_ts": pa.array(cols["warc_ts"], pa.timestamp("us")),
        "html": pa.array([None if t is None else corpus.render_html(t) for t in cols["text"]],
                         pa.binary()),
        "text": pa.array(cols["text"], pa.string()),
        "lang": pa.array(cols["lang"], pa.string()),
    })
    truth = _truth_table(cols["url"], [base[i] for i in perm], [kind[i] for i in perm])
    return table, truth


def build_reads(spec: ReadsSpec, seed: int):
    """-> (FASTQ bytes, truth table). Read ids are ``r<ord>``."""
    rng = np.random.RandomState(seed)
    n, L = spec.n_reads, spec.read_len
    seqs = np.frombuffer(b"ACGT", np.uint8)[rng.randint(0, 4, size=(n, L))]
    base = np.arange(n)
    dup = np.nonzero(rng.rand(n) < spec.dup_rate)[0]
    dup = dup[dup > 0]
    base[dup] = (rng.rand(len(dup)) * dup).astype(np.int64)  # an earlier read
    while not np.array_equal(base[base], base):  # chains collapse onto the original
        base = base[base]
    seqs = seqs[base]
    bad = set(rng.choice(n, size=spec.malformed, replace=False).tolist())
    kind = np.where(base == np.arange(n), "base", "exact").astype(object)
    out = []
    qual = b"I" * L
    for i in range(n):
        s = seqs[i].tobytes()
        q = qual[:-1] if i in bad else qual  # qual length != seq length
        if i in bad:
            kind[i] = "malformed"
        out.append(b"@r%d\n%s\n+\n%s\n" % (i, s, q))
    truth = _truth_table([f"r{i}" for i in range(n)], base.tolist(), kind.tolist())
    return b"".join(out), truth


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(entry: str, meta: dict) -> None:
    files = {}
    for root, _dirs, names in os.walk(entry):
        for name in names:
            p = os.path.join(root, name)
            files[os.path.relpath(p, entry)] = {"size": os.path.getsize(p), "sha256": _sha256(p)}
    with open(os.path.join(entry, MANIFEST), "w") as f:
        json.dump({"meta": meta, "files": files}, f, indent=1, sort_keys=True)


def _manifest_ok(entry: str) -> dict | None:
    try:
        with open(os.path.join(entry, MANIFEST)) as f:
            man = json.load(f)
        present = set()
        for root, _dirs, names in os.walk(entry):
            present |= {os.path.relpath(os.path.join(root, n), entry) for n in names}
        if present != set(man["files"]) | {MANIFEST}:
            return None
        for rel, want in man["files"].items():
            p = os.path.join(entry, rel)
            if os.path.getsize(p) != want["size"] or _sha256(p) != want["sha256"]:
                return None
        return man["meta"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _materialize(entry: str, kind: str, spec, seed: int, extra) -> dict:
    """Write the inputs of one cache entry into ``entry``; returns its meta."""
    if kind == "crawl":
        table, truth = build_crawl(spec, seed)
        os.makedirs(os.path.join(entry, "pages"))
        n = table.num_rows
        step = -(-n // spec.shards)
        for s in range(spec.shards):
            pq.write_table(table.slice(s * step, step),
                           os.path.join(entry, "pages", f"part-{s:05d}.parquet"))
        input_rel = "pages"
    else:
        data, truth = build_reads(spec, seed)
        with open(os.path.join(entry, "reads.fastq"), "wb") as f:
            f.write(data)
        input_rel = "reads.fastq"
    pq.write_table(truth, os.path.join(entry, "truth.parquet"))
    meta = {"kind": kind, "seed": seed, "spec": dataclasses.asdict(spec),
            "input": input_rel, "rows": truth.num_rows}
    if extra is not None:
        meta.update(extra(entry, meta))
    return meta


def ensure_inputs(cache_root: str, name: str, kind: str, spec, seed: int,
                  extra=None) -> tuple[str, dict]:
    """Return (entry dir, meta) for (name, spec, seed), building it if needed.

    ``extra(entry, meta) -> dict`` adds derived artifacts (e.g. the ground
    truth) to the entry before it is sealed; it runs only on a rebuild."""
    tag = f"{name}-s{seed}-{spec_key(spec)}"
    entry = os.path.join(cache_root, tag)
    meta = _manifest_ok(entry)
    if meta is not None:
        return entry, meta
    for stale in [entry, *glob.glob(f"{entry}.tmp*")]:  # damaged or crashed builds
        shutil.rmtree(stale, ignore_errors=True)
    tmp = f"{entry}.tmp{os.getpid()}"
    os.makedirs(tmp)
    try:
        meta = _materialize(tmp, kind, spec, seed, extra)
        _write_manifest(tmp, meta)
        os.rename(tmp, entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return entry, meta
