"""CLI mirroring the reference's flag surface over Parquet page tables.

The reference is driven as ``fastq-dupaway -i in.fq -o out.fq [--fast |
--compare-seq MODE] [--distance D] [-u in2 -p out2] [--unordered]
[--write-clusters] [--verbose]`` (/root/reference/src/main.cpp:43-96). A
reference user switches by pointing the same flags at Parquet directories:

    python -m fastq_dupaway_ray -i pages/ -o kept/ --fast
    python -m fastq_dupaway_ray -i pages/ -o kept/ --compare-seq loose --write-clusters
    python -m fastq_dupaway_ray -i pages/ -o kept/ --compare-seq tail-hamming --distance 3
    python -m fastq_dupaway_ray -i a/ -u b/ -o kept/ --fast --unordered   # id-join then dedup
    python -m fastq_dupaway_ray -i pages/ -o kept/ --minhash              # north-rule near-dup

Flag translation:
* ``--fast``                -> hash-exact keep-first dedup (A1)
* ``--compare-seq tight``   -> sorted-adjacency tight (A3; default, as in the reference)
* ``--compare-seq loose``   -> prefix-containment adjacency (A4)
* ``--compare-seq tail-hamming --distance D`` -> SimHash Hamming-ball near-dup
  (the scalable generalization; ``--exact-mirror`` selects the bit-exact
  serial-order adjacency mirror instead; ``--simhash-parity`` selects the
  measured >=0.99-recall config — char 6-shingles, same-length bucketing,
  ball >= 8 — see RECALL_r05.json)
* ``--minhash``             -> MinHash/LSH near-dup (north rule; no reference analogue)
* ``--checkpoint-root DIR`` -> per-stage checkpoints + resume for the single-input
  near-dup modes (``--minhash``, SimHash ``tail-hamming``); ignored otherwise
* ``-u SECOND --unordered`` -> inner id-join on ``url`` with unmatched counts first
* ``--write-clusters``      -> clusters Parquet next to the output (S9)
* ``--verbose``             -> print the run-summary counters (A7)
* ``--mem-limit``           -> maps to Ray Data's target block size (the
  streaming executor owns memory; the flag is honored as a hint)

Every mode runs ``pipelines.dedup.run_dedup``; every input, parquet or
FASTA/FASTQ, single or paired, is read through the same quarantining reader
(malformed rows are counted in ``--verbose``'s ``quarantined``, not kept).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fastq_dupaway_ray",
        description="Ray-Data-native dedup over Parquet page tables (reference-compatible flags)",
    )
    p.add_argument("-i", "--input-1", required=True, help="input Parquet dir/file (required)")
    p.add_argument("-u", "--input-2", help="second input (enables paired/join mode)")
    p.add_argument("-o", "--output-1", required=True, help="output Parquet dir (required)")
    p.add_argument("-p", "--output-2",
                   help="second output Parquet dir (paired mode): the right-mate "
                        "projection; without it the joined pair table goes to -o")
    p.add_argument("-m", "--mem-limit", type=int, default=2048,
                   help="memory hint in MB [500..10240] -> Ray block size")
    p.add_argument("--compare-seq", choices=["tight", "loose", "tail-hamming"], default=None)
    p.add_argument("--distance", type=int, default=2)
    p.add_argument("--fast", action="store_true", help="hash-based exact dedup")
    p.add_argument("--minhash", action="store_true", help="MinHash/LSH near-dup (north rule)")
    p.add_argument("--exact-mirror", action="store_true",
                   help="with tail-hamming: bit-exact serial adjacency instead of SimHash")
    p.add_argument("--simhash-parity", action="store_true",
                   help="with tail-hamming (SimHash path): the reference-parity "
                        "recall config — char 6-shingle features, same-length "
                        "bucketing, dense_limit=256 (>=0.99 dup-pair recall vs "
                        "the reference clusters; see RECALL_r05.json)")
    p.add_argument("--unordered", action="store_true", help="id-join paired inputs first (fast mode only)")
    p.add_argument("--write-clusters", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--format", choices=["fasta", "fastq"], default=None,
                   help="force FASTA/FASTQ input parsing (reference --format; "
                        "otherwise inferred from the file extension)")
    p.add_argument("--id-col", default="url")
    p.add_argument("--text-col", default="text")
    p.add_argument("--checkpoint-root", default=None, help="stage checkpoint dir (resume support)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # checked first: the flag is honoured only when the mode resolves to
    # simhash (--minhash and --fast take precedence over --compare-seq)
    if args.simhash_parity and (
        args.minhash or args.fast or args.exact_mirror or args.compare_seq != "tail-hamming"
    ):
        print("--simhash-parity applies only to --compare-seq tail-hamming "
              "(without --exact-mirror)!", file=sys.stderr)
        return 2
    if args.fast and args.compare_seq:
        print("--fast mode was enabled, but argument(s) for sequence-based mode were provided!",
              file=sys.stderr)
        return 2
    if args.unordered and (not args.fast or not args.input_2):
        print("--unordered argument can only be used with --fast mode and paired inputs!",
              file=sys.stderr)
        return 2
    if not (500 <= args.mem_limit <= 10240):
        print("Value of unsupported range provided for --mem-limit option!", file=sys.stderr)
        return 2

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().target_max_block_size = args.mem_limit * 1024 * 1024 // 16

    from .pipelines.dedup import NEAR_MODES, DedupConfig, run_dedup, spool_fastx_once
    from .sources.pages import read_pages, split_quarantine

    if args.minhash:
        mode = "minhash"
    elif args.fast:
        mode = "exact"
    elif args.compare_seq == "tail-hamming":
        mode = "hamming" if args.exact_mirror else "simhash"
    elif args.compare_seq == "loose":
        mode = "loose"
    else:
        mode = "tight"  # the reference's default comparison mode

    paired = bool(args.input_2)
    ckpt_root = args.checkpoint_root if (mode in NEAR_MODES and not paired) else None
    if args.checkpoint_root and ckpt_root is None:
        print("--checkpoint-root ignored: only single-input --minhash and "
              "--compare-seq tail-hamming (SimHash) runs persist stages; "
              "--fast, tight, loose, --exact-mirror and paired runs persist nothing",
              file=sys.stderr)

    if paired:
        from .stages.join import join_unordered

        def _load(path):
            # the same quarantining reader run_dedup uses for a path (M9)
            raw = read_pages(spool_fastx_once(path, None, args.format)[0])
            return split_quarantine(raw, args.id_col, args.text_col)[0]

        jr = join_unordered(_load(args.input_1), _load(args.input_2), key=args.id_col)
        if args.verbose:
            print(f"joined: {jr.matched} matched, {jr.unmatched} unmatched", file=sys.stderr)
        src = jr.pairs
        # after the join every clashing column is suffixed _l/_r; only the
        # join key survives unsuffixed — order/text/key columns must follow
        key_cols = (f"{args.text_col}_l", f"{args.text_col}_r")  # paired AND-semantics
        order_cols = ("warc_ts_l", args.id_col)
    else:
        src = args.input_1
        if args.format:  # forced FASTA/FASTQ parse, whatever the extension
            src = spool_fastx_once(src, ckpt_root, args.format)[0]
        key_cols = (args.text_col,)
        order_cols = ("warc_ts", args.id_col)

    cfg = DedupConfig(
        mode=mode,
        key_cols=key_cols,
        id_col=args.id_col,
        text_col=args.text_col if not paired else f"{args.text_col}_l",
        # paired sequence-based modes compare BOTH mates (reference EP3,
        # /root/reference/src/seq_dup_remover.hpp:131-218); paired simhash
        # likewise verifies both mates within --distance
        text_cols=key_cols if (paired and mode in ("tight", "loose", "hamming", "simhash")) else None,
        order_cols=order_cols,
        distance=(
            # the parity recall measurement holds at ball 8; honor a larger
            # user --distance, never shrink below the measured config
            max(args.distance, 8)
            if (args.simhash_parity and mode == "simhash")
            else args.distance
        ),
        emit_clusters=args.write_clusters,
        **(
            {
                "simhash_feature": "char",
                "simhash_shingle_k": 6,
                "simhash_length_bucket": True,
                "simhash_dense_limit": 256,
            }
            if (args.simhash_parity and mode == "simhash")
            else {}
        ),
    )
    out = run_dedup(src, cfg, ckpt_root)
    from .sources.fastx import is_fastx_path, write_fastx

    if is_fastx_path(args.output_1) and not paired:
        # drop-in reference parity: single fastx sink, records in file order,
        # clusters side file in the reference's byte format
        from .sources.fastx import infer_format, write_clusters_reference_format

        n = write_fastx(out.kept, args.output_1, fmt=args.format)
        if args.write_clusters and out.clusters is not None:
            write_clusters_reference_format(
                out.clusters,
                args.output_1 + ".clusters",
                fmt=args.format or infer_format(args.output_1) or "fasta",
            )
        if args.verbose:
            print(json.dumps({**out.metrics, "written": n}))
        return 0
    paired_fastx = (
        paired
        and args.output_2
        and is_fastx_path(args.output_1)
        and is_fastx_path(args.output_2)
    )
    if not paired_fastx:  # fastx sinks are FILES — don't pre-create a dir
        os.makedirs(args.output_1, exist_ok=True)
    if paired and args.output_2:
        # reference parity: two sinks, one per mate file
        # (/root/reference/src/main.cpp:206-216) — project each side's
        # suffixed columns back to the original names
        names = out.kept.schema().names
        if not paired_fastx:
            os.makedirs(args.output_2, exist_ok=True)

        def side_projection(suffix):
            side_cols = [c for c in names if c.endswith(suffix)]
            # columns present on only one input side stay unsuffixed after the
            # join (suffixes apply only to clashing names) — keep them in both
            # sinks under their original name rather than silently dropping
            shared = [
                c for c in names
                if c != args.id_col and not (c.endswith("_l") or c.endswith("_r"))
            ]

            def project(df):
                out_df = df[[args.id_col, *shared, *side_cols]].copy()
                out_df.columns = [
                    args.id_col, *shared, *[c[: -len(suffix)] for c in side_cols]
                ]
                return out_df

            return project

        # map_batches projection (not Dataset.rename_columns: the Project
        # operator assumes Arrow blocks and the adjacency path emits pandas)
        left = out.kept.map_batches(side_projection("_l"), batch_format="pandas")
        right = out.kept.map_batches(side_projection("_r"), batch_format="pandas")
        if paired_fastx:
            # reference parity: paired fastx sinks (one mate file per side,
            # /root/reference/src/main.cpp:206-216) — previously this fell
            # through to parquet directories NAMED *.fastq with no warning
            write_fastx(left, args.output_1, fmt=args.format)
            write_fastx(right, args.output_2, fmt=args.format)
        else:
            left.write_parquet(args.output_1)
            right.write_parquet(args.output_2)
    else:
        out.kept.write_parquet(args.output_1)
    if args.write_clusters and out.clusters is not None:
        out.clusters.write_parquet(args.output_1.rstrip("/") + ".clusters")
    if args.verbose:
        print(json.dumps(out.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
