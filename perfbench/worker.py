"""Benchmark child process: one Ray session, then CLI (and traced) passes.

Started by ``run.py`` in a fresh process with its own session id, so the
parent can time set-up from process start and reap every process Ray
started. Protocol on stdout, one line each:

    READY                      Ray is up and the package is imported
    PASS <i> <kind> start      kind: warm | timed | traced
    PASS <i> <kind> end <s>

Everything else goes to files under the job's ``out`` directory:
``pass<i>/rec.json`` (exit code, error, seconds), ``pass<i>/stdout.txt``,
``rss.json`` (peak RSS after the timed CLI passes) and ``spans.json``. With ``--probe`` the process stops after
READY: the parent times it and kills its session.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def say(*parts) -> None:
    sys.stdout.write(" ".join(str(p) for p in parts) + "\n")
    sys.stdout.flush()


def start_ray(ray_tmp: str, num_cpus: int) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,  # inputs are a few MB; reserve little shared memory
        _temp_dir=ray_tmp,
        # keep idle workers between passes: by default Ray kills workers above
        # the CPU count after 1 s idle; restarting them mid-pass made warm
        # MinHash passes vary by up to +-40% (1-CPU session, 4-vCPU VM, Ray 2.49)
        _system_config={"idle_worker_killing_time_threshold_ms": 3_600_000},
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    # the modules the CLI imports lazily: set-up owns their import cost
    import fastq_dupaway_ray.__main__  # noqa: F401
    import fastq_dupaway_ray.pipelines.dedup  # noqa: F401
    import fastq_dupaway_ray.pipelines.flagship  # noqa: F401
    import fastq_dupaway_ray.sources.fastx  # noqa: F401


def cli_pass(argv: list[str], out_dir: str) -> dict:
    """One in-process CLI call; stdout captured to ``out_dir/stdout.txt``."""
    from fastq_dupaway_ray.__main__ import main

    argv = [a.replace("{out}", out_dir) for a in argv]
    buf = io.StringIO()
    rec = {"rc": None, "error": None}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rec["rc"] = main(argv)
    except Exception:  # a crashed pass is a failed pass, not a crashed run
        rec["error"] = traceback.format_exc()
    rec["s"] = time.perf_counter() - t0
    with open(os.path.join(out_dir, "stdout.txt"), "w") as f:
        f.write(buf.getvalue())
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--job", required=True, help="job spec JSON written by run.py")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    with open(args.job) as f:
        job = json.load(f)
    import ray

    try:
        start_ray(job["ray_tmp"], job["num_cpus"])
        say("READY")
        if args.probe:
            time.sleep(3600)  # the parent kills this session once READY is read
            return 0
        i = 0

        def run(kind, fn):
            nonlocal i
            say("PASS", i, kind, "start")
            out_dir = os.path.join(job["out"], f"pass{i:02d}")
            os.makedirs(out_dir, exist_ok=True)
            t0 = time.perf_counter()
            try:
                rec = fn(out_dir)
            except Exception:  # a crashed pass is a failed pass, not a crashed run
                rec = {"rc": None, "error": traceback.format_exc(),
                       "s": time.perf_counter() - t0}
            with open(os.path.join(out_dir, "rec.json"), "w") as f:
                json.dump(rec, f)
            say("PASS", i, kind, "end", f"{rec['s']:.6f}")
            i += 1
            return rec

        cli = lambda d: cli_pass(job["argv"], d)  # noqa: E731
        run("warm", cli)
        seconds = job["seconds"]
        if job["trace"]:
            from tracing import Tracer, traced_pass

            tracer = Tracer()
            seconds /= 2  # half the run times CLI passes, half traced ones
        # another pass starts only while it is expected to end within the
        # budget, so a run's length does not depend on how far the last pass
        # overshoots
        spent, n, last = 0.0, 0, 0.0
        while n < job["min_timed"] or spent + last <= seconds:
            last = run("timed", cli)["s"]
            spent += last
            n += 1
        with open(os.path.join(job["out"], "rss.json"), "w") as f:
            json.dump({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, f)
        if job["trace"]:
            spent, n, last = 0.0, 0, 0.0
            try:
                while n < job["min_traced"] or spent + last <= seconds:
                    last = run("traced", lambda d: traced_pass(tracer, job, d))["s"]
                    spent += last
                    n += 1
            finally:
                tracer.dump(os.path.join(job["out"], "spans.json"))
        return 0
    finally:
        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
