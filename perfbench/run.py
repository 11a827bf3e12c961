"""One-command benchmark of the dedup CLI.

    python3 perfbench/run.py --workload crawl_minhash --seed 1 --seconds 30 --trace 0

Run from the repository root. For the chosen workload it

1. builds the seeded input and its serial ground truth (cached per seed under
   ``.perfbench/cache``; neither is timed);
2. times set-up — process start until the Ray session is up and the package
   imported — in two probe processes and in the benchmark process itself;
3. starts the benchmark process (``worker.py``) with a Ray session sized to
   the CPU count and runs the real CLI in-process through
   ``fastq_dupaway_ray.__main__.main(argv)``: a closed loop, one client, one
   job at a time, one warm-up pass, then timed passes (at least three) while
   the next one is expected to end within ``--seconds``;
4. checks every pass's output against the ground truth, outside the timing;
5. with ``--trace 1``, also runs the traced pipeline (``tracing.py``) and
   reports per-layer metrics instead of the end-to-end ones.

A pass that raises, exits non-zero, outlives ``PASS_TIMEOUT_S`` or fails a
check counts as failed; the run still prints every metric. Every process the
benchmark starts runs in its own session and is killed and waited for before
the command exits. The last stdout line is the result JSON; the line before
it is run context (CPU count, Ray version, a host memory-stream probe before
and after, per-pass details), which nothing gates on.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PASS_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # the whole command must end within 180 s
SETUP_PROBES = 2
RAY_TMP_MAX = 40
MIN_TIMED = 3

WORKLOADS = {
    "crawl_minhash": ("crawl", ["-i", "{input}", "-o", "{out}/kept", "--minhash",
                                "--checkpoint-root", "{out}/ckpt", "--write-clusters",
                                "--verbose"]),
    "reads_exact": ("reads", ["-i", "{input}", "-o", "{out}/kept.fastq", "--fast",
                              "--write-clusters"]),
    "crawl_simhash": ("crawl", ["-i", "{input}", "-o", "{out}/kept", "--compare-seq",
                                "tail-hamming", "--simhash-parity", "--write-clusters"]),
}
# runnable by name but left out of BENCHMARK.json: three gated workloads leave
# each run too little measured time to be steady within the run-time budget;
# the crawl_minhash traced run probes its SimHash layer instead
BY_HAND = ("crawl_simhash",)


def stream_gbps(seconds: float = 0.25) -> float:
    """Host memory-stream probe: the signer's multiply-add kernel over 64 MB."""
    import numpy as np

    x = np.arange(8_000_000, dtype=np.uint64)
    a = np.uint64(0x9E3779B97F4A7C15)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        x * a + np.uint64(1)
        n += 1
    return n * x.nbytes / (time.perf_counter() - t0) / 1e9


def nproc() -> int:
    """CPUs available to this process, as coreutils ``nproc`` counts them
    (``OMP_NUM_THREADS`` and ``OMP_THREAD_LIMIT`` apply)."""
    def env_int(name):
        v = os.environ.get(name, "").split(",")[0].strip()
        return int(v) if v.isdigit() and int(v) > 0 else None

    limit = env_int("OMP_THREAD_LIMIT") or sys.maxsize
    return min(env_int("OMP_NUM_THREADS") or len(os.sched_getaffinity(0)), limit)


def session_pids(sid: int, zombies: bool = False) -> list[int]:
    """Processes in session ``sid``; exited-but-unreaped ones only with
    ``zombies``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if (zombies or fields[0] != "Z") and int(fields[3]) == sid:
            out.append(int(name))
    return out


def become_subreaper() -> None:
    """Adopt orphaned descendants (Ray's daemons outlive a killed child), so
    ``reap_session`` can wait for them instead of leaving zombies."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_session(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Kill every process in the child's session and wait until all ended."""
    sid = proc.pid
    for pid in session_pids(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    end = time.monotonic() + grace_s
    # orphans re-parent to this process as their parents are reaped
    while session_pids(sid, zombies=True) and time.monotonic() < end:
        _reap_zombies()
        time.sleep(0.02)
    left = session_pids(sid)
    if left:
        raise RuntimeError(f"processes {left} survived SIGKILL")


class Child:
    """A worker process in its own session, with its stdout read by a thread."""

    def __init__(self, job_path: str, env: dict, log_path: str, probe: bool = False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--job", job_path]
        if probe:
            cmd.append("--probe")
        self.lines: queue.Queue = queue.Queue()
        self.log = open(log_path, "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log, env=env,
                                     cwd=ROOT, start_new_session=True)
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for raw in self.proc.stdout:
            self.lines.put(raw.decode(errors="replace").strip())
        self.lines.put(None)

    def next_line(self, timeout: float):
        """Next protocol line; None at EOF; raises queue.Empty on timeout."""
        return self.lines.get(timeout=max(0.0, timeout))

    def close(self) -> None:
        try:
            reap_session(self.proc)
        finally:
            self.proc.stdout.close()
            self.log.close()


def run_worker(job_path: str, env: dict, log_path: str, deadline: float) -> dict:
    """Drive the benchmark process; returns setup time and the pass records
    announced on its stdout (with the ones it never finished marked)."""
    child = Child(job_path, env, log_path)
    res = {"setup_s": None, "passes": [], "exit": None}
    try:
        line = child.next_line(min(SETUP_TIMEOUT_S, deadline - time.monotonic()))
        if line != "READY":
            res["exit"] = f"no READY (got {line!r})"
            return res
        res["setup_s"] = time.perf_counter() - child.t0
        current = None
        while True:
            limit = deadline - time.monotonic()
            if current is not None:
                limit = min(limit, PASS_TIMEOUT_S - (time.monotonic() - current["t"]))
            line = child.next_line(limit)
            if line is None:
                break
            parts = line.split()
            if parts[:1] != ["PASS"]:
                continue
            if parts[3] == "start":
                current = {"i": int(parts[1]), "kind": parts[2], "t": time.monotonic(),
                           "s": None}
                res["passes"].append(current)
            else:
                current["s"] = float(parts[4])
                current = None
        child.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        res["exit"] = child.proc.returncode
    except queue.Empty:
        res["exit"] = "timeout"
    except subprocess.TimeoutExpired:
        res["exit"] = "timeout at exit"
    finally:
        child.close()
    return res


def probe_setup(job_path: str, env: dict, log_path: str, deadline: float) -> float | None:
    child = Child(job_path, env, log_path, probe=True)
    try:
        line = child.next_line(min(SETUP_TIMEOUT_S, deadline - time.monotonic()))
        return time.perf_counter() - child.t0 if line == "READY" else None
    except queue.Empty:
        return None
    finally:
        child.close()


def evaluate(workload: str, entry: str, meta: dict, gt: dict, run_dir: str, res: dict) -> list:
    """Check every announced pass; returns per-pass records with ``ok``."""
    import truth

    checker = truth.Checker(workload, entry, meta, gt)
    out = []
    for p in res["passes"]:
        rec = {"i": p["i"], "kind": p["kind"], "s": p["s"], "ok": False}
        d = os.path.join(run_dir, "out", f"pass{p['i']:02d}")
        try:
            with open(os.path.join(d, "rec.json")) as f:
                wrec = json.load(f)
        except (OSError, ValueError):
            wrec = None
        if p["s"] is None or wrec is None:
            rec["error"] = "did not finish"
        elif wrec.get("error") or wrec.get("rc") not in (0, None):
            rec["error"] = wrec.get("error") or f"exit code {wrec['rc']}"
        elif p["kind"] == "traced":
            rec["ok"] = True  # compared against the CLI passes below
            rec["kept"] = kept_rows(workload, d)
        else:
            try:
                with open(os.path.join(d, "stdout.txt")) as f:
                    stdout = f.read()
                q = checker.check(d, stdout)
                rec.update(q, ok=True, kept=q["terms"]["kept"])
            except (truth.CheckFailed, OSError, ValueError, KeyError) as e:
                rec["error"] = f"check failed: {type(e).__name__}: {e}"
        out.append(rec)
    cli_kept = {r["kept"] for r in out if r["ok"] and r["kind"] != "traced"}
    for r in out:
        if r["ok"] and r["kind"] == "traced" and {r["kept"]} != cli_kept:
            r["ok"] = False
            r["error"] = f"traced kept rows {r['kept']} != CLI kept rows {sorted(cli_kept)}"
    return out


def kept_rows(workload: str, d: str) -> int:
    if workload == "reads_exact":
        with open(os.path.join(d, "kept.fastq"), "rb") as f:
            return f.read().count(b"\n") // 4
    import pyarrow.dataset as pads

    return pads.dataset(os.path.join(d, "kept"), format="parquet").count_rows()


def layer_metrics(spans: list, job_s: float) -> dict:
    """Per-layer metrics: median over traced passes of self time and counts."""
    import metrics

    by_run: dict = {}
    for idx, s in enumerate(spans):
        s["idx"] = idx
        by_run.setdefault(s["run"], []).append(s)
    samples: dict = {name: [] for name in metrics.PER_LAYER}
    for run_spans in by_run.values():
        vals = {name: 0.0 for name in metrics.PER_LAYER}
        child_cover: dict = {}
        for s in run_spans:
            if s["parent"] is not None:
                child_cover[s["parent"]] = child_cover.get(s["parent"], 0.0) + s["end"] - s["start"]
        root = next(s for s in run_spans if s["name"] == "pipeline")
        layers_sum = 0.0
        for s in run_spans:
            if s["name"] == "pipeline":
                continue
            self_s = s["end"] - s["start"] - child_cover.get(s["idx"], 0.0)
            vals[f"{s['name']}.s"] += self_s
            if s["parent"] == root["idx"]:
                layers_sum += self_s
            for k, v in s["counts"].items():
                vals[f"{s['name']}.{k}"] += v
        wall = root["end"] - root["start"]
        raw = vals["stages.minhash.lsh.raw_edges"]
        vals["stages.minhash.candidates.edge_yield"] = (
            vals["stages.minhash.candidates.edges_out"] / raw if raw else 0.0)
        vals["trace.layers_sum_s"] = layers_sum
        vals["trace.unattributed_frac"] = 1.0 - layers_sum / wall
        vals["trace.overhead_s"] = wall - job_s
        for name, v in vals.items():
            samples[name].append(v)
    return {name: statistics.median(v) for name, v in samples.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    become_subreaper()
    # a termination signal unwinds through the finally blocks that reap the
    # benchmark's processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "fastq_dupaway_ray", "__init__.py")):
        print(f"fastq_dupaway_ray package not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import pyarrow

    num_cpus = nproc()
    pyarrow.set_cpu_count(num_cpus)  # input generation: no more threads than CPUs
    pyarrow.set_io_thread_count(num_cpus)
    import gen
    import metrics
    import truth

    work = os.path.join(ROOT, ".perfbench")
    run_dir = os.path.join(work, f"run{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    # Ray binds unix sockets ~64 characters deep under its temp dir, and a
    # socket path may not exceed 107 bytes
    ray_tmp = os.path.join(ROOT, ".pbr")
    if len(ray_tmp.encode()) > RAY_TMP_MAX:
        import tempfile

        ray_tmp = tempfile.mkdtemp(prefix="pbr")
        print(f"checkout path too long for Ray sockets; Ray session under {ray_tmp}",
              file=sys.stderr)
    try:
        kind, argv_tmpl = WORKLOADS[args.workload]
        spec = gen.CrawlSpec() if kind == "crawl" else gen.ReadsSpec()
        gbps_before = stream_gbps()

        def add_truth(entry, meta):
            with open(os.path.join(entry, "gt.json"), "w") as f:
                json.dump(truth.ground_truth(args.workload, entry, meta), f)
            return {}

        entry, meta = gen.ensure_inputs(os.path.join(work, "cache"), args.workload, kind,
                                        spec, args.seed, extra=add_truth)
        with open(os.path.join(entry, "gt.json")) as f:
            gt = json.load(f)

        job = {
            "workload": args.workload,
            "input": os.path.join(entry, meta["input"]),
            "argv": [a.replace("{input}", os.path.join(entry, meta["input"]))
                     for a in argv_tmpl],
            "out": os.path.join(run_dir, "out"),
            "ray_tmp": ray_tmp,
            "num_cpus": num_cpus,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "min_timed": 1 if args.trace else MIN_TIMED,
            "min_traced": 2,
        }
        job_path = os.path.join(run_dir, "job.json")
        with open(job_path, "w") as f:
            json.dump(job, f)
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": os.pathsep.join(p for p in (ROOT, HERE, env.get("PYTHONPATH")) if p),
            "RAY_USAGE_STATS_ENABLED": "0",
            "RAY_TMPDIR": ray_tmp,
            "TMPDIR": os.path.join(run_dir, "tmp"),
        })
        log_path = os.path.join(run_dir, "worker.log")
        setups = [probe_setup(job_path, env, log_path, deadline) for _ in range(SETUP_PROBES)]
        res = run_worker(job_path, env, log_path, deadline)
        setups.append(res["setup_s"])

        passes = evaluate(args.workload, entry, meta, gt, run_dir, res)
        timed = [p for p in passes if p["kind"] == "timed"]
        ok = [p for p in passes if p["ok"]]
        ok_cli = [p for p in ok if p["kind"] != "traced"]
        job_s = statistics.median([p["s"] for p in timed if p["ok"]]
                                  or [p["s"] for p in timed if p["s"] is not None]
                                  or [PASS_TIMEOUT_S])
        try:
            with open(os.path.join(run_dir, "out", "rss.json")) as f:
                rss_kb = json.load(f)["peak_rss_kb"]
        except (OSError, ValueError, KeyError):
            import resource

            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        attempted = max(1, len(passes))
        failed = attempted - len(ok)
        valid_setups = [s for s in setups if s is not None] or [SETUP_TIMEOUT_S]

        def quality(key):
            return statistics.median([p[key] for p in ok_cli]) if ok_cli else 0.0

        values = {
            "job_s": job_s,
            "docs_per_s": meta["rows"] / job_s,
            "setup_s": statistics.median(valid_setups),
            "peak_driver_rss_mb": rss_kb / 1024.0,
            "exact_dup_recall": quality("exact_dup_recall"),
            "dup_recall": quality("dup_recall"),
            "merge_precision": quality("merge_precision"),
            "ok_frac": len(ok) / attempted,
        }
        units = dict(metrics.END_TO_END)
        if args.trace:
            try:
                with open(os.path.join(run_dir, "out", "spans.json")) as f:
                    spans = json.load(f)
                values = layer_metrics(spans, job_s)
            except (OSError, ValueError, StopIteration):
                values = {name: 0.0 for name in metrics.PER_LAYER}
                failed = attempted
            units = dict(metrics.PER_LAYER)
        context = {
            "workload": args.workload, "seed": args.seed, "rows": meta["rows"],
            "num_cpus": num_cpus, "ray_version": metadata.version("ray"),
            "host_stream_gbps": {"before": gbps_before, "after": stream_gbps()},
            "setup_samples_s": setups, "worker_exit": res["exit"],
            "run_wall_s": time.monotonic() - started,
            "passes": passes,
        }
        if args.trace:
            context["folds"] = ("stages.minhash.candidates covers the LSH exchange, edge-dedup "
                                "exchange, endpoint index and verify; on crawl_minhash, lsh and "
                                "simhash are probe spans outside the pipeline root")
        print(json.dumps({"context": context}))
        for p in passes:
            if not p["ok"]:
                print(f"pass {p['i']} ({p['kind']}) failed: {p.get('error')}", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
