"""anisolab benchmark.

One workload, as BENCHMARK.json runs it (from the repository root):

    python3 perfbench/run.py --workload bounds --seed 1234 --seconds 12 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (untraced runs only);
with ``--trace 1`` the per-layer metrics of a traced run.  Without
``--workload`` it runs every workload both ways and prints a table of all
metrics.  ``--size smoke`` runs every operation and output check on small
grids.  Every workload runs in fresh worker processes (perfbench/worker.py)
with BLAS/OpenMP threads capped at the CPUs this process may use.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Every line before it is a failure report or run metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("bounds", "graph", "branched")  # as in workloads.py
DEFAULT_SEED = 1234  # ExperimentConfig.seed, as the acceptance tests use it
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"pass_s": "s", "cold_pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def worker(mode: str, args) -> tuple[dict, float]:
    """Run one worker process; return its result object and wall time."""
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size]
    env = dict(os.environ, **{v: str(NPROC) for v in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise WorkerFailed(f"{mode} worker for {args.workload} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1]), wall


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def run_metadata(args, res: dict, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_dependent": res["seed_dependent"],
        "size": args.size,
        "trace": args.trace,
        "nproc": NPROC,
        "blas_thread_cap": {v: NPROC for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "samples": samples,
        "failed_share": res["failed_share"],
        "known_defects_fixed": res["known_defects_fixed"],
    }


def measure(args) -> tuple[dict, dict]:
    """Run one workload; return the result object printed last and the
    run metadata."""
    if args.trace:
        res, _ = worker("trace", args)
        metrics = res["per_layer"]
        units = res["units"]
        samples = {"traced_passes": len(res["traced_pass_s"]), "untraced_passes": 1}
        correct = res["failed"] == 0 and not res["unstable_counts"]
    else:
        setup = [worker("setup", args)[1] for _ in range(SETUP_RUNS)]
        res, _ = worker("run", args)
        metrics = {
            "pass_s": statistics.median(res["warm_pass_s"]),
            "cold_pass_s": res["cold_pass_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        samples = {"pass_s": len(res["warm_pass_s"]), "cold_pass_s": 1,
                   "setup_s": SETUP_RUNS, "peak_rss_mb": 1}
        correct = res["failed"] == 0
    meta = run_metadata(args, res, samples)
    print(json.dumps({"meta": meta}), flush=True)
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, meta


def report(args) -> int:
    """Every workload, untraced then traced, as one table."""
    rows, ok = [], True
    for workload in WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            res, meta = measure(sub)
            ok &= res["correct"]
            n = meta["samples"]
            for name, m in res["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"], n.get(name, "")))
    print(f"\n{'workload':10} {'metric':44} {'value':>14} {'unit':6} samples")
    for workload, name, value, unit, count in rows:
        print(f"{workload:10} {name:44} {value:14.6g} {unit:6} {count}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    try:
        if args.workload is None:
            return report(args)
        print(json.dumps(measure(args)[0]), flush=True)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
