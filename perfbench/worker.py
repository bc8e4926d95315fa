"""One benchmark process: import anisolab from the checkout's src/, build a
workload's inputs and run passes over its operations.

    python3 perfbench/worker.py --mode run --workload bounds --seed 1234 --seconds 12

Modes:
  setup  import and build the inputs, then exit (timed from outside);
  run    one cold pass, then warm passes until --seconds have elapsed;
  trace  a cold pass, then traced, untraced and traced warm passes.

Failure lines go to stdout as they happen; the last stdout line is one JSON
object with the pass times, peak memory and operation outcomes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import anisolab  # noqa: E402

if not Path(anisolab.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"anisolab imported from {anisolab.__file__}, not from {SRC}")

import workloads as wl  # noqa: E402


class Outcomes:
    """Operation results over every pass of the process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0        # check failures not listed in KNOWN_DEFECTS
        self.defects = 0       # check failures of listed known defects
        self.fixed = set()     # listed known defects whose checks now hold

    def record(self, name: str, reasons: list[str]) -> None:
        self.attempted += 1
        known = name in wl.KNOWN_DEFECTS
        if not reasons:
            if known:
                self.fixed.add(name)
            return
        if known:
            self.defects += 1
            print(f"KNOWN DEFECT {name}: {'; '.join(reasons)} "
                  f"[{wl.KNOWN_DEFECTS[name]}]", flush=True)
        else:
            self.failed += 1
            print(f"FAIL {name}: {'; '.join(reasons)}", flush=True)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": (self.failed + self.defects) / self.attempted,
            "known_defects_fixed": sorted(self.fixed),
        }


def run_pass(ops, outcomes: Outcomes, tracer=None) -> float:
    t0 = time.perf_counter()
    for op in ops:
        if tracer is None:
            reasons = op.run()
        else:
            with tracer.operation(op.name):
                reasons = op.run()
        outcomes.record(op.name, reasons)
    return time.perf_counter() - t0


def main() -> dict:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=tuple(wl.GRIDS), default="full")
    args = ap.parse_args()

    ops = wl.build(args.workload, args.seed, args.size)
    if args.mode == "setup":
        return {"operations": len(ops)}

    outcomes = Outcomes()
    base = {"seed_dependent": wl.SEED_DEPENDENT[args.workload]}
    cold = run_pass(ops, outcomes)
    if args.mode == "run":
        warm = []
        start = time.perf_counter()
        while not warm or time.perf_counter() - start < args.seconds:
            warm.append(run_pass(ops, outcomes))
        return {
            "cold_pass_s": cold,
            "warm_pass_s": warm,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **base,
            **outcomes.summary(),
        }

    from tracer import COUNT_METRICS, PER_LAYER, Tracer, median_metrics

    tracer = Tracer()
    traced, times = [], []
    for step in ("traced", "untraced", "traced"):
        if step == "untraced":
            untraced = run_pass(ops, outcomes)
            continue
        first = len(tracer.spans)
        tracer.install()
        try:
            times.append(run_pass(ops, outcomes, tracer))
        finally:
            tracer.uninstall()
        traced.append(tracer.aggregate(first, len(tracer.spans)))
    unstable = [m for m in COUNT_METRICS if traced[0][m] != traced[1][m]]
    for m in unstable:
        print(f"FAIL count {m} differs between traced passes: "
              f"{traced[0][m]} vs {traced[1][m]}", flush=True)
    metrics = median_metrics(traced)
    metrics["trace_overhead_share"] = (statistics.median(times) - untraced) / untraced
    summary = outcomes.summary()
    metrics["failed_share"] = summary["failed_share"]
    return {
        "per_layer": metrics,
        "units": PER_LAYER,
        "unstable_counts": unstable,
        "cold_pass_s": cold,
        "traced_pass_s": times,
        "untraced_pass_s": untraced,
        **base,
        **summary,
    }


if __name__ == "__main__":
    print(json.dumps(main()), flush=True)
