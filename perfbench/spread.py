"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads mcf_sine --seeds 5 --control
    python3 perfbench/spread.py --seeds 10 --trace --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 10 --against perfbench/baseline.json

For every workload it runs ``run.py`` once per seed (seeds 0..N-1), one run at
a time, and prints each end-to-end metric's median and its spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, next to a third of the metric's bound in
BENCHMARK.json.  ``--control`` reruns seed 0 after every seed and prints the
spread of those reruns too: they share their inputs, so their spread is the
host's drift alone, apart from any effect of the seed.  ``--trace`` adds one
traced run per workload (seed 0).
``--out`` writes the results, with a record of the machine, as a baseline;
``--against`` reads such a baseline and prints how far each median has moved
from it, in the metric's worse direction, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, machine
from workloads import WORKLOADS


def bench_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run.py invocation; returns its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--control", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    base = json.loads(Path(args.against).read_text())["spread"] if args.against else {}
    seconds = bench["run_seconds"]
    doc = {"machine": machine(), "run_seconds": seconds, "runs": {}, "traced": {}, "spread": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        results, controls = [], []
        for seed in range(args.seeds):
            results.append(bench_run(workload, seed, seconds, False))
            if args.control:
                controls.append(bench_run(workload, 0, seconds, False))
        doc["runs"][workload] = results
        doc["spread"][workload] = {}
        print(f"{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            med, sp = spread([r["metrics"][name]["value"] for r in results])
            doc["spread"][workload][name] = {"median": med, "spread": sp}
            flag = "" if name == "setup_s" or sp < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, sp / bound)
            print(f"  {name:18s} median {med:.6g}  spread {sp:.4f}  bound/3 {bound / 3:.4f}{flag}")
            if workload in base:
                old = base[workload][name]["median"]
                worse = (old - med if name in higher else med - old) / old
                flag = "  <-- worse by more than the bound" if worse > bound else ""
                print(f"    median vs baseline {old:.6g}: worse by {worse:+.4f}  bound {bound:.4f}{flag}")
            if name.endswith("_s"):
                print("    per seed: " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in results))
                if controls:
                    values = [r["metrics"][name]["value"] for r in controls]
                    print(f"    seed 0 reruns: spread {spread(values)[1]:.4f}: " + " ".join(f"{v:.4g}" for v in values))
        if args.trace:
            doc["traced"][workload] = bench_run(workload, 0, seconds, True)
    print(f"worst spread / bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
