"""Benchmark of the branesim CLI: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload membrane_n2 --seed 0 --seconds 30 --trace 0

Each run is a closed loop with one client: a fresh single-threaded Python
process runs ``branesim.cli.main`` on inputs generated from ``--seed``, and
the next one starts only after the previous one has exited, until
``--seconds`` is used up.  Every process's outputs are checked.  A few
import-only processes at the start of a run time set-up on their own.
The runner and its processes share one CPU, and a fixed reference loop is
timed between processes; each time metric is the median over processes of
the time relative to the reference loop around it, in seconds on a host
where the reference pass takes ``REF_NOMINAL_S``.

With ``--trace 0`` the last line of stdout is the JSON result with every
end-to-end metric; with ``--trace 1`` the loop alternates untraced and
traced processes and the result holds every per-layer metric.  The lines
before it are a human-readable summary.  Exit status 2 means the program
could not be run at all (for example, ``src/branesim`` is missing); then no
result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, CheckError, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

PROBES = 5  # import-only processes per run, for setup_s
REF_PASSES = 3  # reference passes per host-speed reading, one reading between processes
REF_NOMINAL_S = 0.04  # a reference pass on the reference machine (see README); the unit of normalised times
MIN_RUNS = 2  # the byte-determinism check needs a pair
RUN_LIMIT_S = 170  # hard cap on one invocation, under the 180 s allowed
NOT_APPLICABLE = 1.0  # value of an accuracy metric the workload does not produce

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
    "constraint_linf": "1",
    "energy_drift_rel": "1",
    "oracle_err_linf": "1",
    "accel_err_linf": "1",
    "mcf_ref_err_rel": "1",
}
ACCURACY = ("constraint_linf", "energy_drift_rel", "oracle_err_linf", "accel_err_linf", "mcf_ref_err_rel")


class SetupError(Exception):
    """The program cannot be started at all; the run prints no result."""


@dataclass
class Sample:
    """One finished benchmark process."""

    wall_s: float
    setup_s: float = 0.0
    solve_s: float = 0.0
    rss_mb: float = 0.0
    traced: bool = False
    ref_s: float = 0.0  # host speed around this process: see measure()
    figures: dict = field(default_factory=dict)
    digest: str = ""
    layers: dict = field(default_factory=dict)
    error: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts benchmark processes one at a time in a scratch directory."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = child_env()
        self.count = 0
        self.t_start = time.perf_counter()

    def _spawn(self, flags: list[str], cli_args: list[str], work: Path):
        """Run child.py once; return (wall seconds, result dict, stdout text)."""
        cmd = [sys.executable, str(BENCH / "child.py"), str(work / "result.json"), *flags, "--", *cli_args]
        timeout = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=work, env=self.env, stdout=out, stderr=err)
            try:
                rc = proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
            wall = time.perf_counter() - t0
        stdout = (work / "stdout.txt").read_text()
        if rc != 0:
            tail = (work / "stderr.txt").read_text().strip().splitlines()[-3:]
            why = "timed out" if rc is None else f"exit code {rc}"
            return wall, None, stdout, f"{why}: {' | '.join(tail)}"
        result = json.loads((work / "result.json").read_text())
        if Path(result["branesim_file"]).resolve().parent != (SRC / "branesim").resolve():
            raise SetupError(f"imported branesim from {result['branesim_file']}, not from {SRC}")
        result["setup_s"] = result["setup_end"] - t0
        return wall, result, stdout, ""

    def _fresh_dir(self) -> Path:
        self.count += 1
        work = self.work / f"p{self.count}"
        work.mkdir(parents=True)
        return work

    def probe(self) -> float:
        """An import-only process: its set-up time."""
        work = self._fresh_dir()
        try:
            _, result, _, error = self._spawn(["--probe"], [], work)
        finally:
            shutil.rmtree(work)
        if result is None:
            raise SetupError(f"cannot import branesim from {SRC}: {error}")
        return result["setup_s"]

    def sample(self, traced: bool) -> Sample:
        """One workload process, its outputs checked and its scratch files removed."""
        work = self._fresh_dir()
        try:
            cli_args = self.workload.prepare(work)
            flags = ["--trace", str(work / "spans.npz")] if traced else []
            wall, result, stdout, error = self._spawn(flags, cli_args, work)
            s = Sample(wall_s=wall, traced=traced, error=error)
            if result is None:
                return s
            s.setup_s, s.solve_s, s.rss_mb = result["setup_s"], result["solve_s"], result["peak_rss_kb"] / 1024
            out = work / "out"
            try:
                s.figures = self.workload.check(out, stdout)
                s.digest = hashlib.sha256((work / self.workload.output).read_bytes()).hexdigest()
            except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                s.error = f"output check: {type(exc).__name__}: {exc}"
            if traced:
                s.layers = spans.layer_metrics(work / "spans.npz")
                if result.get("trace_missing"):
                    print(f"# trace: not found in branesim: {result['trace_missing']}", file=sys.stderr)
            return s
        finally:
            shutil.rmtree(work)


def reference_pass() -> float:
    """Seconds for one pass of a fixed loop that uses no branesim code.

    Its four parts resemble the workloads' work: an interpreted dict loop,
    numpy rolls on a 0.5 MB array, streaming arithmetic on a 16 MB array
    (past the per-core caches, so it feels the host's memory traffic) and
    float formatting.  It takes about REF_NOMINAL_S on a quiet host.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = {}
    for i in range(30000):
        acc[i & 63] = acc.get(i & 63, 0.0) + 0.5 * i
    grid = np.linspace(0.0, 1.0, 4 * 128 * 128).reshape(4, 128, 128)
    for _ in range(30):
        grid = 0.25 * (np.roll(grid, 1, axis=1) + np.roll(grid, -1, axis=1) + np.roll(grid, 1, axis=2) + grid)
    big = np.linspace(0.0, 1.0, 2_000_000)
    for _ in range(3):
        big = 0.5 * big + 0.25
    ",".join(repr(x) for x in big[:10000].tolist())
    return time.perf_counter() - t0


def host_speed() -> float:
    """The host's speed now, as the fastest of a few reference passes, in seconds."""
    return min(reference_pass() for _ in range(REF_PASSES))


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to the last CPU it may use.

    A child that the scheduler moves between CPUs, whose speeds differ from
    minute to minute on a shared host, takes a different time on each, and
    the reference passes would measure another CPU than the child ran on.
    The last CPU is the one least likely to serve the guest's interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(workload: Workload, seconds: float, trace: bool, probes: int = PROBES) -> dict:
    """Run the closed loop for ``seconds``; return the samples and the set-up times.

    Every process is bracketed by host-speed readings on the same CPU, and
    its ``ref_s`` is the mean of the readings just before and just after it.
    """
    pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workload, work)
    try:
        before = host_speed()
        setups: list[tuple[float, float]] = []  # (set-up seconds, ref_s) of each probe
        for _ in range(probes):
            setup = runner.probe()
            after = host_speed()
            setups.append((setup, (before + after) / 2))
            before = after
        stop = runner.t_start + seconds
        samples: list[Sample] = []
        cycles: list[float] = []
        while True:
            t0 = time.perf_counter()
            batch = [runner.sample(traced=False)]
            if trace:
                batch.append(runner.sample(traced=True))
            after = host_speed()
            for s in batch:
                s.ref_s = (before + after) / 2
            before = after
            samples += batch
            now = time.perf_counter()
            cycles.append(now - t0)
            if now - runner.t_start > RUN_LIMIT_S / 2:
                break
            if len(samples) >= MIN_RUNS and now + statistics.median(cycles) > stop:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    _check_repeats(samples)
    setups += [(s.setup_s, s.ref_s) for s in samples if s.setup_s and not s.traced]
    return {"samples": samples, "setups": setups}


def _check_repeats(samples: list[Sample]):
    """Byte-determinism and, for traced processes, exact call counts, across one invocation."""
    ref = next((s for s in samples if s.digest), None)
    ref_layers = next((s.layers for s in samples if s.traced and not s.error), None)
    for s in samples:
        if s.error:
            continue
        if s.digest != ref.digest:
            s.error = f"output sha256 {s.digest[:12]} differs from {ref.digest[:12]} of the same inputs"
        elif s.traced:
            counts = {k: v for k, v in s.layers.items() if not k.endswith("_s")}
            want = {k: v for k, v in ref_layers.items() if not k.endswith("_s")}
            if counts != want:
                diff = sorted(k for k in counts if counts[k] != want.get(k))
                s.error = f"traced call counts differ between processes: {diff[:5]}"


def timings(data: dict) -> dict:
    """Each end-to-end time's (seconds, ref_s) pairs: passing untraced processes, set-up also probes."""
    untraced = [s for s in data["samples"] if not s.traced]
    good = [s for s in untraced if not s.error] or untraced
    return {
        "wall_s": [(s.wall_s, s.ref_s) for s in good],
        "setup_s": data["setups"],
        "solve_s": [(s.solve_s, s.ref_s) for s in good],
    }


def normalised(pairs: list[tuple[float, float]]) -> float:
    """Median over processes of seconds / ref_s, in seconds on a host where ref_s = REF_NOMINAL_S."""
    return REF_NOMINAL_S * statistics.median(t / ref for t, ref in pairs)


def end_to_end(data: dict) -> dict:
    """The run's end-to-end metrics: times normalised to the host's speed, medians, whole-run figures.

    Other tenants of the host slow every process on it, by up to 2x for
    seconds or minutes at a time, so a time is reported relative to the
    reference loop timed on the same CPU just before and after the process.
    The summary prints the raw seconds too.
    """
    samples = data["samples"]
    good = [s for s in samples if not s.error] or samples
    values = {name: normalised(pairs) for name, pairs in timings(data).items()}
    values.update({
        "peak_rss_mb": statistics.median(s.rss_mb for s in good),
        "ok_frac": sum(not s.error for s in samples) / len(samples),
    })
    figures = next((s.figures for s in good if s.figures), {})
    for name in ACCURACY:
        values[name] = figures.get(name, NOT_APPLICABLE)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(data: dict) -> dict:
    samples = data["samples"]
    traced = [s for s in samples if s.traced and s.layers]
    if not traced:
        raise SetupError("no traced process finished")
    out = {}
    for key in traced[0].layers:
        vals = [s.layers[key] for s in traced]
        if key.endswith("_s"):
            out[key] = {"value": statistics.median(vals), "unit": "s"}
        else:
            unit = "B" if key.endswith(".bytes") else "count"
            out[key] = {"value": vals[0], "unit": unit}
    return out


def machine() -> dict:
    """What the numbers depend on: CPU model and caches, cores, interpreter, numpy/BLAS, commit.

    The CPU model and cache sizes are read from /proc/cpuinfo and
    /sys/devices/system/cpu; the numpy and BLAS versions are the ones this
    interpreter imports, which is the interpreter the child processes run.
    """
    import numpy as np

    info = {"cpu": "unknown", "nproc": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() != "Instruction":
                info[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = "unknown"
    info.update(python=sys.version.split()[0], numpy=np.__version__, blas=blas, blas_threads=1)
    # the ceiling stops git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        info["commit"] = head.stdout.strip() if head.returncode == 0 else "unknown"
    except OSError:
        info["commit"] = "unknown"
    return info


def summary(workload: str, seed: int, data: dict, metrics: dict) -> list[str]:
    samples = data["samples"]
    lines = [
        f"# workload {workload} seed {seed}: {len(samples)} processes, closed loop, 1 client, "
        f"{len(data['setups'])} set-up samples",
        "# machine " + json.dumps(machine(), sort_keys=True),
    ]
    for s in samples:
        if s.error:
            lines.append(f"# FAILED ({'traced' if s.traced else 'untraced'} process): {s.error}")
    walls = [s.wall_s for s in samples if not s.traced]
    lines.append(f"# untraced wall_s in run order (n={len(walls)}): " + " ".join(f"{w:.4f}" for w in walls))
    for name, pairs in timings(data).items():
        raw, refs = [t for t, _ in pairs], [r for _, r in pairs]
        lines.append(
            f"# {name} raw seconds: min {min(raw):.4f}  median {statistics.median(raw):.4f}  max {max(raw):.4f}"
            f"  n={len(raw)}; ref_s median {statistics.median(refs):.4f} (nominal {REF_NOMINAL_S})"
        )
    traced = [s.wall_s for s in samples if s.traced]
    if traced:
        diff = statistics.median(traced) - statistics.median(walls)
        lines.append(f"# median traced minus untraced wall_s: {diff:.4f} s (host noise included)")
    for name, m in metrics.items():
        if name in ACCURACY and not any(name in s.figures for s in samples):
            lines.append(f"{name:40s} n/a (reported as {NOT_APPLICABLE})")
        else:
            lines.append(f"{name:40s} {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "branesim" / "__init__.py").is_file():
        print(f"error: no branesim package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        data = measure(workload, args.seconds, bool(args.trace))
        metrics = per_layer(data) if args.trace else end_to_end(data)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    samples = data["samples"]
    failed = sum(bool(s.error) for s in samples)
    for line in summary(args.workload, args.seed, data, metrics):
        print(line)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
