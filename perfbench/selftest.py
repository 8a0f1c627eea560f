"""Fast self-test of the benchmark's input generator, output checks, runner and tracer.

Usage (from the repository root): ``python3 perfbench/selftest.py``.  It runs
tiny variants of the four workloads through the real runner in well under a
minute and exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads as wl

TINY_GRID_1D = {"sizes": [64], "lengths": [wl.TWO_PI]}
TINY_GRID_2D = {"sizes": [16, 16], "lengths": [wl.TWO_PI, wl.TWO_PI]}


def tiny(name: str, seed: int) -> wl.Workload:
    """The named workload on a coarse grid and a short horizon."""
    cls = wl.WORKLOADS[name]
    if cls is wl.Verify:
        return cls(seed, {"samples": 3})
    cfg = wl.shifted(cls.template, seed)
    if cls is wl.McfSine:
        cfg.update(grid=TINY_GRID_1D, graph_flow={"theta_end": 0.02, "step_factor": 0.1})
        cfg["circle"].update(points=32, theta_end=0.05)
    else:
        cfg.update(grid=TINY_GRID_2D, t_end=0.25, output_cadence=0.125)
        if "snapshot_cadence" in cfg:
            cfg["snapshot_cadence"] = 0.125
    return cls(seed, cfg)


def expect(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def expect_check_error(workload: wl.Workload, out: Path, stdout: str, what: str):
    try:
        workload.check(out, stdout)
    except wl.CheckError:
        expect(True, what)
    else:
        expect(False, what)


def test_generator():
    for name, template in (("membrane_n2", wl.MEMBRANE_N2), ("mcf_sine", wl.MCF_SINE)):
        bundled = run.ROOT / "configs" / f"{name}.json"
        text = wl.format_config(wl.shifted(template, 0))
        expect(text == bundled.read_text(), f"seed 0 reproduces configs/{name}.json byte for byte")
    expect(wl.WORKLOADS["membrane_n2"](0).config == wl.MEMBRANE_N2, "membrane_n2 runs the bundled config")
    cfg = wl.WORKLOADS["mcf_sine"](0).config
    for key in ("circle", "graph_flow"):
        expect({**cfg[key], "theta_end": 0} == {**wl.MCF_SINE[key], "theta_end": 0}, f"mcf_sine: only {key}.theta_end differs")
    expect({**cfg, "circle": 0, "graph_flow": 0} == {**wl.MCF_SINE, "circle": 0, "graph_flow": 0},
           "mcf_sine: runs the bundled config apart from the flow horizons")
    for name in ("membrane_n2", "stress_m3n2", "mcf_sine"):
        template = wl.WORKLOADS[name].template
        a, b = wl.WORKLOADS[name](3).config, wl.WORKLOADS[name](3).config
        expect(a == b, f"{name}: the same seed gives the same input")
        moved = 0
        for key in template:
            if key != "initial_data":
                expect(a[key] == template[key], f"{name}: seed 3 leaves {key} unchanged")
                continue
            for kind, modes in template[key].items():
                for old, new in zip(modes, a[key][kind]):
                    expect({**new, "phase": 0} == {**old, "phase": 0}, f"{name}: only the phase of a {kind} entry moves")
                    moved += new["phase"] != old["phase"]
        expect(moved > 0, f"{name}: seed 3 shifts at least one phase")
    # a whole-cell translation: every phase moves by 2 pi k.c / N for one integer vector c
    cfg = wl.WORKLOADS["stress_m3n2"](5).config
    sizes = cfg["grid"]["sizes"]
    for new, old in zip(cfg["initial_data"]["X_modes"], wl.STRESS_M3N2["initial_data"]["X_modes"]):
        if sum(w != 0 for w in new["wave"]) == 1:
            axis = new["wave"].index(1)
            cells = (new["phase"] - old["phase"]) / wl.TWO_PI * sizes[axis]
            cells_mod = cells % sizes[axis]
            expect(min(cells_mod % 1, 1 - cells_mod % 1) < 1e-9, "stress_m3n2: phase shift is a whole number of cells")


def test_checks(tmp: Path):
    """Run each tiny workload in-process, then corrupt its outputs and expect a CheckError."""
    sys.path.insert(0, str(run.SRC))
    from contextlib import redirect_stdout
    from io import StringIO

    from branesim import cli

    outputs = {}
    for name in wl.WORKLOADS:
        w = tiny(name, 2)
        work = tmp / name
        work.mkdir(parents=True)
        buf = StringIO()
        with redirect_stdout(buf):
            rc = cli.main(w.prepare(work))
        expect(rc == 0, f"tiny {name} exits 0")
        figures = w.check(work / "out", buf.getvalue())
        expect(all(math.isfinite(v) and v > 0 for v in figures.values()), f"tiny {name} passes its checks: {figures}")
        outputs[name] = (w, work / "out", buf.getvalue())

    w, out, stdout = outputs["membrane_n2"]
    csv = out / "diagnostics.csv"
    good = csv.read_text()
    lines = good.splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    csv.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    expect_check_error(w, out, stdout, "energy drift above 1e-8 is caught")
    cells = lines[-1].split(",")
    cells[3] = "0.01"
    csv.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    expect_check_error(w, out, stdout, "a large final constraint residual is caught")
    cells = lines[-1].split(",")
    cells[9] = "nan"
    csv.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    expect_check_error(w, out, stdout, "a non-finite value is caught")
    csv.write_text("\n".join(lines[:-1]) + "\n")
    expect_check_error(w, out, stdout, "a run that stops before t_end is caught")

    w, out, stdout = outputs["stress_m3n2"]
    next(out.glob("snapshot_t0.25*.json")).unlink()
    expect_check_error(w, out, stdout, "a missing final snapshot is caught")

    w, out, stdout = outputs["mcf_sine"]
    csv = out / "mcf_compare.csv"
    lines = csv.read_text().splitlines()
    flat = [lines[0]] + [",".join([c[0], "1e-3", *c[2:]]) for c in (row.split(",") for row in lines[1:4])] + lines[4:]
    csv.write_text("\n".join(flat) + "\n")
    expect_check_error(w, out, stdout, "an acceleration error that does not converge is caught")
    off = lines[:5] + [",".join(lines[5].split(",")[:3] + ["0.5"])] + lines[6:]
    csv.write_text("\n".join(off) + "\n")
    expect_check_error(w, out, stdout, "a wrong shrinking-circle radius is caught")

    w, out, stdout = outputs["verify"]
    report = json.loads(stdout)
    report["identities"]["xi"] = {"pass": 1, "fail": 0}
    expect_check_error(w, out, json.dumps(report), "a verify report with missing passes is caught")
    report = json.loads(stdout)
    report["all_passed"] = False
    expect_check_error(w, out, json.dumps(report), "a failing verify report is caught")


def test_repeats():
    a = run.Sample(wall_s=1.0, digest="a" * 64)
    b = run.Sample(wall_s=1.0, digest="b" * 64)
    run._check_repeats([a, b])
    expect(not a.error and "differs" in b.error, "differing output sha256 within one invocation fails the run")


def test_tracer_bindings():
    from branesim import mcf, solver, state

    originals = (solver.derivative, mcf.derivative, solver.to_conservative, state.to_conservative)
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(mcf.derivative is solver.derivative is not originals[0], "mcf.derivative is traced with solver.derivative")
        expect(solver.to_conservative is state.to_conservative is not originals[2], "solver's name imports are traced")
        expect(not tracer.missing, "every listed function exists")
    finally:
        tracer.uninstall()
    restored = (solver.derivative, mcf.derivative, solver.to_conservative, state.to_conservative)
    expect(all(x is y for x, y in zip(restored, originals)), "uninstall restores every binding")


def test_runner():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    # a process twice as slow next to a reading twice as slow counts the same
    same = run.normalised([(2.0, 2 * run.REF_NOMINAL_S), (1.0, run.REF_NOMINAL_S), (5.0, run.REF_NOMINAL_S)])
    expect(abs(same - 1.0) < 1e-12, "runner: times are the median of time / ref_s, in nominal seconds")
    traced = {}
    for name in wl.WORKLOADS:
        data = run.measure(tiny(name, 1), seconds=0.5, trace=False, probes=1)
        errors = [s.error for s in data["samples"] if s.error]
        expect(not errors and len(data["samples"]) >= run.MIN_RUNS, f"runner: tiny {name} untraced, {errors}")
        expect(all(s.ref_s > 0 for s in data["samples"]), f"runner: tiny {name} has a host-speed reading per process")
        metrics = run.end_to_end(data)
        expect({k: v["unit"] for k, v in metrics.items()} == e2e, f"runner: tiny {name} reports every end-to-end metric")
        expect(all(v["value"] > 0 for v in metrics.values()), f"runner: tiny {name} end-to-end metrics are positive")
        counts = []
        for _ in range(2):
            data = run.measure(tiny(name, 1), seconds=0.5, trace=True, probes=1)
            errors = [s.error for s in data["samples"] if s.error]
            expect(not errors, f"runner: tiny {name} traced, {errors}")
            metrics = run.per_layer(data)
            expect({k: v["unit"] for k, v in metrics.items()} == layers, f"runner: tiny {name} reports every per-layer metric")
            expect(metrics["trace.overhead_s"]["value"] > 0, f"tracer: tiny {name} has a positive calibrated overhead")
            counts.append({k: v["value"] for k, v in metrics.items() if not k.endswith("_s")})
        expect(counts[0] == counts[1], f"tracer: tiny {name} call counts repeat exactly")
        traced[name] = counts[0]
    for name, c in traced.items():
        expect((c["solver.rhs_original.calls"] > 0) == (name == "membrane_n2"), f"layer map: rhs_original on {name}")
        expect((c["solver.snapshot_to_json.calls"] > 0) == (name == "stress_m3n2"), f"layer map: snapshot_to_json on {name}")
        expect((c["minors.minor.calls"] > 0) == (name == "verify"), f"layer map: minors.minor on {name}")
        expect((c["mcf.mcf_step.calls"] > 0) == (name == "mcf_sine"), f"layer map: mcf.mcf_step on {name}")


def test_bare_directory(tmp: Path):
    """Without the program the benchmark exits non-zero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(run.BENCH, tmp / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and "correct" not in proc.stdout, "a directory without src/branesim gives no result")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        test_generator()
        test_checks(Path(tmp) / "checks")
        test_repeats()
        test_tracer_bindings()
        test_runner()
        (Path(tmp) / "bare").mkdir()
        test_bare_directory(Path(tmp) / "bare")
    run.WORK.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
