"""Workload inputs and output checks for the branesim benchmark.

Each workload is one ``branesim`` CLI invocation.  Its input is generated
from the benchmark seed: seed 0 gives the bundled configs byte for byte, and
any other seed translates the initial data by a whole number of grid cells,
i.e. shifts only the mode phases.  A whole-cell translation leaves the
amplitudes, the time-like margin, the CFL step and the step count unchanged,
so cost and accuracy stay put while every input byte differs.

The checks apply the bounds pinned in ``tests/test_acceptance.py`` to the
files the program writes, and return the accuracy figures the benchmark
reports.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

TWO_PI = 6.283185307179586


def _mode(component, wave, amplitude, phase):
    return {"component": component, "wave": wave, "amplitude": amplitude, "phase": phase}


# The bundled configs/membrane_n2.json and configs/mcf_sine.json, as data.
# The self-test checks that seed 0 reproduces those files byte for byte.
MEMBRANE_N2 = {
    "schema": 1,
    "m": 1,
    "n": 2,
    "grid": {"sizes": [128, 128], "lengths": [TWO_PI, TWO_PI]},
    "scheme": {"stencil_order": 2, "cfl": 0.4, "filter_strength": 0.0},
    "t_end": 1.0,
    "output_cadence": 0.25,
    "initial_data": {
        "X_modes": [_mode(1, [1, 0], 0.1, 0.0), _mode(1, [0, 1], 0.1, 0.5)],
        "V_modes": [_mode(1, [1, 1], 0.05, 0.3)],
    },
    "toggles": {"oracle_compare": True, "mcf_compare": False},
    "seed": 0,
    "output_dir": "out/membrane_n2",
}

MCF_SINE = {
    "schema": 1,
    "m": 1,
    "n": 1,
    "grid": {"sizes": [512], "lengths": [TWO_PI]},
    "scheme": {"stencil_order": 2, "cfl": 0.4},
    "initial_data": {"X_modes": [_mode(1, [1], 0.1, 0.0)], "V_modes": []},
    "dt_values": [0.004, 0.002, 0.001],
    "circle": {"radius": 1.0, "points": 256, "theta_end": 0.25, "step_factor": 0.1},
    "graph_flow": {"theta_end": 0.5, "step_factor": 0.1},
    "output_dir": "out/mcf_sine",
}

# The benchmark's mcf_sine input: the bundled config with shorter flows.
# The circle and the graph flow run to theta = 0.1, which is about 8k instead
# of 37k mcf_step calls, still on 512 points.  A process then takes about
# 1.2 s instead of 6 s, so a 30 s run holds some fifteen of them, and each
# one sits within one or two of the host's slow or fast spells, which last
# seconds (see perfbench/README.md, "Baseline and noise").
MCF_SINE_RUN = {
    **MCF_SINE,
    "circle": {**MCF_SINE["circle"], "theta_end": 0.1},
    "graph_flow": {**MCF_SINE["graph_flow"], "theta_end": 0.1},
}

# The m = 3, n = 2 stress case: state dim 15 on 128^2, three height
# components and one velocity mode, oracle off, frequent diagnostics and
# three snapshots (t = 0, about 0.15, 0.25).  It runs to t = 0.25 (13 steps)
# rather than 1, for short processes as above.
STRESS_M3N2 = {
    "schema": 1,
    "m": 3,
    "n": 2,
    "grid": {"sizes": [128, 128], "lengths": [TWO_PI, TWO_PI]},
    "scheme": {"stencil_order": 2, "cfl": 0.4, "filter_strength": 0.0},
    "t_end": 0.25,
    "output_cadence": 0.05,
    "initial_data": {
        "X_modes": [_mode(1, [1, 0], 0.1, 0.0), _mode(2, [0, 1], 0.1, 0.5), _mode(3, [1, 1], 0.05, 1.0)],
        "V_modes": [_mode(2, [1, 0], 0.05, 0.3)],
    },
    "toggles": {"oracle_compare": False, "mcf_compare": False},
    "seed": 0,
    "snapshot_cadence": 0.15,
    "output_dir": "out/stress_m3n2",
}

VERIFY_SAMPLES = 200

# Bounds pinned in tests/test_acceptance.py.
LINF_AT_256 = 1e-5  # criteria 4 and 5: constraint and oracle Linf, n = 1 on 256 points
LINF_ORDER = 1.8  # criteria 4 and 5: minimum convergence order under refinement
ENERGY_DRIFT = 1e-8  # criterion 6
ACCEL_ORDER = 1.8  # criterion 7
CIRCLE_ERR = 1e-2  # criterion 7


class CheckError(Exception):
    """An output file is missing, malformed or outside a pinned bound."""


def format_config(cfg: dict) -> str:
    """JSON in the layout of the bundled configs: one key per line, one mode per line."""
    lines = []
    for key, value in cfg.items():
        if key == "initial_data":
            inner = []
            for name, modes in value.items():
                head = f'  "{name}": ['
                inner.append(head + (",\n" + " " * len(head)).join(json.dumps(m) for m in modes) + "]")
            text = "{\n" + ",\n".join(inner) + "\n }"
        else:
            text = json.dumps(value)
        lines.append(f' "{key}": {text}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def shifted(template: dict, seed: int) -> dict:
    """The template translated by a seeded whole number of cells per axis."""
    cfg = json.loads(json.dumps(template))
    sizes = cfg["grid"]["sizes"]
    rng = random.Random(seed)
    cells = [0] * len(sizes) if seed == 0 else [rng.randrange(s) for s in sizes]
    for modes in cfg["initial_data"].values():
        for mode in modes:
            turn = sum(w * c / s for w, c, s in zip(mode["wave"], cells, sizes))
            if turn:
                mode["phase"] = math.fmod(mode["phase"] + TWO_PI * turn, TWO_PI)
    return cfg


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One CLI command on generated input; ``prepare`` writes inputs, ``check`` reads outputs."""

    name = ""
    template: dict | None = None
    output = ""  # the file, relative to the work directory, whose sha256 must repeat within an invocation

    def __init__(self, seed: int, config: dict | None = None):
        self.seed = seed
        self.config = config if config is not None or self.template is None else shifted(self.template, seed)

    def prepare(self, work: Path) -> list[str]:
        """Write the generated config into ``work``; return the CLI argv."""
        raise NotImplementedError

    def check(self, out: Path, stdout: str) -> dict:
        """Raise CheckError on a bad output; return the accuracy figures."""
        raise NotImplementedError


class Simulate(Workload):
    output = "out/diagnostics.csv"

    def prepare(self, work):
        path = work / "config.json"
        path.write_text(format_config(self.config))
        return ["--output-dir", str(work / "out"), "simulate", str(path)]

    def check(self, out, stdout):
        rows = _read_csv(out / "diagnostics.csv")
        if len(rows) < 2:
            raise CheckError("diagnostics.csv has fewer than two rows")
        if abs(rows[-1]["t"] - self.config["t_end"]) > 1e-9:
            raise CheckError(f"last diagnostics row at t={rows[-1]['t']}, expected {self.config['t_end']}")
        last = rows[-1]
        constraint = max(last[k] for k in ("lambda_Linf", "omega_Linf", "phi_Linf", "psi_Linf", "sigma_Linf"))
        # the Linf bound pinned on 256 points, scaled to this grid at the pinned order
        bound = LINF_AT_256 * (256 / min(self.config["grid"]["sizes"])) ** LINF_ORDER
        if not constraint <= bound:
            raise CheckError(f"final constraint Linf {constraint:.3e} exceeds {bound:.3e}")
        e0 = rows[0]["total_energy"]
        drift = max(abs(r["total_energy"] - e0) for r in rows) / e0
        if not drift <= ENERGY_DRIFT:
            raise CheckError(f"energy drift {drift:.3e} exceeds {ENERGY_DRIFT:.0e}")
        figures = {"constraint_linf": constraint, "energy_drift_rel": drift}
        if self.config["toggles"]["oracle_compare"]:
            oracle = max(last["oracle_F_err_Linf"], last["oracle_D_err_Linf"])
            if not oracle <= bound:
                raise CheckError(f"final oracle Linf {oracle:.3e} exceeds {bound:.3e}")
            figures["oracle_err_linf"] = oracle
        if self.config.get("snapshot_cadence") is not None:
            for t in (0.0, self.config["t_end"]):
                path = out / f"snapshot_t{t:.6f}.json"
                if not path.is_file() or path.stat().st_size == 0:
                    raise CheckError(f"missing or empty {path.name}")
        return figures


class MembraneN2(Simulate):
    name = "membrane_n2"
    template = MEMBRANE_N2


class StressM3N2(Simulate):
    name = "stress_m3n2"
    template = STRESS_M3N2


class McfSine(Workload):
    name = "mcf_sine"
    template = MCF_SINE_RUN
    output = "out/mcf_compare.csv"

    def prepare(self, work):
        path = work / "config.json"
        path.write_text(format_config(self.config))
        return ["--output-dir", str(work / "out"), "mcf-compare", str(path)]

    def check(self, out, stdout):
        text = (out / "mcf_compare.csv").read_text()
        lines = text.splitlines()[1:]
        dts = self.config["dt_values"]
        if len(lines) < len(dts):
            raise CheckError("mcf_compare.csv is missing acceleration rows")
        errs = []
        for line, dt in zip(lines, dts):
            cells = line.split(",")
            if float(cells[0]) != dt:
                raise CheckError(f"acceleration row for dt={cells[0]}, expected {dt}")
            errs.append(_positive(cells[1], "err_acceleration_Linf"))
        order = _slope([math.log(d) for d in dts], [math.log(e) for e in errs])
        if not order >= ACCEL_ORDER:
            raise CheckError(f"acceleration order {order:.3f} below {ACCEL_ORDER}")
        # the circle block follows and starts at theta = 0; the graph block starts at 0 again
        radius = self.config["circle"]["radius"]
        circle = []
        for line in lines[len(dts) :]:
            theta, _, _, r = line.split(",")
            if float(theta) == 0.0 and circle:
                break
            circle.append((float(theta), float(r)))
        if len(circle) < 2 or circle[0] != (0.0, radius):
            raise CheckError("mcf_compare.csv is missing the shrinking-circle rows")
        circle_err = max(abs(r - math.sqrt(radius**2 - 2 * t)) / math.sqrt(radius**2 - 2 * t) for t, r in circle)
        if not circle_err <= CIRCLE_ERR:
            raise CheckError(f"circle radius error {circle_err:.3e} exceeds {CIRCLE_ERR:.0e}")
        return {"accel_err_linf": errs[dts.index(min(dts))], "mcf_ref_err_rel": circle_err}


class Verify(Workload):
    name = "verify"
    output = "stdout.txt"

    def __init__(self, seed: int, config: dict | None = None):
        # the self-test passes a smaller {"samples": ..}
        super().__init__(seed, config or {"samples": VERIFY_SAMPLES})

    def prepare(self, work):
        return ["--seed", str(self.seed), "verify", "--samples", str(self.config["samples"])]

    def check(self, out, stdout):
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckError(f"verify report is not JSON ({exc})") from None
        if report.get("all_passed") is not True or report.get("failures"):
            raise CheckError(f"verify reports failures: {report.get('failures')!r:.300}")
        samples = self.config["samples"]
        if report.get("seed") != self.seed or report.get("samples") != samples:
            raise CheckError("verify report has the wrong seed or sample count")
        want = samples * len(report["shapes"])
        for name, counts in report["identities"].items():
            if counts != {"pass": want, "fail": 0}:
                raise CheckError(f"identity {name}: {counts}, expected {want} passes")
        return {}


WORKLOADS = {w.name: w for w in (MembraneN2, StressM3N2, McfSine, Verify)}


# ---------------------------------------------------------------------------
# helpers


def _positive(cell: str, what: str) -> float:
    x = float(cell)
    if not (math.isfinite(x) and x > 0):
        raise CheckError(f"{what} = {cell!r} is not a positive number")
    return x


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"{path.name}: row has {len(cells)} cells, header {len(header)}")
        row = {k: (float(c) if c else None) for k, c in zip(header, cells)}
        if any(v is not None and not math.isfinite(v) for v in row.values()):
            raise CheckError(f"{path.name}: non-finite value in row {line!r}")
        rows.append(row)
    return rows


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
