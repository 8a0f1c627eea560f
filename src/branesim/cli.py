"""Command-line surface: verify, simulate, characteristics, mcf-compare.

Exit codes: 0 success, 1 verification failure, 2 config/validation error,
3 runtime blow-up.  Every output file, and the verify report for a fixed
seed, is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import flux, mcf, minors, solver
from .minors import DomainError, enumerate_layout
from .solver import ConfigError, Grid, Mode
from .state import EPS_SINGULAR, PrimitiveState

DEFAULT_VERIFY_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3))


# ---------------------------------------------------------------------------
# configuration


def _require_keys(obj: dict, allowed: dict, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key '{key}'")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"{where}: missing key '{key}'")


def _finite(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where}: value must be finite")
    return v


def _positive(x, where: str) -> float:
    v = _finite(x, where)
    if v <= 0:
        raise ConfigError(f"{where}: must be positive")
    return v


def _integer(x, where: str, lo: int | None = None, hi: int | None = None) -> int:
    """A whole JSON number (2 or 2.0, not 2.5, "2" or true), optionally in [lo, hi]."""
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {x!r}")
    x = int(x)
    if (lo is not None and x < lo) or (hi is not None and x > hi):
        raise ConfigError(f"{where}: must lie in [{lo}, {hi}]" if hi is not None else f"{where}: must be >= {lo}")
    return x


def _parse_modes(items, m: int, n: int, where: str) -> list[Mode]:
    if not isinstance(items, list):
        raise ConfigError(f"{where}: expected a list of modes")
    out = []
    for k, item in enumerate(items):
        at = f"{where}[{k}]"
        _require_keys(item, {"component": True, "wave": True, "amplitude": True, "phase": False}, at)
        wave = item["wave"]
        if not isinstance(wave, list) or len(wave) != n:
            raise ConfigError(f"{at}.wave: expected {n} integers")
        out.append(
            Mode(
                component=_integer(item["component"], f"{at}.component", 1, m),
                wave=tuple(_integer(w, f"{at}.wave") for w in wave),
                amplitude=_finite(item["amplitude"], f"{at}.amplitude"),
                phase=_finite(item.get("phase", 0.0), f"{at}.phase"),
            )
        )
    return out


def _parse_common(data: dict, keys: dict, scheme_keys: dict) -> dict:
    """Validate the keys that simulate and mcf-compare configs share.

    ``keys`` and ``scheme_keys`` map each command's own top-level and
    ``scheme`` keys to whether they are required.  Returns the shared fields
    under the names ``RunConfig`` uses.
    """
    _require_keys(
        data,
        {"schema": True, "m": True, "n": True, "grid": True, "initial_data": True, "output_dir": False, **keys},
        "config",
    )
    if data["schema"] != 1:
        raise ConfigError(f"config.schema: unsupported schema {data['schema']!r}")
    m = _integer(data["m"], "config.m", 1, 3)
    n = _integer(data["n"], "config.n", 1, 2)
    _require_keys(data["grid"], {"sizes": True, "lengths": True}, "config.grid")
    sizes = data["grid"]["sizes"]
    lengths = data["grid"]["lengths"]
    if not isinstance(sizes, list) or len(sizes) != n:
        raise ConfigError(f"config.grid.sizes: expected {n} entries")
    if not isinstance(lengths, list) or len(lengths) != n:
        raise ConfigError(f"config.grid.lengths: expected {n} entries")
    grid = Grid(
        tuple(_integer(s, "config.grid.sizes", 8) for s in sizes),
        tuple(_positive(x, "config.grid.lengths") for x in lengths),
    )
    scheme = data.get("scheme", {})
    _require_keys(scheme, {"stencil_order": False, "cfl": False, **scheme_keys}, "config.scheme")
    # accepted as 2 only, the value existing configs send
    if _integer(scheme.get("stencil_order", 2), "config.scheme.stencil_order") != 2:
        raise ConfigError("config.scheme.stencil_order: must be 2; the stencil is second-order central differences")
    cfl = _finite(scheme.get("cfl", 0.4), "config.scheme.cfl")
    if not 0 < cfl <= 1:
        raise ConfigError("config.scheme.cfl: must lie in (0, 1]")
    init = data["initial_data"]
    _require_keys(init, {"X_modes": True, "V_modes": False}, "config.initial_data")
    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a string")
    return {
        "m": m,
        "n": n,
        "grid": grid,
        "cfl": cfl,
        "x_modes": _parse_modes(init["X_modes"], m, n, "config.initial_data.X_modes"),
        "v_modes": _parse_modes(init.get("V_modes", []), m, n, "config.initial_data.V_modes"),
        "output_dir": output_dir,
    }


@dataclass
class RunConfig:
    """Validated simulate configuration (schema 1)."""

    m: int
    n: int
    grid: Grid
    cfl: float
    t_end: float
    output_cadence: float
    x_modes: list[Mode]
    v_modes: list[Mode]
    oracle_compare: bool
    output_dir: str
    snapshot_cadence: float | None = None


def parse_run_config(data: dict) -> RunConfig:
    common = _parse_common(
        data,
        {
            "scheme": True,
            "t_end": True,
            "output_cadence": True,
            "toggles": False,
            "seed": False,
            "snapshot_cadence": False,
        },
        {"filter_strength": False},
    )
    # accepted as 0 only, the value existing configs send
    if _finite(data["scheme"].get("filter_strength", 0.0), "config.scheme.filter_strength") != 0:
        raise ConfigError("config.scheme.filter_strength: must be 0; the evolution has no filter")
    cadence = _finite(data["output_cadence"], "config.output_cadence")
    if cadence < 0:
        raise ConfigError("config.output_cadence: must be >= 0 (0 writes diagnostics at t = 0 and t_end only)")
    toggles = data.get("toggles", {})
    _require_keys(toggles, {"oracle_compare": False, "mcf_compare": False}, "config.toggles")
    for key, value in toggles.items():
        if not isinstance(value, bool):
            raise ConfigError(f"config.toggles.{key}: expected true or false")
    if toggles.get("mcf_compare"):
        raise ConfigError(
            "config.toggles.mcf_compare: simulate does not run the MCF comparison; use the mcf-compare command"
        )
    # simulate draws no random numbers; the seed is checked and has no effect
    _integer(data.get("seed", 0), "config.seed")
    snap = data.get("snapshot_cadence")
    return RunConfig(
        **common,
        t_end=_positive(data["t_end"], "config.t_end"),
        output_cadence=cadence,
        oracle_compare=toggles.get("oracle_compare", False),
        snapshot_cadence=None if snap is None else _positive(snap, "config.snapshot_cadence"),
    )


def load_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# verify


@dataclass
class VerifyReport:
    """Outcome of the exact-rational identity suites."""

    seed: int
    samples: int
    shapes: list[tuple[int, int]]
    passes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0

    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        # elapsed time varies run to run, so it stays out of the report body
        doc = {
            "schema": 1,
            "seed": self.seed,
            "samples": self.samples,
            "shapes": [list(s) for s in self.shapes],
            "identities": {k: self.passes[k] for k in sorted(self.passes)},
            "failures": self.failures,
            "all_passed": self.all_passed(),
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def _rand_fraction(rng: random.Random) -> Fraction:
    # entries in [-5, 5] with small denominators keeps the suites fast
    return Fraction(rng.randint(-10, 10), rng.randint(1, 2))


def _rand_matrix(rng: random.Random, m: int, n: int) -> list[list[Fraction]]:
    return [[_rand_fraction(rng) for _ in range(n)] for _ in range(m)]


def cmd_verify(shapes=DEFAULT_VERIFY_SHAPES, samples: int = 200, seed: int = 0) -> VerifyReport:
    """Run every exact identity suite; failures carry a reproducing input."""
    t0 = time.perf_counter()
    report = VerifyReport(seed=seed, samples=samples, shapes=[tuple(s) for s in shapes])
    names = ("cauchy_binet", "xi", "xi_prime", "z_matrix", "laplace_mixed")
    for name in names:
        report.passes[name] = {"pass": 0, "fail": 0}

    def record(name, ok, shape, payload):
        report.passes[name]["pass" if ok else "fail"] += 1
        if not ok:
            report.failures.append({"identity": name, "shape": list(shape), "input": payload})

    rng = random.Random(seed)
    for m, n in shapes:
        layout = enumerate_layout(m, n)
        for _ in range(samples):
            F = _rand_matrix(rng, m, n)
            payload = [[str(x) for x in row] for row in F]
            mv = minors.all_minors(F, layout)

            ok = minors.xi(F) == minors.xi_minor_sum(mv, layout)
            record("xi", ok, (m, n), payload)

            ok = minors.xi_prime(F) == minors.xi_prime_minor_sum(mv, layout)
            record("xi_prime", ok, (m, n), payload)

            ok = minors.z_matrix(F) == minors.z_minor_sum(mv, layout)
            record("z_matrix", ok, (m, n), payload)

            ok3 = True
            for A, I in layout._raw:
                k = len(A)
                for q in range(1, k + 1):
                    for j in range(1, n + 1):
                        got = minors.laplace_mixed(F, A, I, q, j)
                        iq = I[q - 1]
                        icut = tuple(x for x in I if x != iq)
                        if j in icut:
                            want = Fraction(0)
                        else:
                            swapped = tuple(sorted(icut + (j,)))
                            s = minors._sign(minors._rank(swapped, j) + q)
                            want = s * minors.minor(F, A, swapped)
                        if got != want:
                            ok3 = False
            record("laplace_mixed", ok3, (m, n), payload)

            l = rng.randint(1, 3)
            M = _rand_matrix(rng, m, l)
            N = _rand_matrix(rng, l, n)
            okcb = True
            for k in range(0, min(m, n, l) + 1):
                I = tuple(sorted(rng.sample(range(1, m + 1), k)))
                J = tuple(sorted(rng.sample(range(1, n + 1), k)))
                lhs, rhs = minors.cauchy_binet_check(M, N, I, J)
                if lhs != rhs:
                    okcb = False
            record(
                "cauchy_binet",
                okcb,
                (m, n),
                {"M": [[str(x) for x in r] for r in M], "N": [[str(x) for x in r] for r in N]},
            )
    report.elapsed_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# simulate


@contextmanager
def _naming(keys: str):
    """Prefix a ConfigError with the config keys that size a march (solver.plan_steps bounds its step count)."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _output_dir(flag: str | None, configured: str) -> Path:
    """The --output-dir flag, else config.output_dir; created before the run, so a bad path exits 2 early."""
    out_dir = Path(flag or configured)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        where = "--output-dir" if flag else "config.output_dir"
        raise ConfigError(f"{where}: cannot create directory {out_dir} ({exc.strerror or exc})") from None
    return out_dir


def _write_run(out_dir: Path, rows, snapshots):
    (out_dir / "diagnostics.csv").write_text(solver.rows_to_csv(rows))
    for t, snap in snapshots:
        (out_dir / f"snapshot_t{t:.6f}.json").write_text(solver.snapshot_to_json(snap))


def cmd_simulate(config_path: str, output_dir: str | None = None) -> int:
    cfg = parse_run_config(load_json(config_path))
    fld, oracle, _ = solver.initial_fields(cfg.grid, cfg.m, cfg.x_modes, cfg.v_modes)
    out_dir = _output_dir(output_dir, cfg.output_dir)
    try:
        with _naming("config.scheme.cfl, config.t_end"):
            result = solver.run(
                fld,
                t_end=cfg.t_end,
                cfl=cfg.cfl,
                output_cadence=cfg.output_cadence,
                oracle=oracle if cfg.oracle_compare else None,
                snapshot_cadence=cfg.snapshot_cadence,
            )
    except solver.BlowUpError as exc:
        _write_run(out_dir, exc.rows, exc.snapshots)
        print(f"blow-up at t={exc.t:.6g}; partial diagnostics written to {out_dir}", file=sys.stderr)
        return 3
    _write_run(out_dir, result.rows, result.snapshots)
    last = result.rows[-1]
    names = ("t", "lambda_Linf", "omega_Linf", "phi_Linf", "psi_Linf", "sigma_Linf")
    print("final " + " ".join(f"{name}={solver._fmt(getattr(last, name))}" for name in names))
    return 0


# ---------------------------------------------------------------------------
# characteristics


def _numbers(x, length: int, where: str) -> list[float]:
    if not isinstance(x, list) or len(x) != length:
        raise ConfigError(f"{where}: expected a list of {length} numbers")
    return [_finite(v, where) for v in x]


def _state_from_json(data: dict) -> tuple[PrimitiveState, list[float] | None]:
    _require_keys(
        data, {"schema": False, "m": True, "n": True, "state": True, "nu": False}, "state file"
    )
    if data.get("schema", 1) != 1:
        raise ConfigError(f"state file.schema: unsupported schema {data['schema']!r}")
    m, n = _integer(data["m"], "state file.m", 1, 3), _integer(data["n"], "state file.n", 1, 2)
    layout = enumerate_layout(m, n)
    st = data["state"]
    _require_keys(st, {"tau": True, "d": True, "v": True, "minors": True}, "state")
    tau = _finite(st["tau"], "state.tau")
    if tau <= EPS_SINGULAR:
        raise ConfigError(f"state.tau: must exceed {EPS_SINGULAR} (tau = 1/h with h > 0)")
    d = _numbers(st["d"], m, "state.d")
    v = _numbers(st["v"], n, "state.v")
    mm = _numbers(st["minors"], layout.minor_count, "state.minors")
    W = PrimitiveState(tau, d, v, mm, layout)
    nu = data.get("nu")
    if nu is not None:
        nu = _numbers(nu, n, "nu")
        if not any(nu):
            raise ConfigError("nu: must be a nonzero direction")
    return W, nu


def cmd_characteristics(path: str) -> int:
    W, nu = _state_from_json(load_json(path))
    n = W.layout.n
    if nu is None:
        nu = [0.0] * n
        nu[0] = 1.0
    if n == 1:
        lp, lm, fields = flux.char_speeds_n1(W)
        res = flux.linear_degeneracy_residual(W)
        print("speed multiplicity")
        for f in fields:
            print(f"{solver._fmt(f.speed)} {f.multiplicity}")
        print(f"linear_degeneracy_residual {solver._fmt(res)}")
    # scaling by max |nu| first keeps the squares in the norm from overflowing or underflowing
    nu = np.asarray(nu) / np.max(np.abs(nu))
    spectrum = flux.wave_speeds(W, nu / np.linalg.norm(nu))
    print("spectrum " + " ".join(solver._fmt(x) for x in spectrum))
    return 0


# ---------------------------------------------------------------------------
# mcf-compare


def parse_mcf_config(data: dict) -> dict:
    cfg = _parse_common(
        data, {"scheme": False, "dt_values": True, "circle": False, "graph_flow": False}, {}
    )
    if any(mode.amplitude != 0.0 for mode in cfg["v_modes"]):
        raise ConfigError("config.initial_data.V_modes: the quadratic-time comparison requires V = 0")
    dts = data["dt_values"]
    if not isinstance(dts, list) or not dts:
        raise ConfigError("config.dt_values: expected a non-empty list")
    cfg["dt_values"] = [_positive(x, "config.dt_values") for x in dts]
    if any(dt * dt < sys.float_info.min for dt in cfg["dt_values"]):
        raise ConfigError("config.dt_values: too small; the acceleration divides by dt^2, which underflows")
    if len(set(cfg["dt_values"])) != len(dts):
        raise ConfigError("config.dt_values: entries must be distinct; the order in dt is fitted across them")
    cfg["circle"] = cfg["graph_flow"] = None
    if "circle" in data:
        c = data["circle"]
        _require_keys(c, {"radius": True, "points": True, "theta_end": True, "step_factor": False}, "config.circle")
        cfg["circle"] = {
            "radius": _positive(c["radius"], "config.circle.radius"),
            "points": _integer(c["points"], "config.circle.points", 8),
            "theta_end": _positive(c["theta_end"], "config.circle.theta_end"),
            "step_factor": _positive(c.get("step_factor", 0.1), "config.circle.step_factor"),
        }
        collapse = cfg["circle"]["radius"] * cfg["circle"]["radius"] / 2  # inf, not OverflowError, for huge radii
        if not math.isfinite(collapse):
            raise ConfigError("config.circle.radius: too large; radius^2 overflows")
        if cfg["circle"]["theta_end"] >= collapse:
            raise ConfigError(
                f"config.circle.theta_end: must be below the collapse time radius^2 / 2 = {collapse:.17g}"
            )
    if "graph_flow" in data:
        gf = data["graph_flow"]
        _require_keys(gf, {"theta_end": True, "step_factor": False}, "config.graph_flow")
        cfg["graph_flow"] = {
            "theta_end": _positive(gf["theta_end"], "config.graph_flow.theta_end"),
            "step_factor": _positive(gf.get("step_factor", 0.1), "config.graph_flow.step_factor"),
        }
    return cfg


def measured_order(errors, steps) -> float | None:
    """Least-squares slope of log(error) against log(step)."""
    e = np.asarray(errors, dtype=float)
    s = np.asarray(steps, dtype=float)
    if e.size < 2 or np.any(e <= 0):
        return None
    coef = np.polyfit(np.log(s), np.log(e), 1)
    return float(coef[0])


def _sampled_rows(count: int) -> list[int]:
    """Every (count // 32)-th row index from 0, and the last one, which ends the flow."""
    rows = list(range(0, count, max(1, count // 32)))
    if rows[-1] != count - 1:
        rows.append(count - 1)
    return rows


def cmd_mcf_compare(config_path: str, output_dir: str | None = None) -> int:
    cfg = parse_mcf_config(load_json(config_path))
    grid = cfg["grid"]
    out_dir = _output_dir(output_dir, cfg["output_dir"])
    lines = ["t,err_acceleration_Linf,tangency_residual,radius_or_amplitude"]

    u0, _ = solver.fourier_series(cfg["x_modes"], grid, cfg["m"])
    E0 = mcf.EmbeddingField.from_graph(grid, u0)
    tan0 = mcf.tangency_residual(E0)
    amp0 = float(np.max(np.abs(u0)))

    errors = []
    for dt in cfg["dt_values"]:
        with _naming("config.dt_values, config.scheme.cfl"):
            err = mcf.acceleration_limit_test(grid, cfg["m"], cfg["x_modes"], dt, cfl=cfg["cfl"])
        errors.append(err)
        lines.append(",".join([solver._fmt(dt), solver._fmt(err), solver._fmt(tan0), solver._fmt(amp0)]))

    if len(cfg["dt_values"]) >= 2:
        p = measured_order(errors, cfg["dt_values"])
        print(f"acceleration order in dt: {solver._fmt(p)}")
    else:
        print("acceleration order in dt:")

    if cfg["circle"] is not None:
        c = cfg["circle"]
        with _naming("config.circle.step_factor, config.circle.theta_end"):
            thetas, radii = mcf.shrinking_circle_radii(c["points"], c["radius"], c["theta_end"], c["step_factor"])
        tanc = mcf.tangency_residual(mcf.circle_embedding(c["points"], c["radius"]))
        for k in _sampled_rows(len(thetas)):
            lines.append(",".join([solver._fmt(thetas[k]), "", solver._fmt(tanc), solver._fmt(radii[k])]))

    if cfg["graph_flow"] is not None:
        gf = cfg["graph_flow"]
        with _naming("config.graph_flow.step_factor, config.graph_flow.theta_end"):
            thetas, amps = mcf.graph_amplitude_decay(grid, cfg["m"], cfg["x_modes"], gf["theta_end"], gf["step_factor"])
        for k in _sampled_rows(len(thetas)):
            lines.append(",".join([solver._fmt(thetas[k]), "", solver._fmt(tan0), solver._fmt(amps[k])]))

    (out_dir / "mcf_compare.csv").write_text("\n".join(lines) + "\n")
    print(f"comparison written to {out_dir / 'mcf_compare.csv'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="branesim", description=__doc__)
    parser.add_argument("--output-dir", default=None, help="override the config output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random samples drawn by verify")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the exact-rational identity suites")
    pv.add_argument("--samples", type=int, default=200)
    pv.add_argument(
        "--shapes",
        default=",".join(f"{m}x{n}" for m, n in DEFAULT_VERIFY_SHAPES),
        help="comma-separated list like 2x2,2x3",
    )

    ps = sub.add_parser("simulate", help="evolve a configuration and write diagnostics")
    ps.add_argument("config")

    pc = sub.add_parser("characteristics", help="print propagation speeds for a state")
    pc.add_argument("state")

    pm = sub.add_parser("mcf-compare", help="quadratic-time limit against mean curvature flow")
    pm.add_argument("config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            shapes = []
            for token in args.shapes.split(","):
                m, _, n = token.strip().partition("x")
                if not (m.isdigit() and n.isdigit()):
                    raise ConfigError(f"bad shape token {token!r}; expected like 2x3")
                shapes.append((int(m), int(n)))
            if args.samples < 0:
                raise ConfigError("--samples must be >= 0")
            report = cmd_verify(shapes, args.samples, args.seed)
            print(report.to_json())
            print(f"verify completed in {report.elapsed_s:.3f}s", file=sys.stderr)
            return 0 if report.all_passed() else 1
        if args.command == "simulate":
            return cmd_simulate(args.config, args.output_dir)
        if args.command == "characteristics":
            return cmd_characteristics(args.state)
        if args.command == "mcf-compare":
            return cmd_mcf_compare(args.config, args.output_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except solver.BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
