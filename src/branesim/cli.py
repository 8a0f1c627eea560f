"""Command-line surface: verify, simulate, characteristics, mcf-compare.

Exit codes: 0 success, 1 verification failure, 2 config/validation error
(``ConfigError``), 3 runtime blow-up (``BlowUpError``: a non-finite value,
or tau, h or the induced metric out of range).  Every output file, and the
verify report for a fixed seed, is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import flux, mcf, minors, solver
from .minors import ConfigError, enumerate_layout
from .solver import Grid, Mode
from .state import EPS_SINGULAR, BlowUpError, PrimitiveState

DEFAULT_VERIFY_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3))
# the layout enumerates C(m + n, n) - 1 minors, and a k x k determinant past 3x3 is a k!-term cofactor
# expansion: one 6x6 sample takes about 0.06 s of CPU time (2-core Xeon), 8x8 far longer
MAX_VERIFY_DIM = 6


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


@contextmanager
def _naming(keys: str, errors=ConfigError):
    """Re-raise errors (a ConfigError, or an output write's OSError) as a ConfigError prefixed with the keys behind them."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{keys}: {exc}") from None


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
    as the dict each command's parser extends with its own.
    """
    _require_keys(
        data,
        {"schema": True, "m": True, "n": True, "grid": True, "initial_data": True, "output_dir": False, **keys},
        "config",
    )
    if _integer(data["schema"], "config.schema") != 1:
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
    sizes = tuple(_integer(s, "config.grid.sizes", 8) for s in sizes)
    lengths = tuple(_positive(x, "config.grid.lengths") for x in lengths)
    # each length is checked, so Grid refuses the sizes (point budget, spacing) or the lengths' cell volume
    try:
        grid = Grid(sizes, lengths)
    except ConfigError as exc:
        raise ConfigError(f"config.grid.{'lengths' if 'cell volume' in str(exc) else 'sizes'}: {exc}") from None
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


def parse_run_config(data: dict) -> dict:
    cfg = _parse_common(
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
    cfg["t_end"] = _positive(data["t_end"], "config.t_end")
    cfg["output_cadence"] = cadence
    cfg["oracle_compare"] = toggles.get("oracle_compare", False)
    cfg["snapshot_cadence"] = None if snap is None else _positive(snap, "config.snapshot_cadence")
    return cfg


def load_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")

    def unique_keys(pairs):
        """The object of pairs, refusing a key given twice rather than keeping its last value."""
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key {key!r} is given more than once")
            obj[key] = value
        return obj

    try:
        return json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# verify


@dataclass
class VerifyReport:
    """Outcome of the exact integer identity suites."""

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


def _rand_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    # the identities are polynomials with integer coefficients, so integer samples test
    # them as well as rational ones; 31 values in [-15, 15] keep the suites fast
    return [[rng.randint(-15, 15) for _ in range(n)] for _ in range(m)]


def _strs(F) -> list[list[str]]:
    return [[str(x) for x in row] for row in F]


def cmd_verify(shapes, samples: int, seed: int) -> VerifyReport:
    """Run every exact identity suite; failures carry a reproducing input."""
    t0 = time.perf_counter()
    report = VerifyReport(seed=seed, samples=samples, shapes=[tuple(s) for s in shapes])
    names = ("cauchy_binet", "xi", "xi_prime", "z_matrix", "laplace_mixed")
    for name in names:
        report.passes[name] = {"pass": 0, "fail": 0}

    def record(name, ok, shape, drawn):
        report.passes[name]["pass" if ok else "fail"] += 1
        if not ok:
            # the drawn F, or {"M": M, "N": N}, as strings: built only for a failure
            payload = {k: _strs(v) for k, v in drawn.items()} if isinstance(drawn, dict) else _strs(drawn)
            report.failures.append({"identity": name, "shape": list(shape), "input": payload})

    rng = random.Random(seed)
    for m, n in shapes:
        layout = enumerate_layout(m, n)
        # per pair (A, I) in layout order, the expected Laplace matrix as (sign, slot) per entry (q, j):
        # the slot of the minor with column i_q replaced by j, or sign 0 when j lies in I \ {i_q}
        laplace_cases = []
        for A, I in layout._raw:
            expected = [[(0, 0)] * n for _ in A]
            for q in range(1, len(A) + 1):
                icut = I[: q - 1] + I[q:]
                for j in range(1, n + 1):
                    if j not in icut:
                        swapped = tuple(sorted(icut + (j,)))
                        s = minors._sign(minors._rank(swapped, j) + q)
                        expected[q - 1][j - 1] = (s, layout.index_of[(A, swapped)])
            laplace_cases.append(expected)
        for _ in range(samples):
            F = _rand_matrix(rng, m, n)
            mF = minors.all_minors(F, layout)
            xi, Z, xp = minors.xi_prime(F)
            record("xi", xi == minors.xi_minor_sum(mF, layout), (m, n), F)
            record("xi_prime", xp == minors.xi_prime_minor_sum(mF, layout), (m, n), F)
            record("z_matrix", Z == minors.z_minor_sum(mF, layout), (m, n), F)
            ok = all(
                L == [[s * mF[slot] for s, slot in row] for row in expected]
                for L, expected in zip(minors.laplace_mixed(F, layout), laplace_cases)
            )
            record("laplace_mixed", ok, (m, n), F)

            l = rng.randint(1, 3)
            M = _rand_matrix(rng, m, l)
            N = _rand_matrix(rng, l, n)
            pairs = [
                (tuple(sorted(rng.sample(range(1, m + 1), k))), tuple(sorted(rng.sample(range(1, n + 1), k))))
                for k in range(min(m, n, l) + 1)
            ]
            ok = all(lhs == rhs for lhs, rhs in minors.cauchy_binet_check(M, N, pairs))
            record("cauchy_binet", ok, (m, n), {"M": M, "N": N})
    report.elapsed_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# simulate


def _output_dir(flag: str | None, configured: str) -> tuple[Path, str]:
    """(directory, key): the --output-dir flag if given ("" is "."), else config.output_dir; made first, so it exits 2 early."""
    out_dir, key = (Path(configured), "config.output_dir") if flag is None else (Path(flag), "--output-dir")
    with _naming(key, OSError):
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, key


def initial_data(cfg: dict):
    """The one build of a parsed config's data: solver.initial_fields, its ConfigError named config.initial_data."""
    with _naming("config.initial_data"):
        return solver.initial_fields(cfg["grid"], cfg["m"], cfg["x_modes"], cfg["v_modes"])


def cmd_simulate(config_path: str, output_dir: str | None = None) -> int:
    cfg = parse_run_config(load_json(config_path))
    fld, oracle, _ = initial_data(cfg)
    out_dir, key = _output_dir(output_dir, cfg["output_dir"])
    # the keys that size the run: its steps, and the snapshot times when there are any.  A
    # snapshot is written during the run; its OSError passes the inner _naming to name the output directory
    keys = "config.scheme.cfl, config.t_end" + (", config.snapshot_cadence" if cfg["snapshot_cadence"] else "")
    rows = []
    try:
        with _naming(key, OSError):
            try:
                with _naming(keys):
                    solver.run(
                        fld,
                        t_end=cfg["t_end"],
                        cfl=cfg["cfl"],
                        output_cadence=cfg["output_cadence"],
                        oracle=oracle if cfg["oracle_compare"] else None,
                        snapshot_cadence=cfg["snapshot_cadence"],
                        on_snapshot=lambda t, snap: (out_dir / solver.snapshot_name(t)).write_text(solver.snapshot_to_json(snap)),
                        on_row=rows.append,
                    )
            finally:
                # also after a blow-up, an interrupt or an unwritable snapshot; a refused run writes nothing
                if rows:
                    (out_dir / "diagnostics.csv").write_text(solver.rows_to_csv(rows))
    except BlowUpError as exc:
        print(f"blow-up at t={exc.t:.6g}; partial diagnostics written to {out_dir}; {exc.reason}", file=sys.stderr)
        return 3
    names = ("t", "lambda_Linf", "omega_Linf", "phi_Linf", "psi_Linf", "sigma_Linf")
    print("final " + " ".join(f"{name}={solver._fmt(getattr(rows[-1], name))}" for name in names))
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
    if _integer(data.get("schema", 1), "state file.schema") != 1:
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
    # a state whose conservative tuple U = W / tau overflows has no graph data (F, D) behind it
    if not all(math.isfinite(x / tau) for x in d + v + mm):
        raise ConfigError("state: too large; an entry of W / tau overflows")
    W = PrimitiveState(tau, d, v, mm, layout)
    nu = data.get("nu")
    if nu is not None:
        nu = _numbers(nu, n, "nu")
        if not any(nu):
            raise ConfigError("nu: must be a nonzero direction")
    return W, nu


def cmd_characteristics(path: str) -> int:
    W, nu = _state_from_json(load_json(path))
    lay = W.layout
    if nu is None:
        nu = [0.0] * lay.n
        nu[0] = 1.0
    # scaling by max |nu| first keeps the squares in the norm from overflowing or underflowing
    nu = np.asarray(nu) / np.max(np.abs(nu))
    # the speeds are linear in W, and sigma^2 squares tau and (n = 2) the 1x1 minors: scaling
    # W down by the power of two above them keeps the squares finite and the speeds exact
    ones = [W.m_minors[lay.slot((a,), (i,))] for a in range(1, lay.m + 1) for i in (1, 2)] if lay.n == 2 else []
    k = max(0, math.frexp(max([W.tau, *map(abs, ones)]))[1])
    scaled = PrimitiveState.from_vector([math.ldexp(x, -k) for x in W.as_vector()], lay)
    with np.errstate(over="ignore", invalid="ignore"):
        nu = nu / np.linalg.norm(nu)
        spectrum = flux.wave_speeds(W, nu)
        res = flux.linear_degeneracy_residual(W) if lay.n == 1 else 0.0
        c, s2 = flux.char_speeds(scaled, nu)
        sigma = np.sqrt(s2)
        speeds = np.ldexp([c + sigma, c - sigma, c], k)
    if not np.all(np.isfinite([*spectrum, *speeds, res])):
        raise ConfigError("state: too large; its speeds, spectrum or linear-degeneracy residual are not finite")
    print("speed multiplicity")
    for speed, mult in zip(speeds, (lay.m + 1, lay.m + 1, lay.state_dim - 2 * (lay.m + 1))):
        if mult > 0:
            print(f"{solver._fmt(speed)} {mult}")
    if lay.n == 1:
        print(f"linear_degeneracy_residual {solver._fmt(res)}")
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
            "points": _integer(c["points"], "config.circle.points", 8, solver.MAX_POINTS),
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
    # one build serves the acceleration comparison at every dt and the graph flow
    data = initial_data(cfg)
    u0 = data[2]
    out_dir, key = _output_dir(output_dir, cfg["output_dir"])
    lines = ["t,err_acceleration_Linf,tangency_residual,radius_or_amplitude"]

    E0 = mcf.EmbeddingField.from_graph(cfg["grid"], u0)
    tan0 = mcf.tangency_residual(E0)
    amp0 = float(np.max(np.abs(u0)))

    with _naming("config.dt_values, config.scheme.cfl"):
        errors = mcf.acceleration_limit_test(data, cfg["dt_values"], cfg["cfl"])
    for dt, err in zip(cfg["dt_values"], errors):
        lines.append(",".join([solver._fmt(dt), solver._fmt(err), solver._fmt(tan0), solver._fmt(amp0)]))

    order_line = "acceleration order in dt:"
    if len(cfg["dt_values"]) >= 2:
        order_line += f" {solver._fmt(measured_order(errors, cfg['dt_values']))}"

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
            thetas, amps = mcf.graph_amplitude_decay(E0, gf["theta_end"], gf["step_factor"])
        for k in _sampled_rows(len(thetas)):
            lines.append(",".join([solver._fmt(thetas[k]), "", solver._fmt(tan0), solver._fmt(amps[k])]))

    with _naming(key, OSError):
        (out_dir / "mcf_compare.csv").write_text("\n".join(lines) + "\n")
    # stdout only once every march has run, so a flow that exits 2 leaves none
    print(order_line)
    print(f"comparison written to {out_dir / 'mcf_compare.csv'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="branesim", description=__doc__)
    parser.add_argument(
        "--output-dir", default=None, help="override the config output directory (simulate and mcf-compare only)"
    )
    parser.add_argument("--seed", type=int, default=None, help="seed of the random samples drawn by verify (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the exact integer identity suites")
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
    # every command prints to stdout only after its work, then returns 0; verify sets 1 before its print
    code = 0
    try:
        # a global flag the command does not read is refused, not ignored
        if args.seed is not None and args.command != "verify":
            raise ConfigError(f"--seed: {args.command} draws no random samples; only verify takes a seed")
        if args.output_dir is not None and args.command in ("verify", "characteristics"):
            raise ConfigError(f"--output-dir: {args.command} writes no files; it prints to stdout")
        if args.command == "verify":
            shapes = []
            for token in args.shapes.split(","):
                m, _, n = token.strip().partition("x")
                if not (m.isdecimal() and n.isdecimal()):
                    raise ConfigError(f"--shapes: bad shape token {token!r}; expected like 2x3")
                m, n = int(m), int(n)
                if not (1 <= m <= MAX_VERIFY_DIM and 1 <= n <= MAX_VERIFY_DIM):
                    raise ConfigError(f"--shapes: {token.strip()!r} needs m and n in [1, {MAX_VERIFY_DIM}]")
                if (m, n) in shapes:
                    raise ConfigError(f"--shapes: {m}x{n} is repeated; list each shape once")
                shapes.append((m, n))
            if args.samples < 0:
                raise ConfigError("--samples must be >= 0")
            seed = 0 if args.seed is None else args.seed
            if seed < 0:
                raise ConfigError("--seed must be >= 0; a negative seed would draw the samples of its absolute value")
            report = cmd_verify(shapes, args.samples, seed)
            code = 0 if report.all_passed() else 1
            print(report.to_json())
            print(f"verify completed in {report.elapsed_s:.3f}s", file=sys.stderr)
        elif args.command == "simulate":
            code = cmd_simulate(args.config, args.output_dir)
        elif args.command == "characteristics":
            code = cmd_characteristics(args.state)
        else:
            code = cmd_mcf_compare(args.config, args.output_dir)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone: the work is done, so keep its code, and point stdout
        # at devnull so that the interpreter's last flush does not print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
