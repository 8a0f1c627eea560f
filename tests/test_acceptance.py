"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines; tolerances
are pinned here and nowhere else.
"""

import json
import math
import random
import time
from fractions import Fraction as Fr
from math import comb

import numpy as np
import pytest

from branesim import cli, flux, mcf, minors, solver, state

TWO_PI = 2 * np.pi
SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]

X_N1 = [solver.Mode(1, (1,), 0.1, 0.0)]
V_N1 = [solver.Mode(1, (1,), 0.05, 0.7)]
X_N2 = [solver.Mode(1, (1, 0), 0.1, 0.0), solver.Mode(1, (0, 1), 0.1, 0.5)]
V_N2 = [solver.Mode(1, (1, 1), 0.05, 0.3)]

_timings = {}


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def _order(coarse, fine, floor=1e-13):
    """Measured order between halved resolutions; structural zeros pass."""
    if coarse <= floor and fine <= floor:
        return None
    if fine <= 0:
        return float("inf")
    return math.log2(coarse / fine)


def _orders_ok(pairs, minimum=1.8):
    bad = []
    for name, coarse, fine in pairs:
        p = _order(coarse, fine)
        if p is not None and p < minimum:
            bad.append((name, p))
    return bad


@pytest.fixture(scope="module")
def runs_n1():
    t0 = time.perf_counter()
    out = {}
    for N in (128, 256):
        grid = solver.Grid((N,), (TWO_PI,))
        fld, oracle, _ = solver.initial_fields(grid, 1, X_N1, V_N1)
        out[N] = rows = []
        solver.run(fld, t_end=1.0, cfl=0.4, output_cadence=0.1, oracle=oracle, on_row=rows.append)
    _timings["n1"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def runs_n2():
    t0 = time.perf_counter()
    out = {}
    for N in (64, 128):
        grid = solver.Grid((N, N), (TWO_PI, TWO_PI))
        fld, oracle, _ = solver.initial_fields(grid, 1, X_N2, V_N2)
        out[N] = rows = []
        solver.run(fld, t_end=1.0, cfl=0.4, output_cadence=0.5, oracle=oracle, on_row=rows.append)
    _timings["n2"] = time.perf_counter() - t0
    return out


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    report = cli.cmd_verify(shapes=SHAPES, samples=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = report.all_passed() and elapsed < 10.0
    counts = {k: v["pass"] for k, v in report.passes.items()}
    _report(1, ok, f"exact identities {counts}, failures={len(report.failures)}, {elapsed:.2f}s (< 10 s)")


def test_criterion_2_symmetric_linear_structure():
    rng = random.Random(2024)
    shapes = [(m, n) for m in (1, 2) for n in (1, 2, 3)]
    checked = 0
    ok = True
    while checked < 500:
        m, n = shapes[checked % len(shapes)]
        lay = minors.enumerate_layout(m, n)
        vec1 = [Fr(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(lay.state_dim)]
        vec2 = [Fr(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(lay.state_dim)]
        j = rng.randint(1, n)
        W1 = state.PrimitiveState.from_vector(vec1, lay)
        W2 = state.PrimitiveState.from_vector(vec2, lay)
        a, b = Fr(rng.randint(-4, 4), rng.randint(1, 3)), Fr(rng.randint(-4, 4), rng.randint(1, 3))
        W3 = state.PrimitiveState.from_vector([a * x + b * y for x, y in zip(vec1, vec2)], lay)
        A1, A2, A3 = flux.assemble_A(j, W1), flux.assemble_A(j, W2), flux.assemble_A(j, W3)
        ok = ok and (A1 == A1.T).all() and (A3 == a * A1 + b * A2).all()
        checked += 1
    dims_ok = all(
        minors.enumerate_layout(m, n).state_dim == n + m + comb(m + n, n)
        for m in (1, 2, 3)
        for n in (1, 2)
    )
    _report(2, ok and dims_ok, f"{checked} random (W, j): exactly symmetric and linear; state dims match n+m+C(m+n,n)")


def test_criterion_3_n1_characteristics():
    rng = np.random.default_rng(3)
    worst_spec = 0.0
    worst_degen = 0.0
    for m in (1, 2, 3):
        lay = minors.enumerate_layout(m, 1)
        for _ in range(100):
            vec = rng.uniform(-1.0, 1.0, lay.state_dim)
            vec[0] = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
            W = state.PrimitiveState.from_vector(list(vec), lay)
            c, s2 = flux.char_speeds(W, [1.0])
            lp, lm = c + np.sqrt(s2), c - np.sqrt(s2)
            ev = np.sort(np.linalg.eigvalsh(np.asarray(flux.assemble_A(1, W), dtype=float)))
            want = np.sort([lm] * (m + 1) + [lp] * (m + 1))
            worst_spec = max(worst_spec, float(np.max(np.abs(ev - want))))
            worst_degen = max(worst_degen, flux.linear_degeneracy_residual(W))
    ok = worst_spec <= 1e-10 and worst_degen <= 1e-6
    _report(3, ok, f"spectrum error {worst_spec:.2e} (<= 1e-10), degeneracy residual {worst_degen:.2e} (<= 1e-6)")


def test_criterion_4_constraint_preservation(runs_n1, runs_n2):
    r128, r256 = runs_n1[128][-1], runs_n1[256][-1]
    pairs_n1 = [
        ("lambda", r128.lambda_Linf, r256.lambda_Linf),
        ("omega", r128.omega_Linf, r256.omega_Linf),
        ("phi", r128.phi_Linf, r256.phi_Linf),
        ("psi", r128.psi_Linf, r256.psi_Linf),
    ]
    bad = _orders_ok(pairs_n1)
    abs_ok = max(r256.lambda_Linf, r256.omega_Linf, r256.phi_Linf, r256.psi_Linf) <= 1e-5

    q64, q128 = runs_n2[64][-1], runs_n2[128][-1]
    pairs_n2 = [
        ("lambda2", q64.lambda_Linf, q128.lambda_Linf),
        ("omega2", q64.omega_Linf, q128.omega_Linf),
        ("phi2", q64.phi_Linf, q128.phi_Linf),
        ("psi2", q64.psi_Linf, q128.psi_Linf),
        ("sigma2", q64.sigma_Linf, q128.sigma_Linf),
    ]
    bad += _orders_ok(pairs_n2)
    runtime = _timings["n1"] + _timings["n2"]
    ok = not bad and abs_ok and runtime < 120.0
    detail = (
        f"orders n=1 lam {_order(*pairs_n1[0][1:]):.2f} om {_order(*pairs_n1[1][1:]):.2f}, "
        f"n=2 lam {_order(*pairs_n2[0][1:]):.2f} sigma {_order(*pairs_n2[4][1:]):.2f} (>= 1.8); "
        f"fine Linf {max(r256.lambda_Linf, r256.omega_Linf):.2e} (<= 1e-5); runtime {runtime:.1f}s (< 120 s)"
    )
    if bad:
        detail += f"; failed orders {bad}"
    _report(4, ok, detail)


def test_criterion_5_oracle_equivalence(runs_n1, runs_n2):
    r128, r256 = runs_n1[128][-1], runs_n1[256][-1]
    q64, q128 = runs_n2[64][-1], runs_n2[128][-1]
    pairs = [
        ("F n=1", r128.oracle_F_err_Linf, r256.oracle_F_err_Linf),
        ("D n=1", r128.oracle_D_err_Linf, r256.oracle_D_err_Linf),
        ("F n=2", q64.oracle_F_err_Linf, q128.oracle_F_err_Linf),
        ("D n=2", q64.oracle_D_err_Linf, q128.oracle_D_err_Linf),
    ]
    bad = _orders_ok(pairs)
    abs_ok = max(r256.oracle_F_err_Linf, r256.oracle_D_err_Linf) <= 1e-5
    ok = not bad and abs_ok
    detail = (
        f"orders F {_order(*pairs[0][1:]):.2f} D {_order(*pairs[1][1:]):.2f} (>= 1.8); "
        f"fine Linf {max(r256.oracle_F_err_Linf, r256.oracle_D_err_Linf):.2e} (<= 1e-5)"
    )
    if bad:
        detail += f"; failed orders {bad}"
    _report(5, ok, detail)


def test_criterion_6_conservation(runs_n1):
    E = np.array([row.total_energy for row in runs_n1[128]])
    drift = float(np.max(np.abs(E - E[0])) / E[0])
    ent_order = _order(runs_n1[128][-1].entropy_residual_L2, runs_n1[256][-1].entropy_residual_L2)
    ok = drift <= 1e-8 and ent_order is not None and ent_order >= 1.8
    _report(6, ok, f"energy drift {drift:.2e} (<= 1e-8); entropy residual order {ent_order:.2f} (>= 1.8)")


def test_criterion_7_mcf_limit():
    grid = solver.Grid((512,), (TWO_PI,))
    dts = [4e-3, 2e-3, 1e-3]
    errs = mcf.acceleration_limit_test(solver.initial_fields(grid, 1, X_N1, []), dts, 0.4)
    p = cli.measured_order(errs, dts)

    thetas, radii = mcf.shrinking_circle_radii(256, 1.0, 0.25, 0.1)
    exact = np.sqrt(1.0 - 2.0 * thetas)
    circle_err = float(np.max(np.abs(radii - exact) / exact))

    tans = []
    for N in (128, 256):
        g = solver.Grid((N,), (TWO_PI,))
        u, _ = solver.fourier_series(X_N1, g, 1)
        tans.append(mcf.tangency_residual(mcf.EmbeddingField.from_graph(g, u)))
    tan_order = _order(tans[0], tans[1])

    ok = p is not None and p >= 1.8 and circle_err <= 0.01 and tan_order is not None and tan_order >= 1.8
    _report(
        7,
        ok,
        f"acceleration order {p:.2f} (>= 1.8); circle radius error {circle_err:.2e} (<= 1e-2); "
        f"tangency order {tan_order:.2f} (>= 1.8)",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "schema": 1,
        "m": 1,
        "n": 1,
        "grid": {"sizes": [64], "lengths": [TWO_PI]},
        "scheme": {"stencil_order": 2, "cfl": 0.4, "filter_strength": 0.0},
        "t_end": 0.5,
        "output_cadence": 0.1,
        "initial_data": {
            "X_modes": [{"component": 1, "wave": [1], "amplitude": 0.1, "phase": 0.0}],
            "V_modes": [{"component": 1, "wave": [1], "amplitude": 0.05, "phase": 0.7}],
        },
        "toggles": {"oracle_compare": True, "mcf_compare": False},
        "seed": 7,
        "output_dir": str(tmp_path / "unused"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--output-dir", str(tmp_path / "a"), "simulate", str(path)]) == 0
    assert cli.main(["--output-dir", str(tmp_path / "b"), "simulate", str(path)]) == 0
    same_csv = (tmp_path / "a" / "diagnostics.csv").read_bytes() == (tmp_path / "b" / "diagnostics.csv").read_bytes()

    ra = cli.cmd_verify(shapes=[(2, 2)], samples=20, seed=7).to_json()
    rb = cli.cmd_verify(shapes=[(2, 2)], samples=20, seed=7).to_json()
    ok = same_csv and ra == rb
    _report(8, ok, "fixed seed and thread count give byte-identical CSV and verify report")
