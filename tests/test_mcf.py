import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from branesim import cli, mcf, solver
from branesim.mcf import (
    EmbeddingField,
    acceleration_limit_test,
    circle_embedding,
    graph_amplitude_decay,
    induced_metric,
    mcf_step,
    mcf_velocity,
    mean_radius,
    shrinking_circle_radii,
    tangency_residual,
)
from branesim.solver import Grid, Mode, fourier_series

TWO_PI = 2 * np.pi
SRC = str(Path(__file__).resolve().parent.parent / "src")


def sine_graph(N, eps=0.1):
    g = Grid((N,), (TWO_PI,))
    return g, graph(g, 1, [Mode(1, (1,), eps, 0.0)])


def graph(g, m, modes):
    return EmbeddingField.from_graph(g, fourier_series(modes, g, m)[0])


def accel_errors(g, modes, dts):
    """acceleration_limit_test on the velocity-free data of one height built from ``modes``, as mcf-compare builds it."""
    return acceleration_limit_test(solver.initial_fields(g, 1, modes, []), dts, 0.4)


# ---------------------------------------------------------------------------
# metric


def test_metric_flat_graph():
    g = Grid((32,), (TWO_PI,))
    E = EmbeddingField.from_graph(g, np.zeros((1, 32)))
    gm, detg, ginv = induced_metric(E.gradients())
    assert np.allclose(gm[0, 0], 1.0, atol=0)
    assert np.allclose(detg, 1.0, atol=0)


def test_metric_unit_circle():
    E = circle_embedding(128, 1.0)
    gm, detg, _ = induced_metric(E.gradients())
    assert np.max(np.abs(gm[0, 0] - 1.0)) < 1e-3  # stencil error on cos/sin
    assert np.min(detg) > 0.9


def test_metric_sine_graph_matches_analytic():
    errs = []
    for N in (64, 128):
        g, E = sine_graph(N)
        gm, _, _ = induced_metric(E.gradients())
        x = g.axes()[0]
        errs.append(np.max(np.abs(gm[0, 0] - (1 + 0.01 * np.cos(x) ** 2))))
    assert math.log2(errs[0] / errs[1]) > 1.8


def test_metric_degenerate_raises():
    g = Grid((16,), (TWO_PI,))
    E = EmbeddingField.from_closed_curve(g, np.zeros((2, 16)))
    with pytest.raises(solver.BlowUpError):
        induced_metric(E.gradients())


def test_metric_guard_names_the_grid_index_of_its_worst_det_g(monkeypatch):
    # a curve that stalls at one point: det g = |dX|^2 is 0 there and positive elsewhere
    dX = circle_embedding(16, 1.0).gradients()
    dX[:, :, 9] = 0.0
    with pytest.raises(solver.BlowUpError) as info:
        induced_metric(dX)
    assert info.value.reason == "min det g = 0 at grid index [9]"
    # a NaN det g is refused too, at its first NaN, though NaN <= 0 is False
    smooth = graph(Grid((8, 8), (TWO_PI, TWO_PI)), 1, [Mode(1, (1, 1), 0.1, 0.0)]).gradients()
    dX = smooth.copy()
    dX[2, 1, 3, 5] = dX[2, 0, 6, 1] = math.nan
    with pytest.raises(solver.BlowUpError) as info:
        induced_metric(dX)
    assert info.value.reason == "min det g = nan at grid index [3, 5]"
    # a negative det g, planted, is named at its smallest value
    real = mcf._det

    def planted(rows):
        det = real(rows)
        det[2, 4], det[7, 0] = -1e-3, -2.5
        return det

    monkeypatch.setattr(mcf, "_det", planted)
    with pytest.raises(solver.BlowUpError) as info:
        induced_metric(smooth)
    assert info.value.reason == "min det g = -2.5 at grid index [7, 0]"


@pytest.mark.parametrize("n", [1, 2])
def test_metric_inverse_from_the_adjugate_is_symmetric_and_inverts_g(n):
    rng = np.random.default_rng(n)
    dX = rng.uniform(-2.0, 2.0, (n + 1, n, 64))
    dX[:n, :n] += 3.0 * np.eye(n)[..., None]  # keeps det g well away from 0
    g, detg, ginv = induced_metric(dX)
    assert ginv.shape == g.shape == (n, n, 64)
    assert np.array_equal(ginv, ginv.swapaxes(0, 1))
    assert np.array_equal(detg, g[0, 0] if n == 1 else g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    eye = np.einsum("ij...,jk...->ik...", g, ginv)
    assert np.max(np.abs(eye - np.eye(n)[..., None])) < 1e-14


# ---------------------------------------------------------------------------
# velocity


def test_velocity_flat_graph_zero():
    g = Grid((32,), (TWO_PI,))
    E = EmbeddingField.from_graph(g, np.zeros((2, 32)))
    assert np.max(np.abs(mcf_velocity(E))) == 0.0


def test_velocity_unit_circle_is_inward_radial():
    E = circle_embedding(256, 1.0)
    vel = mcf_velocity(E)
    assert np.max(np.abs(vel + E.X)) < 1e-10


def test_velocity_linearizes_to_heat_flow():
    # small graphs: velocity ~ componentwise (nested-stencil) Laplacian + O(eps^2)
    g = Grid((128,), (TWO_PI,))
    for eps in (0.05, 0.025):
        u, _ = fourier_series([Mode(1, (1,), eps, 0.0)], g, 1)
        E = EmbeddingField.from_graph(g, u)
        vel = mcf_velocity(E)
        lap = solver.derivative(solver.derivative(u[0], g, 0), g, 0)
        assert np.max(np.abs(vel[1] - lap)) < 4.0 * eps**2


def test_tangency_residual_flat_zero_and_second_order():
    g = Grid((32,), (TWO_PI,))
    assert tangency_residual(EmbeddingField.from_graph(g, np.zeros((1, 32)))) == 0.0
    errs = []
    for N in (128, 256):
        _, E = sine_graph(N)
        errs.append(tangency_residual(E))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_tangency_residual_circle_tiny():
    # rotational symmetry makes the discrete velocity exactly radial
    assert tangency_residual(circle_embedding(256, 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# stepping


def test_step_flat_unchanged():
    g = Grid((32,), (TWO_PI,))
    E = EmbeddingField.from_graph(g, np.zeros((1, 32)))
    E2 = mcf_step(E, 1e-3)
    assert np.array_equal(E2.X, E.X)


def test_shrinking_circle_matches_exact_radius():
    thetas, radii = shrinking_circle_radii(256, 1.0, 0.25, 0.1)
    exact = np.sqrt(1.0 - 2.0 * thetas)
    assert np.max(np.abs(radii - exact) / exact) < 0.01


def test_shrinking_small_circle_steps_by_arclength_spacing():
    # the explicit step is stable up to a multiple of (radius * du)^2, so at
    # radius 0.2 a step of 0.1 du^2 is unstable and 0.1 (radius * du)^2 is not
    thetas, radii = shrinking_circle_radii(256, 0.2, 0.016, 0.1)
    exact = np.sqrt(0.2**2 - 2.0 * thetas)
    assert np.max(np.abs(radii - exact) / exact) <= 1e-2


def test_circle_radius_rate():
    E = circle_embedding(256, 2.0)
    dtheta = 1e-4
    E2 = mcf_step(E, dtheta)
    rate = (mean_radius(E2) - mean_radius(E)) / dtheta
    assert rate == pytest.approx(-1.0 / 2.0, rel=1e-3)


def test_graph_sine_amplitude_decays_exponentially():
    thetas, amps = graph_amplitude_decay(sine_graph(128)[1], 0.5, 0.1)
    assert amps[-1] / amps[0] == pytest.approx(math.exp(-thetas[-1]), rel=2e-3)


# ---------------------------------------------------------------------------
# quadratic-time limit


def test_acceleration_flat_graph_zero():
    g = Grid((64,), (TWO_PI,))
    assert accel_errors(g, [Mode(1, (1,), 0.0, 0.0)], [1e-2])[0] < 1e-10


def test_acceleration_error_is_second_order_in_dt():
    g = Grid((512,), (TWO_PI,))
    modes = [Mode(1, (1,), 0.1, 0.0)]
    e1, e2 = accel_errors(g, modes, [4e-3, 2e-3])
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_acceleration_multi_mode_graph():
    g = Grid((256,), (TWO_PI,))
    modes = [Mode(1, (1,), 0.08, 0.2), Mode(1, (2,), 0.03, 1.1)]
    e1, e2 = accel_errors(g, modes, [4e-3, 2e-3])
    assert math.log2(e1 / e2) > 1.6


def test_metric_energy_identity_along_flow():
    # discrete d_theta sqrt(g) + sqrt(g) |dX/dtheta|^2 balances the h-flux terms
    errs = []
    for N in (64, 128):
        g, E = sine_graph(N)
        dtheta = 0.01 * g.spacing[0] ** 2
        vel = mcf_velocity(E)
        _, detg0, _ = induced_metric(E.gradients())
        Ep = EmbeddingField(g, E.X + dtheta * vel, E.linear)
        Em = EmbeddingField(g, E.X - dtheta * vel, E.linear)
        _, detgp, _ = induced_metric(Ep.gradients())
        _, detgm, _ = induced_metric(Em.gradients())
        dsq = (np.sqrt(detgp) - np.sqrt(detgm)) / (2 * dtheta)
        sq = np.sqrt(detg0)
        dX = E.gradients()
        _, _, ginv = induced_metric(dX)
        hvec = np.einsum("c...,cj...->j...", vel, dX)
        fluxterm = solver.derivative(sq * ginv[0, 0] * hvec[0], g, 0)
        quad = sq * np.einsum("i...,ij...,j...->...", hvec, ginv, hvec)
        resid = dsq + sq * np.sum(vel * vel, axis=0) - fluxterm - quad
        errs.append(np.max(np.abs(resid)))
    assert math.log2(errs[0] / errs[1]) > 1.8


def test_acceleration_rejects_bad_dt():
    g = Grid((64,), (TWO_PI,))
    with pytest.raises(solver.ConfigError):
        accel_errors(g, [Mode(1, (1,), 0.1, 0.0)], [0.0])


def test_acceleration_rejects_initial_velocity():
    g = Grid((64,), (TWO_PI,))
    data = solver.initial_fields(g, 1, [Mode(1, (1,), 0.1, 0.0)], [Mode(1, (1,), 0.05, 0.0)])
    with pytest.raises(solver.ConfigError, match="velocity-free"):
        acceleration_limit_test(data, [1e-3], 0.4)


def test_march_blowup_reports_theta_of_failing_step(monkeypatch):
    # each step evaluates the velocity twice, V(X) and V(Y), so the 5th
    # call is the first stage of step 3; the march takes equal steps that
    # end on theta_end
    real = mcf._divergence
    calls = []

    def nan_on_fifth_call(*args):
        calls.append(1)
        vel = real(*args)
        return vel * math.nan if len(calls) == 5 else vel

    monkeypatch.setattr(mcf, "_divergence", nan_on_fifth_call)
    du = circle_embedding(64, 1.0).grid.spacing[0]
    dtheta = 0.25 / math.ceil(0.25 / (0.1 * du))
    with pytest.raises(solver.BlowUpError) as info:
        shrinking_circle_radii(64, 1.0, 0.25, 0.1)
    assert info.value.t == 3 * dtheta
    assert f"t={3 * dtheta:.6g}" in str(info.value)


def test_acceleration_blowup_reports_substep_time(monkeypatch):
    # dt is well below the CFL step, so it is split into 2 substeps of dt / 2
    real = solver.rhs_augmented
    monkeypatch.setattr(solver, "rhs_augmented", lambda fld, out: np.multiply(real(fld, out), math.nan, out=out))
    g = Grid((64,), (TWO_PI,))
    with pytest.raises(solver.BlowUpError) as info:
        accel_errors(g, [Mode(1, (1,), 0.1, 0.0)], [1e-3])
    assert info.value.t == 1e-3 / 2
    assert info.value.reason == "non-finite state in RK stage 1: tau at grid index [0]"


# ---------------------------------------------------------------------------
# the IMEX step


def _flow(E, theta, steps):
    for _ in range(steps):
        E = mcf_step(E, theta / steps)
    return E.X


@pytest.mark.parametrize("E", [sine_graph(64, 0.3)[1], circle_embedding(64, 1.0)], ids=["graph", "circle"])
def test_step_is_second_order_in_dtheta(E):
    # the spatial discretisation is shared, so the error against a fine-step
    # run is the time-stepping error alone
    ref = _flow(E, 0.2, 1280)
    e20 = np.max(np.abs(_flow(E, 0.2, 20) - ref))
    e40 = np.max(np.abs(_flow(E, 0.2, 40) - ref))
    assert e20 / e40 == pytest.approx(4.0, rel=0.15)


def test_flows_end_on_theta_end():
    for theta_end in (0.1, 0.25, 0.3, 1e-7):
        for thetas, _ in (
            shrinking_circle_radii(64, 1.0, theta_end, 0.1),
            graph_amplitude_decay(sine_graph(64)[1], theta_end, 0.1),
        ):
            assert thetas[-1] == theta_end
            assert np.all(np.diff(thetas) > 0)
            assert np.allclose(np.diff(thetas), thetas[1])


def test_circle_error_is_scale_invariant():
    # X -> s X with theta -> s^2 theta maps one flow onto the other step for step
    errs = []
    for radius, theta_end in ((0.2, 0.016), (1.0, 0.4)):
        thetas, radii = shrinking_circle_radii(256, radius, theta_end, 0.1)
        exact = np.sqrt(radius**2 - 2.0 * thetas)
        errs.append(float(np.max(np.abs(radii - exact) / exact)))
    assert errs[0] == pytest.approx(errs[1], rel=1e-9)
    assert max(errs) <= 1.2e-4


def test_graph_n2_agrees_with_explicit_steps():
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    modes = [Mode(1, (1, 0), 0.1, 0.0), Mode(1, (0, 1), 0.1, 0.5), Mode(1, (1, 1), 0.05, 1.0)]
    E = graph(g, 1, modes)
    theta = 0.1
    thetas, amps = graph_amplitude_decay(E, theta, 0.1)
    imex = _flow(E, theta, len(thetas) - 1)
    steps = math.ceil(theta / (0.01 * min(g.spacing) ** 2))
    X = E
    for _ in range(steps):
        X = EmbeddingField(g, X.X + theta / steps * mcf_velocity(X), X.linear)
    assert np.max(np.abs(imex - X.X)) < 2e-5
    assert amps[-1] == float(np.max(np.abs(imex[2:])))


def test_large_step_factor_stays_finite_and_bounded():
    # two steps of 0.15 leave 0.2 to the collapse at theta = 0.5
    thetas, radii = shrinking_circle_radii(256, 1.0, 0.3, 10.0)
    assert len(thetas) == 3 and np.all(np.isfinite(radii)) and np.all(np.diff(radii) < 0) and radii[-1] > 0
    # two steps of 0.225 would step past the 0.05 left at theta = 0.45 (radius 0.415 against the exact 0.316)
    with pytest.raises(solver.ConfigError, match="circle's collapse"):
        shrinking_circle_radii(256, 1.0, 0.45, 10.0)
    for g, m, modes in (
        (Grid((512,), (TWO_PI,)), 1, [Mode(1, (1,), 0.1, 0.0), Mode(1, (5,), 0.05, 0.0)]),
        (Grid((32, 32), (TWO_PI, TWO_PI)), 2, [Mode(1, (1, 0), 0.5, 0.0), Mode(2, (3, 2), 0.3, 0.5)]),
    ):
        thetas, amps = graph_amplitude_decay(graph(g, m, modes), 0.5, 10.0)
        assert len(thetas) >= 2 and np.all(np.isfinite(amps)) and np.all(amps[1:] <= amps[0])


def _nan_in_second_inverse(monkeypatch, at):
    """Plants a NaN at index ``at`` of the second inverse transform mcf_step takes: in X+, not in Y."""
    real = mcf._spectral_plan
    calls = []

    def plan(grid):
        symbol, forward, inverse = real(grid)

        def planted(a):
            out = inverse(a)
            calls.append(1)
            if len(calls) == 2:
                out[at] = math.nan
            return out

        return symbol, forward, planted

    monkeypatch.setattr(mcf, "_spectral_plan", plan)


def test_mcf_step_blowup_names_its_component_and_grid_index(monkeypatch):
    _nan_in_second_inverse(monkeypatch, (1, 37))
    with pytest.raises(solver.BlowUpError) as info:
        mcf_step(circle_embedding(64, 1.0), 1e-3)
    assert info.value.reason == "non-finite state in the MCF step: component 1 at grid index [37]"


def test_mcf_compare_blowup_exits_3_naming_where(monkeypatch, tmp_path, capsys):
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs" / "mcf_sine.json").read_text())
    cfg["circle"]["theta_end"] = 0.01
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "mcf.json"
    path.write_text(json.dumps(cfg))
    _nan_in_second_inverse(monkeypatch, (0, 200))
    capsys.readouterr()
    assert cli.main(["mcf-compare", str(path)]) == 3
    # the first circle step fails, so the march reports its theta
    du = circle_embedding(cfg["circle"]["points"], 1.0).grid.spacing[0]
    dtheta = 0.01 / math.ceil(0.01 / (0.1 * du))
    err = capsys.readouterr().err
    assert err == f"error: non-finite state in the MCF step: component 0 at grid index [200] at t={dtheta:.6g}\n"


def reference_mcf_step(E, dtheta):
    """mcf_step as it was written before its per-grid plan, gradients included."""

    def gradients(E):
        out = np.empty((E.ncomp, E.grid.n, *E.grid.sizes))
        for j in range(E.grid.n):
            out[:, j] = solver.derivative(E.X, E.grid, j) + E.linear[:, j].reshape((-1,) + (1,) * E.grid.n)
        return out

    grid = E.grid
    dX = gradients(E)
    metric = induced_metric(dX)
    c = float(np.max(np.einsum("ii...->...", metric[2])))
    lap = 0.0
    for j, (size, dx) in enumerate(zip(grid.sizes, [L / N for L, N in zip(grid.lengths, grid.sizes)])):
        freq = np.fft.rfftfreq(size) if j == grid.n - 1 else np.fft.fftfreq(size)
        lap = np.add.outer(lap, -((np.sin(2 * np.pi * freq) / dx) ** 2))
    stiff = dtheta * c * lap
    solve = 1.0 / (1.0 - 0.5 * stiff)
    axes = tuple(range(1, 1 + grid.n))
    half = np.fft.rfftn(0.5 * dtheta * mcf._divergence(dX, grid, metric), axes=axes) * solve
    Y = EmbeddingField(grid, E.X + np.fft.irfftn(half, grid.sizes, axes=axes), E.linear)
    full = (np.fft.rfftn(dtheta * mcf._divergence(gradients(Y), grid), axes=axes) - stiff * half) * solve
    Xn = E.X + np.fft.irfftn(full, grid.sizes, axes=axes)
    if not np.all(np.isfinite(Xn)):
        raise solver.BlowUpError(float("nan"))
    return EmbeddingField(grid, Xn, E.linear)


def test_mcf_step_matches_the_reference_step_bit_for_bit():
    # the per-grid plan (cached symbol, rfft/irfft on 1-d grids) and the in-place gradients
    # change no bit of a step; odd sizes catch an inverse transform that loses its size
    cases = [
        (circle_embedding(63, 1.3), 2e-3),
        (graph(Grid((45,), (TWO_PI,)), 2, [Mode(1, (1,), 0.2, 0.3), Mode(2, (3,), 0.1, 1.0)]), 5e-3),
        (graph(Grid((15, 21), (TWO_PI, 5.0)), 1, [Mode(1, (1, 0), 0.1, 0.0), Mode(1, (1, 2), 0.05, 0.7)]), 1e-3),
    ]
    for E, dtheta in cases:
        got = want = E
        for _ in range(4):
            got, want = mcf_step(got, dtheta), reference_mcf_step(want, dtheta)
            assert got.X.tobytes() == want.X.tobytes()
        assert not np.array_equal(got.X, E.X)
    # the symbol is shared by every step on one grid, so nothing may write to it
    g = Grid((32,), (TWO_PI,))
    symbol = mcf._spectral_plan(g)[0]
    assert not symbol.flags.writeable
    with pytest.raises(ValueError):
        symbol[1] = 0.0
    # an equal grid shares the plan; another spacing gets its own symbol
    assert mcf._spectral_plan(Grid((32,), (TWO_PI,)))[0] is symbol
    other = mcf._spectral_plan(Grid((32,), (5.0,)))[0]
    assert other.shape == symbol.shape and not np.array_equal(other, symbol)
    # the cached spacing and stencil scale leave a grid's equality, hash and repr as they were
    assert Grid((32,), (TWO_PI,)) == g and Grid((32,), (5.0,)) != g
    assert hash(g) == hash(((32,), (TWO_PI,)))
    assert repr(g) == f"Grid(sizes=(32,), lengths=({TWO_PI!r},))"
    assert [f.name for f in dataclasses.fields(Grid) if f.compare] == ["sizes", "lengths"]
    assert g.spacing == (TWO_PI / 32,) and g.stencil_scale == (1 / (2 * (TWO_PI / 32)),)


def test_import_leaves_numpy_fft_unloaded():
    # numpy.fft is imported lazily; only mcf_step touches it, so importing
    # the package stays as cheap as importing numpy
    code = "import sys, branesim; assert 'numpy.fft' not in sys.modules, 'numpy.fft was imported'"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

