import math

import numpy as np
import pytest

from branesim import mcf, solver
from branesim.mcf import (
    DegenerateMetricError,
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


def sine_graph(N, eps=0.1):
    g = Grid((N,), (TWO_PI,))
    u, _ = fourier_series([Mode(1, (1,), eps, 0.0)], g, 1)
    return g, EmbeddingField.from_graph(g, u)


# ---------------------------------------------------------------------------
# metric


def test_metric_flat_graph():
    g = Grid((32,), (TWO_PI,))
    E = EmbeddingField.from_graph(g, np.zeros((1, 32)))
    gm, detg, ginv = induced_metric(E)
    assert np.allclose(gm[0, 0], 1.0, atol=0)
    assert np.allclose(detg, 1.0, atol=0)


def test_metric_unit_circle():
    E = circle_embedding(128, 1.0)
    gm, detg, _ = induced_metric(E)
    assert np.max(np.abs(gm[0, 0] - 1.0)) < 1e-3  # stencil error on cos/sin
    assert np.min(detg) > 0.9


def test_metric_sine_graph_matches_analytic():
    errs = []
    for N in (64, 128):
        g, E = sine_graph(N)
        gm, _, _ = induced_metric(E)
        x = g.axes()[0]
        errs.append(np.max(np.abs(gm[0, 0] - (1 + 0.01 * np.cos(x) ** 2))))
    assert math.log2(errs[0] / errs[1]) > 1.8


def test_metric_degenerate_raises():
    g = Grid((16,), (TWO_PI,))
    E = EmbeddingField.from_closed_curve(g, np.zeros((2, 16)))
    with pytest.raises(DegenerateMetricError):
        induced_metric(E)


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
    thetas, radii = shrinking_circle_radii(256, 1.0, 0.25)
    exact = np.sqrt(1.0 - 2.0 * thetas)
    assert np.max(np.abs(radii - exact) / exact) < 0.01


def test_shrinking_small_circle_steps_by_arclength_spacing():
    # the explicit step is stable up to a multiple of (radius * du)^2, so at
    # radius 0.2 a step of 0.1 du^2 is unstable and 0.1 (radius * du)^2 is not
    thetas, radii = shrinking_circle_radii(256, 0.2, 0.016)
    exact = np.sqrt(0.2**2 - 2.0 * thetas)
    assert np.max(np.abs(radii - exact) / exact) <= 1e-2


def test_circle_radius_rate():
    E = circle_embedding(256, 2.0)
    dtheta = 1e-4
    E2 = mcf_step(E, dtheta)
    rate = (mean_radius(E2) - mean_radius(E)) / dtheta
    assert rate == pytest.approx(-1.0 / 2.0, rel=1e-3)


def test_graph_sine_amplitude_decays_exponentially():
    g = Grid((128,), (TWO_PI,))
    thetas, amps = graph_amplitude_decay(g, 1, [Mode(1, (1,), 0.1, 0.0)], 0.5)
    assert amps[-1] / amps[0] == pytest.approx(math.exp(-thetas[-1]), rel=2e-3)


# ---------------------------------------------------------------------------
# quadratic-time limit


def test_acceleration_flat_graph_zero():
    g = Grid((64,), (TWO_PI,))
    assert acceleration_limit_test(g, 1, [Mode(1, (1,), 0.0, 0.0)], 1e-2) < 1e-10


def test_acceleration_error_is_second_order_in_dt():
    g = Grid((512,), (TWO_PI,))
    modes = [Mode(1, (1,), 0.1, 0.0)]
    e1 = acceleration_limit_test(g, 1, modes, 4e-3)
    e2 = acceleration_limit_test(g, 1, modes, 2e-3)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_acceleration_multi_mode_graph():
    g = Grid((256,), (TWO_PI,))
    modes = [Mode(1, (1,), 0.08, 0.2), Mode(1, (2,), 0.03, 1.1)]
    e1 = acceleration_limit_test(g, 1, modes, 4e-3)
    e2 = acceleration_limit_test(g, 1, modes, 2e-3)
    assert math.log2(e1 / e2) > 1.6


def test_metric_energy_identity_along_flow():
    # discrete d_theta sqrt(g) + sqrt(g) |dX/dtheta|^2 balances the h-flux terms
    errs = []
    for N in (64, 128):
        g, E = sine_graph(N)
        dtheta = 0.01 * g.spacing[0] ** 2
        vel = mcf_velocity(E)
        _, detg0, _ = induced_metric(E)
        Ep = EmbeddingField(g, E.X + dtheta * vel, E.linear)
        Em = EmbeddingField(g, E.X - dtheta * vel, E.linear)
        _, detgp, _ = induced_metric(Ep)
        _, detgm, _ = induced_metric(Em)
        dsq = (np.sqrt(detgp) - np.sqrt(detgm)) / (2 * dtheta)
        sq = np.sqrt(detg0)
        dX = E.gradients()
        _, _, ginv = induced_metric(E)
        hvec = np.einsum("c...,cj...->j...", vel, dX)
        fluxterm = solver.derivative(sq * ginv[0, 0] * hvec[0], g, 0)
        quad = sq * np.einsum("i...,ij...,j...->...", hvec, ginv, hvec)
        resid = dsq + sq * np.sum(vel * vel, axis=0) - fluxterm - quad
        errs.append(np.max(np.abs(resid)))
    assert math.log2(errs[0] / errs[1]) > 1.8


def test_acceleration_rejects_bad_dt():
    g = Grid((64,), (TWO_PI,))
    with pytest.raises(solver.ConfigError):
        acceleration_limit_test(g, 1, [Mode(1, (1,), 0.1, 0.0)], 0.0)


def test_march_blowup_reports_theta_of_failing_step(monkeypatch):
    real = mcf.mcf_velocity
    calls = []

    def nan_on_third_call(E):
        calls.append(1)
        vel = real(E)
        return vel * math.nan if len(calls) == 3 else vel

    monkeypatch.setattr(mcf, "mcf_velocity", nan_on_third_call)
    dtheta = 0.1 * min(circle_embedding(64, 1.0).grid.spacing) ** 2
    with pytest.raises(solver.BlowUpError) as info:
        shrinking_circle_radii(64, 1.0, 0.25)
    assert info.value.t == 3 * dtheta
    assert f"t={3 * dtheta:.6g}" in str(info.value)


def test_acceleration_blowup_reports_substep_time(monkeypatch):
    # dt is well below the CFL step, so it is split into 2 substeps of dt / 2
    real = solver.rhs_augmented
    monkeypatch.setattr(solver, "rhs_augmented", lambda fld: real(fld) * math.nan)
    g = Grid((64,), (TWO_PI,))
    with pytest.raises(solver.BlowUpError) as info:
        acceleration_limit_test(g, 1, [Mode(1, (1,), 0.1, 0.0)], 1e-3)
    assert info.value.t == 1e-3 / 2
