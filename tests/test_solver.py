import json
import math

import numpy as np
import pytest

from branesim import solver
from branesim.minors import enumerate_layout
from branesim.solver import (
    BlowUpError,
    ConfigError,
    Grid,
    GridField,
    Mode,
    cfl_dt,
    derivative,
    diagnostics,
    initial_fields,
    rhs_augmented,
    rhs_original,
    rk4_step,
    run,
    march,
    plan_steps,
    sigma_residual,
)

TWO_PI = 2 * np.pi


def time_flip(values, layout):
    """d -> -d, v -> -v; composing with t -> -t maps solutions to solutions."""
    out = values.copy()
    out[1 : 1 + layout.m + layout.n] *= -1.0
    return out


def scalar_field(grid, arrays):
    return GridField(grid, enumerate_layout(1, 1), np.stack(arrays))


# ---------------------------------------------------------------------------
# grid and stencils


def test_grid_validation():
    g = Grid((64,), (TWO_PI,))
    assert g.spacing == (TWO_PI / 64,)
    with pytest.raises(ConfigError):
        Grid((4,), (1.0,))
    with pytest.raises(ConfigError):
        Grid((16, 16, 16), (1.0, 1.0, 1.0))
    with pytest.raises(ConfigError):
        Grid((16,), (-1.0,))


def test_derivative_constant_is_zero():
    g = Grid((32,), (TWO_PI,))
    assert np.all(derivative(np.full(32, 3.7), g, 0) == 0.0)


def test_derivative_sine_error_bound():
    g = Grid((64,), (5.0,))
    k = TWO_PI / 5.0
    x = g.axes()[0]
    err = np.max(np.abs(derivative(np.sin(k * x), g, 0) - k * np.cos(k * x)))
    assert err <= k**3 * g.spacing[0] ** 2 / 6 * 1.05


def test_derivative_sawtooth_wraparound():
    # interior slope is exact; only points adjacent to the periodic jump differ
    g = Grid((32,), (1.0,))
    x = g.axes()[0]
    d = derivative(x, g, 0)
    assert np.max(np.abs(d[1:-1] - 1.0)) < 1e-12
    assert d[0] != pytest.approx(1.0)


# ---------------------------------------------------------------------------
# right-hand sides


def test_rhs_augmented_uniform_zero():
    g = Grid((32,), (TWO_PI,))
    fld = scalar_field(g, [np.full(32, 0.9), np.full(32, 0.2), np.full(32, -0.1), np.full(32, 0.4)])
    assert np.all(rhs_augmented(fld) == 0.0)


def test_rhs_augmented_matches_hand_coded_scalar_string():
    g = Grid((64,), (TWO_PI,))
    x = g.axes()[0]
    tau = 1.0 + 0.1 * np.sin(x)
    d = 0.2 * np.cos(2 * x)
    v = 0.1 * np.sin(x + 0.3)
    mu = 0.05 * np.cos(x)
    fld = scalar_field(g, [tau, d, v, mu])

    def D(f):
        return derivative(f, g, 0)

    hand = np.stack([
        -v * D(tau) + tau * D(v),
        -v * D(d) - tau * D(mu),
        -v * D(v) + tau * D(tau),
        -v * D(mu) - tau * D(d),
    ])
    assert np.max(np.abs(rhs_augmented(fld) - hand)) == 0.0


def test_rhs_augmented_translation_equivariant():
    g = Grid((48,), (TWO_PI,))
    rng = np.random.default_rng(0)
    fld = scalar_field(g, list(rng.uniform(-0.5, 0.5, (4, 48))))
    base = rhs_augmented(fld)
    shifted = GridField(g, fld.layout, np.roll(fld.values, 7, axis=1))
    assert np.array_equal(rhs_augmented(shifted), np.roll(base, 7, axis=1))


def test_rhs_original_static_cases():
    g = Grid((32,), (TWO_PI,))
    dF, dD = rhs_original(np.zeros((1, 1, 32)), np.zeros((1, 32)), g)
    assert np.all(dF == 0.0) and np.all(dD == 0.0)
    # spatially constant data is steady as well
    dF, dD = rhs_original(np.full((1, 1, 32), 0.3), np.full((1, 32), -0.2), g)
    assert np.max(np.abs(dF)) == 0.0 and np.max(np.abs(dD)) == 0.0


def test_rhs_original_scalar_string_form():
    # reduces to d_t F = -d_x((D + F P)/h), d_t D = -d_x((D P + F)/h)
    g = Grid((64,), (TWO_PI,))
    x = g.axes()[0]
    F = 0.2 * np.cos(x)[None, None]
    D = 0.1 * np.sin(2 * x)[None]
    P = F[0, 0] * D[0]
    h = np.sqrt(D[0] ** 2 + P**2 + 1 + F[0, 0] ** 2)
    dF, dD = rhs_original(F, D, g)
    wantF = -derivative((D[0] + F[0, 0] * P) / h, g, 0)
    wantD = -derivative((D[0] * P + F[0, 0]) / h, g, 0)
    assert np.max(np.abs(dF[0, 0] - wantF)) < 1e-15
    assert np.max(np.abs(dD[0] - wantD)) < 1e-15


# ---------------------------------------------------------------------------
# time stepping


def test_rk4_identity_for_zero_rhs():
    y = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(rk4_step(y, 0.1, lambda u: 0.0 * u), y)
    with pytest.raises(ConfigError):
        rk4_step(y, 0.0, lambda u: 0.0 * u)


def test_rk4_linear_taylor_error():
    dt = 0.01
    y = np.array([1.0])
    got = rk4_step(y, dt, lambda u: -u)[0]
    assert abs(got - math.exp(-dt)) <= 1.1 * dt**5 / 120


def test_rk4_is_linear_for_linear_rhs():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = lambda u: A @ u
    y1, y2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    lhs = rk4_step(2.0 * y1 + 3.0 * y2, 0.05, f)
    rhs = 2.0 * rk4_step(y1, 0.05, f) + 3.0 * rk4_step(y2, 0.05, f)
    assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_march_steps_evenly_and_ends_on_t_end():
    seen = []
    out = march(0.0, 1.0, 0.3, lambda y, dt: y + dt, after=lambda k, t, y: seen.append((k, t, y)))
    # after sees the start, then each of the ceil(1 / 0.3) = 4 equal steps
    assert seen == [(0, 0.0, 0.0), (1, 0.25, 0.25), (2, 0.5, 0.5), (3, 0.75, 0.75), (4, 1.0, 1.0)]
    assert out == 1.0
    # min_steps wins over a bound that allows fewer steps, also an infinite one
    for dt_max in (0.3, math.inf):
        seen.clear()
        march(0.0, 1.0, dt_max, lambda y, dt: y + dt, min_steps=5, after=lambda k, t, y: seen.append(t))
        assert len(seen) == 6 and seen[-1] == 1.0
    # the last time is t_end itself, where k * dt rounds away from it
    t_end = 0.9
    steps, dt = plan_steps(t_end, 0.3)
    assert steps * dt != t_end
    seen.clear()
    march(0.0, t_end, 0.3, lambda y, dt: y, after=lambda k, t, y: seen.append(t))
    assert seen[:-1] == [k * dt for k in range(steps)] and seen[-1] == t_end


@pytest.mark.parametrize(
    "t_end, dt_max",
    # a bound that underflowed to 0, more than MAX_STEPS steps, and end times that are not positive and finite
    [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, 1e-7), (1e300, 1.0), (0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0)],
)
def test_march_guard_raises_before_the_first_step(t_end, dt_max):
    def step(y, dt):
        raise AssertionError("stepped")

    with pytest.raises(ConfigError):
        march(0.0, t_end, dt_max, step)


def test_march_reraises_blowup_with_the_time_of_the_failing_step():
    def step(k, dt):
        if k == 2:
            raise BlowUpError(math.nan)
        return k + 1

    with pytest.raises(BlowUpError) as info:
        march(0, 1.0, 0.3, step)
    assert info.value.t == 0.75


def test_rk4_blowup_detected():
    y = np.array([1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError):
            rk4_step(y, 1.0, lambda u: u * u)


# ---------------------------------------------------------------------------
# CFL


def test_cfl_flat_and_static():
    g = Grid((64,), (TWO_PI,))
    flat = scalar_field(g, [np.ones(64), np.zeros(64), np.zeros(64), np.zeros(64)])
    assert cfl_dt(flat, 0.5) == pytest.approx(0.5 * g.spacing[0], rel=1e-12)
    zero = scalar_field(g, [np.zeros(64)] * 4)
    assert cfl_dt(zero, 0.3) == pytest.approx(0.3 * g.spacing[0], abs=0)
    with pytest.raises(ConfigError):
        cfl_dt(flat, 0.0)


def test_cfl_speed_point_seven():
    g = Grid((64,), (TWO_PI,))
    fld = scalar_field(g, [np.full(64, 0.5), np.zeros(64), np.full(64, 0.2), np.zeros(64)])
    assert 0.4 * g.spacing[0] / cfl_dt(fld, 0.4) == pytest.approx(0.7, rel=1e-12)


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2)])
def test_max_wave_speed_matches_eigvalsh(m, n):
    # closed form |v_j| + sigma_j against the eigensolve of every A_j(W),
    # on the constraint manifold (lifted graph data) and off it
    from branesim import flux
    from branesim.state import GraphData, lift, to_primitive

    rng = np.random.default_rng(10 * m + n)
    g = Grid((8,) * n, (TWO_PI,) * n)
    lay = enumerate_layout(m, n)
    for _ in range(5):
        F = rng.normal(size=(m, n, *g.sizes)) * 10.0 ** rng.uniform(-2, 2)
        D = rng.normal(size=(m, *g.sizes)) * 10.0 ** rng.uniform(-2, 2)
        on = to_primitive(lift(GraphData(F, D), lay)).as_vector()
        off = rng.normal(size=(lay.state_dim, *g.sizes)) * 10.0 ** rng.uniform(-2, 3, size=(lay.state_dim, *g.sizes))
        for vals in (on, off):
            fld = GridField(g, lay, vals)
            W = fld.state_view()
            want = max(float(np.max(np.abs(np.linalg.eigvalsh(flux.assemble_A(j, W))))) for j in range(1, n + 1))
            assert solver.max_wave_speed(fld) == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# sigma


def test_sigma_empty_for_n1():
    g = Grid((32,), (TWO_PI,))
    fld = scalar_field(g, [np.ones(32), np.zeros(32), np.zeros(32), np.zeros(32)])
    assert sigma_residual(fld) == {}


def test_sigma_constant_field_zero_and_lifted_second_order():
    # a (1, 2) mode makes the two stencil truncations differ, so sigma shows
    # the pure O(dx^2) discretization residual instead of cancelling
    X = [Mode(1, (1, 0), 0.1, 0.0), Mode(1, (1, 2), 0.05, 0.9)]
    errs = []
    for N in (32, 64):
        g = Grid((N, N), (TWO_PI, TWO_PI))
        fld, _, _ = initial_fields(g, 1, X, [])
        sig = sigma_residual(fld)
        assert len(sig) == 1
        errs.append(max(float(np.max(np.abs(v))) for v in sig.values()))
    assert math.log2(errs[0] / errs[1]) > 1.8
    g = Grid((16, 16), (TWO_PI, TWO_PI))
    lay = enumerate_layout(1, 2)
    const = GridField(g, lay, np.tile(np.array([1.0, 0.1, 0.0, 0.0, 0.2, 0.3])[:, None, None], (1, 16, 16)))
    assert all(np.max(np.abs(v)) == 0.0 for v in sigma_residual(const).values())


# ---------------------------------------------------------------------------
# initial data


def test_initial_data_is_on_manifold():
    from branesim.state import constraint_residuals

    g = Grid((64,), (TWO_PI,))
    fld, (F0, D0), u0 = initial_fields(g, 1, [Mode(1, (1,), 0.1, 0.0)], [Mode(1, (1,), 0.05, 0.7)])
    res = constraint_residuals(fld.state_view())
    assert max(res.lam_linf(), res.omega_linf(), res.phi_linf(), res.psi_linf()) < 1e-14
    assert np.max(np.abs(sigma_residual(fld).get((), 0.0))) == 0.0 if g.n == 1 else True
    assert u0.shape == (1, 64)


def test_timelike_guard():
    g = Grid((32,), (TWO_PI,))
    with pytest.raises(solver.TimelikeError):
        initial_fields(g, 1, [], [Mode(1, (1,), 1.2, 0.0)])


# ---------------------------------------------------------------------------
# runs


def test_run_flat_diagnostics_constant():
    g = Grid((32,), (TWO_PI,))
    fld, ora, _ = initial_fields(g, 1, [], [])
    res = run(fld, t_end=0.5, cfl=0.4, output_cadence=0.1, oracle=ora)
    for row in res.rows:
        assert row.total_energy == pytest.approx(TWO_PI, rel=1e-14)
        assert row.entropy_residual_L2 <= 1e-12
        assert row.lambda_Linf == 0.0 and row.omega_Linf == 0.0
        assert row.oracle_F_err_Linf == 0.0 and row.oracle_D_err_Linf == 0.0


def test_run_energy_conservation_and_constraint_order():
    X = [Mode(1, (1,), 0.1, 0.0)]
    V = [Mode(1, (1,), 0.05, 0.7)]
    finals = {}
    for N in (64, 128):
        g = Grid((N,), (TWO_PI,))
        fld, _, _ = initial_fields(g, 1, X, V)
        res = run(fld, t_end=1.0, cfl=0.4, output_cadence=0.25)
        E = np.array([r.total_energy for r in res.rows])
        assert np.max(np.abs(E - E[0])) / E[0] <= 1e-8
        finals[N] = res.rows[-1]
    assert math.log2(finals[64].lambda_Linf / finals[128].lambda_Linf) > 1.8
    assert math.log2(finals[64].omega_Linf / finals[128].omega_Linf) > 1.8


def test_run_time_reversal_returns_to_initial():
    g = Grid((64,), (TWO_PI,))
    X = [Mode(1, (1,), 0.1, 0.0)]
    V = [Mode(1, (1,), 0.05, 0.7)]
    fld, _, _ = initial_fields(g, 1, X, V)
    W0 = fld.values.copy()
    fwd = run(fld, t_end=0.5, cfl=0.4)
    flipped = GridField(g, fld.layout, time_flip(fwd.field.values, fld.layout))
    back = time_flip(run(flipped, t_end=0.5, cfl=0.4).field.values, fld.layout)
    return_err = np.max(np.abs(back - W0))

    # forward error estimated against a doubled grid restricted to shared points
    g2 = Grid((128,), (TWO_PI,))
    fld2, _, _ = initial_fields(g2, 1, X, V)
    ref = run(fld2, t_end=0.5, cfl=0.4)
    fwd_err = np.max(np.abs(fwd.field.values - ref.field.values[:, ::2]))
    assert return_err <= 2.0 * fwd_err


def test_run_blowup_carries_partial_rows():
    # v v' overflows inside the first right-hand side; the error must carry
    # the rows gathered so far.  A speed of 1e155 bounds the step near 5e-157,
    # so t_end stays small enough for the step count to pass the MAX_STEPS guard.
    g = Grid((32,), (TWO_PI,))
    lay = enumerate_layout(1, 1)
    x = g.axes()[0]
    vals = np.stack([np.ones(32), np.zeros(32), 1e155 * (1.0 + 0.5 * np.sin(x)), np.zeros(32)])
    fld = GridField(g, lay, vals)
    t_end = 1e-153
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as info:
            run(fld, t_end=t_end, cfl=0.4, output_cadence=0.1)
    assert len(info.value.rows) >= 1
    # the first step fails, so the time is that of step 1
    assert info.value.t == t_end / math.ceil(t_end / cfl_dt(fld, 0.4))


def test_oracle_equivalence_small_run():
    g = Grid((128,), (TWO_PI,))
    fld, ora, _ = initial_fields(g, 1, [Mode(1, (1,), 0.1, 0.0)], [Mode(1, (1,), 0.05, 0.7)])
    res = run(fld, t_end=0.5, cfl=0.4, oracle=ora)
    assert res.rows[-1].oracle_F_err_Linf < 1e-5
    assert res.rows[-1].oracle_D_err_Linf < 1e-5


def test_csv_rows_format():
    g = Grid((32,), (TWO_PI,))
    fld, _, _ = initial_fields(g, 1, [], [])
    res = run(fld, t_end=0.1, cfl=0.4)
    text = solver.rows_to_csv(res.rows)
    lines = text.strip().split("\n")
    assert lines[0] == solver.CSV_HEADER
    # optional oracle columns stay empty when the oracle is off
    assert lines[1].endswith(",,")


def reference_snapshot_json(snap):
    # nested lists through json's pure-Python indenting encoder: the format the files must keep
    return json.dumps({**snap, "values": snap["values"].tolist()}, indent=1, sort_keys=True)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("sizes", [(12,), (9, 10)])
def test_snapshot_json_matches_reference(m, sizes):
    g = Grid(sizes, (TWO_PI,) * len(sizes))
    wave = (1,) * len(sizes)
    x = [Mode(a, wave, 0.1 / a, 0.3 * a) for a in range(1, m + 1)]
    fld, _, _ = initial_fields(g, m, x, [Mode(1, wave, 0.05, 0.7)])
    snap = solver._snapshot(fld, 0.125)
    assert solver.snapshot_to_json(snap) == reference_snapshot_json(snap)


def test_snapshot_json_special_floats_match_reference():
    g = Grid((8, 8), (TWO_PI, TWO_PI))
    lay = enumerate_layout(2, 2)
    vals = np.linspace(-3.0, 3.0, lay.state_dim * 64).reshape(lay.state_dim, 8, 8)
    special = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf, 0.1, 1 / 3, -1e-300]
    # across row ends, where the separators change
    vals[0].flat[: len(special)] = special
    vals[-1].flat[-len(special) :] = special
    snap = solver._snapshot(GridField(g, lay, vals), 0.0)
    text = solver.snapshot_to_json(snap)
    assert text == reference_snapshot_json(snap)
    assert "-0.0,\n" in text and "5e-324" in text and "1e+16" in text and "NaN" in text and "-Infinity" in text
