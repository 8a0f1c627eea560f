import json
import math
import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest

from branesim import solver
from branesim.minors import enumerate_layout, xi_prime
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
from branesim.state import to_conservative

TWO_PI = 2 * np.pi


def time_flip(values, layout):
    """d -> -d, v -> -v; composing with t -> -t maps solutions to solutions."""
    out = values.copy()
    out[1 : 1 + layout.m + layout.n] *= -1.0
    return out


def scalar_field(grid, arrays):
    return GridField(grid, enumerate_layout(1, 1), np.stack(arrays))


def sigma_of(fld):
    """sigma_residual of a field, read off its conservative state U = W / tau."""
    return sigma_residual(to_conservative(fld.state_view()), fld.grid)


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
    # a positive finite length whose 1 / (2 dx) overflows, or whose dx underflows to 0
    for length in (1e-310, 5e-324):
        with pytest.raises(ConfigError, match="grid spacing lengths / sizes too small"):
            Grid((8,), (length,))
    # finite spacings whose product, the cell volume, overflows
    with pytest.raises(ConfigError, match=r"grid cell volume prod\(lengths / sizes\) overflows"):
        Grid((8, 8), (1e200, 1e200))
    assert Grid((8, 8), (2.0, 3.0)).cell_volume == 0.25 * 0.375
    assert np.isfinite(derivative(np.zeros(8), Grid((8,), (1e-300,)), 0)).all()


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


def roll_derivative(values, grid, axis, out=None):
    """The two-np.roll stencil that derivative replaced; the reference for its bytes.

    It scales by the reciprocal 1 / (2 dx), as derivative does: a reference that divides
    by 2 dx differs from it in the last bit.
    """
    ax = values.ndim - grid.n + axis
    d = (np.roll(values, -1, ax) - np.roll(values, 1, ax)) * (1 / (2 * grid.spacing[axis]))
    if out is None:
        return d
    out[...] = d
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "shape, sizes",
    [((37,), (37,)), ((11, 13), (11, 13)), ((4, 11, 13), (11, 13)), ((3, 29), (29,)), ((13, 8), (13, 8)), ((2, 8, 11), (8, 11))],
)
def test_derivative_matches_the_two_roll_stencil_bit_for_bit(shape, sizes):
    rng = np.random.default_rng(len(shape) + sum(shape))
    g = Grid(sizes, tuple(rng.uniform(0.5, 9.0, len(sizes))))
    scaled = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    # signed zeros keep their sign; differences of +-1e300 stay finite, those of +-1.7e308 overflow to +-inf
    extreme = rng.choice([0.0, -0.0, 1e300, -1e300, 1.7e308, -1.7e308], size=shape)
    for values in (scaled, extreme):
        # rows padded on both sides: views into it are not contiguous, nor flat when reshaped
        padded = np.full((*shape[:-1], shape[-1] + 3), np.nan)
        padded[..., 1:-2] = values
        for axis in range(g.n):
            with np.errstate(over="ignore"):
                want = roll_derivative(values, g, axis)
                fresh = derivative(values, g, axis)
                # into a caller's buffer, the wrap rows at both ends included
                out = np.full(shape, np.nan)
                into = derivative(values, g, axis, out=out)
                # a non-contiguous input view, and a non-contiguous out view
                from_view = derivative(padded[..., 1:-2], g, axis)
                gaps = np.full(padded.shape, np.nan)
                derivative(values, g, axis, out=gaps[..., 1:-2])
                # a contiguous out inside a larger buffer: nothing around it is written
                buf = np.full(values.size + 4, np.nan)
                derivative(values, g, axis, out=buf[2:-2].reshape(shape))
            assert same_bits(fresh, want) and into is out and same_bits(out, want)
            assert same_bits(from_view, want)
            assert same_bits(gaps[..., 1:-2], want) and np.all(np.isnan(gaps[..., :1])) and np.all(np.isnan(gaps[..., -2:]))
            assert same_bits(buf[2:-2].reshape(shape), want) and np.all(np.isnan(buf[:2])) and np.all(np.isnan(buf[-2:]))


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


def test_rhs_original_takes_xi_and_xi_prime_from_one_gram_side_call(monkeypatch):
    # the oracle calls exactly what verify checks: one xi_prime, whose (xi, Z, xi') share one I + FᵀF
    g = Grid((16, 12), (TWO_PI, 5.0))
    F = np.random.default_rng(4).uniform(-0.3, 0.3, (2, 2, 16, 12))
    D = np.random.default_rng(5).uniform(-0.2, 0.2, (2, 16, 12))
    want = rhs_original(F, D, g)
    calls = []
    real = solver.xi_prime

    def spy(F):
        calls.append(F)
        return real(F)

    def refuse(F):
        raise AssertionError("a second I + FᵀF on the oracle path")

    monkeypatch.setattr(solver, "xi_prime", spy)
    monkeypatch.setattr(solver, "xi", refuse)
    got = rhs_original(F, D, g)
    assert len(calls) == 1 and calls[0] is F
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# time stepping


def test_rk4_identity_for_zero_rhs():
    y = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(rk4_step(y, 0.1, lambda u, out: np.multiply(u, 0.0, out=out)), y)
    with pytest.raises(ConfigError):
        rk4_step(y, 0.0, lambda u, out: np.multiply(u, 0.0, out=out))


def test_rk4_linear_taylor_error():
    dt = 0.01
    y = np.array([1.0])
    got = rk4_step(y, dt, lambda u, out: np.negative(u, out=out))[0]
    assert abs(got - math.exp(-dt)) <= 1.1 * dt**5 / 120


def test_rk4_is_linear_for_linear_rhs():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = lambda u, out: np.matmul(A, u, out=out)
    y1, y2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    lhs = rk4_step(2.0 * y1 + 3.0 * y2, 0.05, f)
    rhs = 2.0 * rk4_step(y1, 0.05, f) + 3.0 * rk4_step(y2, 0.05, f)
    assert np.max(np.abs(lhs - rhs)) < 1e-15


def reference_rk4_step(y, dt, rhs, *args, **kwargs):
    """y + (dt/6)(k1 + 2 k2 + 2 k3 + k4) on fresh arrays: the formula rk4_step replaced."""

    def f(u):
        out = np.empty_like(u)
        rhs(u, out)
        return out

    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_step_matches_the_reference_formula_with_reused_buffers():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5))

    def f(u, out):
        # nonlinear, and reads all of u after writing out, so an aliased buffer would show
        np.matmul(A, np.sin(u) * u, out=out)
        out -= u * u
        return out

    y = rng.normal(size=(5, 7))
    want, got = y, y.copy()
    acc, k, spare = (np.full_like(y, np.nan) for _ in range(3))
    for _ in range(3):
        want = reference_rk4_step(want, 0.07, f)
        before = got.copy()
        new = rk4_step(got, 0.07, f, spare, (acc, k))
        assert new is spare and np.array_equal(got, before)
        got, spare = new, got
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("k_fail", [0, 2, 4])
def test_march_reraises_a_blowup_in_after_with_the_time_of_that_row(k_fail):
    # a guard that trips in a diagnostics row (after) keeps its reason and gets the row's t = k dt
    def after(k, t, y):
        if k == k_fail:
            raise BlowUpError(math.nan, "|h| below 1e-12")

    with pytest.raises(BlowUpError) as info:
        march(0, 1.0, 0.3, lambda y, dt: y + 1, after=after)
    assert info.value.t == k_fail * 0.25
    assert info.value.reason == "|h| below 1e-12"
    assert str(info.value) == f"|h| below 1e-12 at t={info.value.t:.6g}"


def test_rk4_names_an_update_that_overflows_with_every_stage_finite():
    # each stage is 1 + O(1e-292) and each slope 1e308, but k1 + 2 k2 + 2 k3 + k4 overflows
    y = np.ones((2, 8))
    with np.errstate(over="ignore"):
        with pytest.raises(BlowUpError) as info:
            rk4_step(y, 1e-300, lambda u, out: out.fill(1e308), names=["a", "b"])
    assert info.value.reason == "non-finite state in the update: a at grid index [0]"


def test_rk4_blowup_detected():
    y = np.array([1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError):
            rk4_step(y, 1.0, lambda u, out: np.multiply(u, u, out=out))


def _poison(real, stage, index):
    """real, except that from step 2 on, each step's given stage writes NaN at index of its output.

    The output is rhs_augmented's array or rhs_original's dF.  Only evaluations into a
    buffer count.  A diagnostics row evaluates d_t W into the field's acc and the step
    after it takes that as its first stage, so each step still counts four.
    """
    calls = []

    def f(*args):
        out = real(*args)
        # the steps call rhs_augmented(fld, out) and rhs_original(F, D, grid, out)
        if len(args) not in (2, 4):
            return out
        calls.append(1)
        # four evaluations per step, also in the replay that locates a blow-up
        if len(calls) > 4 and (len(calls) - 1) % 4 == stage - 1:
            (out if isinstance(out, np.ndarray) else out[0])[index] = math.nan
        return out

    return f


@pytest.mark.parametrize(
    "target, stage, index, where",
    [
        ("rhs_augmented", 2, (5, 3, 7), "m_[1]_[2] at grid index [3, 7]"),
        ("rhs_augmented", 4, (0, 0, 15), "tau at grid index [0, 15]"),
        ("rhs_augmented", 1, (3, 15, 0), "v_2 at grid index [15, 0]"),
        ("rhs_original", 3, (0, 1, 9, 2), "F_1_2 at grid index [9, 2]"),
    ],
)
def test_blowup_names_its_stage_component_and_grid_point(monkeypatch, target, stage, index, where):
    g = Grid((16, 16), (TWO_PI, TWO_PI))
    fld, ora, _ = initial_fields(g, 1, [Mode(1, (1, 0), 0.1, 0.0)], [Mode(1, (1, 1), 0.05, 0.3)])
    monkeypatch.setattr(solver, target, _poison(getattr(solver, target), stage, index))
    with pytest.raises(BlowUpError) as info:
        run(fld, t_end=0.5, cfl=0.4, oracle=ora)
    assert info.value.reason == f"non-finite state in RK stage {stage}: {where}"
    # at the time of step 2
    assert info.value.t == 0.5 / math.ceil(0.5 / cfl_dt(fld, 0.4)) * 2


def test_blowup_right_after_a_row_replays_every_stage(monkeypatch):
    # a row at every step: step 2 takes its first slope from the row at step 1, while the
    # replay that locates the blow-up evaluates all four stages on fresh buffers
    g = Grid((16, 16), (TWO_PI, TWO_PI))
    fld, ora, _ = initial_fields(g, 1, [Mode(1, (1, 0), 0.1, 0.0)], [Mode(1, (1, 1), 0.05, 0.3)])
    monkeypatch.setattr(solver, "rhs_augmented", _poison(solver.rhs_augmented, 2, (5, 3, 7)))
    rows = []
    with pytest.raises(BlowUpError) as info:
        run(fld, t_end=0.5, cfl=0.4, oracle=ora, output_cadence=1e-9, on_row=rows.append)
    assert info.value.reason == "non-finite state in RK stage 2: m_[1]_[2] at grid index [3, 7]"
    assert len(rows) == 2


def test_run_evaluates_the_slope_of_a_row_once(monkeypatch):
    calls = []
    real = solver.rhs_augmented

    def counted(*args):
        calls.append(1)
        return real(*args)

    g = Grid((64,), (TWO_PI,))
    fld, _, _ = initial_fields(g, 1, [Mode(1, (1,), 0.1, 0.0)], [Mode(1, (2,), 0.05, 0.3)])
    monkeypatch.setattr(solver, "rhs_augmented", counted)
    rows = []
    run(fld, t_end=0.3, cfl=0.4, output_cadence=0.1, on_row=rows.append)
    steps = plan_steps(0.3, cfl_dt(fld, 0.4))[0]
    assert len(rows) == 4 and steps > 4
    # four stages a step and one evaluation a row; each row but the last is the next step's first stage
    assert len(calls) == 4 * steps + 1


def test_run_diagnostics_bytes_match_the_reference_formulas(monkeypatch):
    # the stencil, the term table, the oracle's flux terms and the RK4 sum as they were written before the buffers
    from branesim import flux

    def reference_apply_terms(layout, W_vec, grad_vecs, out):
        for row, coeff, deriv, axis, sign in flux._direct_terms(layout.m, layout.n):
            out[row] -= sign * W_vec[coeff] * grad_vecs[axis - 1][deriv]
        return out

    def reference_rhs_original(F, D, grid, out):
        m, n = F.shape[0], F.shape[1]
        P = np.einsum("ai...,a...->i...", F, D)
        xi_F, _, xp = xi_prime(F)
        h = np.sqrt(np.sum(D * D, axis=0) + np.sum(P * P, axis=0) + xi_F)
        dF, dD = out
        dD.fill(0.0)
        for alpha in range(m):
            # each / h as * (1 / h), the one reciprocal per call that rhs_original forms
            base_h = (D[alpha] + np.einsum("j...,j...->...", F[alpha], P)) * (1 / h)
            for i in range(n):
                dF[alpha, i] = -roll_derivative(base_h, grid, i)
                dD[alpha] -= roll_derivative((D[alpha] * P[i] + xp[alpha][i]) * (1 / h), grid, i)
        return dF, dD

    g = Grid((16, 12), (TWO_PI, 5.0))
    cases = [
        (1, [Mode(1, (1, 0), 0.1, 0.0), Mode(1, (0, 1), 0.1, 0.5)], [Mode(1, (1, 1), 0.05, 0.3)], True),
        (
            3,
            [Mode(1, (1, 0), 0.1, 0.0), Mode(2, (0, 1), 0.1, 0.5), Mode(3, (1, 1), 0.05, 1.0)],
            [Mode(2, (1, 0), 0.05, 0.3)],
            False,
        ),
    ]
    for m, X, V, with_oracle in cases:
        fld, ora, _ = initial_fields(g, m, X, V)
        results = []
        for patch in (False, True):
            with monkeypatch.context() as mp:
                if patch:
                    mp.setattr(solver, "derivative", roll_derivative)
                    mp.setattr(solver, "rk4_step", reference_rk4_step)
                    mp.setattr(flux, "apply_terms", reference_apply_terms)
                    mp.setattr(solver, "rhs_original", reference_rhs_original)
                rows = []
                res = run(fld, t_end=0.3, cfl=0.4, output_cadence=0.1, oracle=ora if with_oracle else None, on_row=rows.append)
            results.append((solver.rows_to_csv(rows), res.values))
        (csv, values), (want_csv, want_values) = results
        assert csv == want_csv and np.array_equal(values, want_values)
        assert (csv.split("\n")[-2].endswith(",,")) != with_oracle


@pytest.mark.parametrize("sizes, m", [((16, 16), 1), ((32,), 2)])
def test_run_writes_its_stencils_and_products_on_cache_lines(monkeypatch, sizes, m):
    # every site of a step that writes a grid row out of place starts on a 64-byte line, where
    # numpy alone promises 16 bytes: the state and the RK4 buffers it rotates with, the first
    # point of each stencil's interior pass and the row it differences (the oracle builds those
    # in place), the term table's out and its product row.  Diagnostics' own stencils allocate
    # their output and are not counted.  Row lengths are whole cache lines, as on the benchmark
    # grids
    from branesim import flux

    offsets = {"rk4": [], "stencil": [], "stencil_in": [], "out": [], "product": []}

    class Spy(np.ndarray):
        """W's rows as seen by apply_terms: each product records where its output starts."""

        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.multiply and out is not None:
                offsets["product"].append(out[0].ctypes.data % 64)
            inputs = tuple(x.view(np.ndarray) if isinstance(x, Spy) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, out=out, **kwargs)

    def spied_derivative(values, grid, axis, out=None):
        if out is not None:
            # the interior pass starts one point in along the axis
            offsets["stencil"].append((out.ctypes.data + out.strides[out.ndim - grid.n + axis]) % 64)
            offsets["stencil_in"].append(values.ctypes.data % 64)
        return real_derivative(values, grid, axis, out)

    def spied_apply_terms(layout, W_vec, grad_vecs, out):
        offsets["out"].append(out.ctypes.data % 64)
        return real_apply_terms(layout, W_vec.view(Spy), grad_vecs, out)

    def spied_rk4_step(y, dt, rhs, out, work, names):
        # the start state is y of the first step and the stage buffer of the second
        offsets["rk4"].extend(a.ctypes.data % 64 for a in (y, out, *work))
        return real_rk4_step(y, dt, rhs, out, work, names)

    real_derivative, real_apply_terms, real_rk4_step = solver.derivative, flux.apply_terms, solver.rk4_step
    monkeypatch.setattr(solver, "derivative", spied_derivative)
    monkeypatch.setattr(flux, "apply_terms", spied_apply_terms)
    monkeypatch.setattr(solver, "rk4_step", spied_rk4_step)
    g = Grid(sizes, (TWO_PI,) * len(sizes))
    X = [Mode(a, (1,) * len(sizes), 0.1, 0.3 * a) for a in range(1, m + 1)]
    fld, ora, _ = initial_fields(g, m, X, [Mode(1, (2,) * len(sizes), 0.05, 0.3)])
    run(fld, t_end=0.2, cfl=0.4, oracle=ora)
    steps = plan_steps(0.2, cfl_dt(fld, 0.4))[0]
    # a term table with its n gradients per stage and per row (the two rows stand in for two first
    # stages), and 2 m n oracle stencils per stage
    n, tables = len(sizes), 4 * steps + 1
    assert steps >= 2 and len(offsets["rk4"]) == 4 * steps
    assert len(offsets["out"]) == tables and len(offsets["product"]) == tables * len(flux._direct_terms(m, n))
    assert len(offsets["stencil"]) == tables * n + 4 * steps * 2 * m * n
    assert {site: set(found) for site, found in offsets.items()} == {site: {0} for site in offsets}


def placed(a, offset):
    """A copy of a that starts offset bytes past a cache line, inside a buffer padded with NaN."""
    buf = np.full(a.size + 16, np.nan)
    start = (-(buf.ctypes.data // 8) % 8) + offset // 8
    view = buf[start : start + a.size].reshape(a.shape)
    view[...] = a
    assert view.ctypes.data % 64 == offset
    return view


def test_no_byte_of_the_stencil_rhs_or_rk4_depends_on_where_its_arrays_start():
    # inputs and outputs at 0, 8, 16 and 48 bytes past a cache line give the same bytes,
    # signed zeros included: alignment picks a ufunc's loop, never its arithmetic
    rng = np.random.default_rng(28)

    def with_signed_zeros(a):
        return np.where(rng.random(a.shape) < 0.2, rng.choice([0.0, -0.0], a.shape), a)

    g2, g1 = Grid((16, 16), (TWO_PI, 5.0)), Grid((24,), (3.0,))
    lay = enumerate_layout(2, 2)
    values = with_signed_zeros(rng.uniform(-0.4, 0.4, (lay.state_dim, 16, 16)))
    values[0] = rng.uniform(0.6, 1.2, (16, 16))
    F = with_signed_zeros(rng.uniform(-0.3, 0.3, (2, 2, 16, 16)))
    D = with_signed_zeros(rng.uniform(-0.2, 0.2, (2, 16, 16)))
    row1 = with_signed_zeros(rng.normal(size=(3, 24)))

    def outputs(offset):
        def at(a):
            return placed(a, offset)

        def nan_like(a):
            return at(np.full_like(a, np.nan))

        def rhs(y, out):
            return rhs_augmented(GridField(g2, lay, y), out)

        grids = ((values, g2), (row1, g1))
        got = [derivative(at(v), g, axis, out=nan_like(v)) for v, g in grids for axis in range(g.n)]
        got.append(rhs(at(values), nan_like(values)))
        got.extend(rhs_original(at(F), at(D), g2, (nan_like(F), nan_like(D))))
        work = (nan_like(values), nan_like(values))
        got.append(rk4_step(at(values), 0.01, rhs, out=nan_like(values), work=work))
        # a signed zero that the output keeps shows in its bytes
        assert any(np.any((x == 0) & np.signbit(x)) for x in got)
        return [x.tobytes() for x in got]

    want = outputs(0)
    for offset in (8, 16, 48):
        assert outputs(offset) == want


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


def _nan_velocity_field():
    """A lifted m = 1 string on 16 points whose v_1 is NaN at one point."""
    g = Grid((16,), (TWO_PI,))
    fld, _, _ = initial_fields(g, 1, [Mode(1, (1,), 0.1, 0.0)], [Mode(1, (1,), 0.05, 0.7)])
    fld.values[2, 5] = math.nan
    return fld


def test_max_wave_speed_of_a_nan_velocity_is_nan():
    # not the 0 of a static field, so cfl_dt does not fall back to cfl * dx; it refuses the field by name
    fld = _nan_velocity_field()
    assert math.isnan(solver.max_wave_speed(fld))
    for refuse in (lambda: cfl_dt(fld, 0.4), lambda: run(fld, t_end=0.1, cfl=0.4)):
        with pytest.raises(BlowUpError) as info:
            refuse()
        assert info.value.reason == "non-finite state in the CFL bound: v_1 at grid index [5]"


def test_a_diagnostics_row_of_a_nan_velocity_reads_nan():
    row = diagnostics(_nan_velocity_field(), 0.0)
    assert math.isnan(row.omega_Linf) and math.isnan(row.lambda_Linf)
    assert row.phi_Linf < 1e-14  # phi does not read v, so it stays finite
    assert solver.rows_to_csv([row]).splitlines()[1].split(",")[3:5] == ["nan", "nan"]


def test_cfl_speed_point_seven():
    g = Grid((64,), (TWO_PI,))
    fld = scalar_field(g, [np.full(64, 0.5), np.zeros(64), np.full(64, 0.2), np.zeros(64)])
    assert 0.4 * g.spacing[0] / cfl_dt(fld, 0.4) == pytest.approx(0.7, rel=1e-12)


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2)])
def test_max_wave_speed_matches_eigvalsh(m, n):
    # closed form |v_j| + sigma_j against the eigensolve of every A_j(W),
    # on the constraint manifold (lifted graph data) and off it
    from branesim import flux
    from branesim.state import lift, to_primitive

    rng = np.random.default_rng(10 * m + n)
    g = Grid((8,) * n, (TWO_PI,) * n)
    lay = enumerate_layout(m, n)
    for _ in range(5):
        F = rng.normal(size=(m, n, *g.sizes)) * 10.0 ** rng.uniform(-2, 2)
        D = rng.normal(size=(m, *g.sizes)) * 10.0 ** rng.uniform(-2, 2)
        on = to_primitive(lift(F, D, lay)).as_vector()
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
    assert sigma_of(fld) == {}


def test_sigma_constant_field_zero_and_lifted_second_order():
    # a (1, 2) mode makes the two stencil truncations differ, so sigma shows
    # the pure O(dx^2) discretization residual instead of cancelling
    X = [Mode(1, (1, 0), 0.1, 0.0), Mode(1, (1, 2), 0.05, 0.9)]
    errs = []
    for N in (32, 64):
        g = Grid((N, N), (TWO_PI, TWO_PI))
        fld, _, _ = initial_fields(g, 1, X, [])
        sig = sigma_of(fld)
        assert len(sig) == 1
        errs.append(max(float(np.max(np.abs(v))) for v in sig.values()))
    assert math.log2(errs[0] / errs[1]) > 1.8
    g = Grid((16, 16), (TWO_PI, TWO_PI))
    lay = enumerate_layout(1, 2)
    const = GridField(g, lay, np.tile(np.array([1.0, 0.1, 0.0, 0.0, 0.2, 0.3])[:, None, None], (1, 16, 16)))
    assert all(np.max(np.abs(v)) == 0.0 for v in sigma_of(const).values())


def test_a_diagnostics_row_divides_by_tau_once(monkeypatch):
    # with the oracle on, the energy, the entropy flux, sigma and the oracle check all read one
    # U = to_conservative(W), so the row guards |tau| once
    from branesim import state

    g = Grid((16, 16), (TWO_PI, TWO_PI))
    fld, ora, _ = initial_fields(g, 1, [Mode(1, (1, 0), 0.1, 0.0)], [Mode(1, (1, 1), 0.05, 0.3)])
    made, guarded = [], []
    real_guard, real_to_conservative = state._guard, solver.to_conservative

    def guard(value, what, floor=state.EPS_SINGULAR):
        guarded.append(what)
        return real_guard(value, what, floor)

    monkeypatch.setattr(state, "_guard", guard)
    monkeypatch.setattr(solver, "_guard", guard, raising=False)
    monkeypatch.setattr(solver, "to_conservative", lambda W: made.append(W) or real_to_conservative(W))
    diagnostics(fld, 0.0, ora)
    assert len(made) == 1 and guarded.count("|tau|") == 1, (len(made), guarded)


def test_a_diagnostics_row_refuses_a_zero_tau_and_names_its_grid_point():
    # refused by the row's one |tau| guard, before anything divides by tau (a division would warn)
    g = Grid((16, 16), (TWO_PI, TWO_PI))
    fld, ora, _ = initial_fields(g, 1, [Mode(1, (1, 0), 0.1, 0.0)], [])
    fld.values[0, 3, 5] = 0.0
    with pytest.raises(BlowUpError) as info:
        diagnostics(fld, 0.0, ora)
    assert info.value.reason == "min |tau| = 0 at grid index [3, 5]"


# ---------------------------------------------------------------------------
# entropy residual


def test_entropy_residual_sees_a_sign_fault_in_the_symmetric_matrices(monkeypatch):
    # d_t W comes from the direct terms and the entropy flux from the triplets, so a row
    # cross-checks the two: flip the v_i <-> m_{A,I} column-swap couplings in the triplets only
    from branesim import flux

    real = flux._symmetric_triplets

    def flipped(m, n, j):
        def swap(p, q, slot, sign):
            # a v row against a minor column, other than the compression term A_j[v_j, m] = -m
            return 1 + m <= p <= m + n < q and not (slot == q and sign < 0)

        return tuple(
            (p, q, slot, -sign if swap(p, q, slot, sign) or swap(q, p, slot, sign) else sign)
            for p, q, slot, sign in real(m, n, j)
        )

    g = Grid((48, 48), (TWO_PI, TWO_PI))
    X = [Mode(1, (1, 0), 0.3, 0.0), Mode(1, (0, 1), 0.3, 0.5)]
    fld, _, _ = initial_fields(g, 1, X, [Mode(1, (1, 1), 0.15, 0.3)])
    clean = diagnostics(fld, 0.0).entropy_residual_L2
    monkeypatch.setattr(flux, "_symmetric_triplets", flipped)
    assert diagnostics(fld, 0.0).entropy_residual_L2 >= 10 * clean


# ---------------------------------------------------------------------------
# initial data


def test_initial_data_is_on_manifold():
    from branesim.state import constraint_residuals, linf

    g = Grid((64,), (TWO_PI,))
    fld, (F0, D0), u0 = initial_fields(g, 1, [Mode(1, (1,), 0.1, 0.0)], [Mode(1, (1,), 0.05, 0.7)])
    res = constraint_residuals(fld.state_view())
    assert linf([res.lam, *res.omega, *res.phi.values(), *res.psi.values()]) < 1e-14
    assert u0.shape == (1, 64)


def test_timelike_guard():
    g = Grid((32,), (TWO_PI,))
    with pytest.raises(ConfigError):
        initial_fields(g, 1, [], [Mode(1, (1,), 1.2, 0.0)])


def test_timelike_guard_rejects_nan_slack():
    with pytest.raises(ConfigError, match="not time-like enough: min.* = nan is not >= 0.05"):
        solver.graph_momentum(np.zeros((1, 1, 8)), np.full((1, 8), np.nan))


def test_graph_momentum_rejects_gradients_whose_zeta_overflows():
    # two heights at 1e300 give I + F F^T = inf, whose solve would be NaN
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="I \\+ F F\\^T overflows"):
        solver.graph_momentum(np.full((2, 1, 8), 1e300), np.zeros((2, 8)))


def lapack_graph_momentum(F, V):
    """The batched LAPACK formula graph_momentum replaced: h solve(I + F F^T, V), h^2 = det(I + F^T F) / slack."""
    m, n = F.shape[:2]
    Fr, Vr = F.reshape(m, n, -1), V.reshape(m, -1)
    W = np.linalg.solve(np.einsum("aip,bip->pab", Fr, Fr) + np.eye(m), Vr.T[..., None])[..., 0]
    slack = 1.0 - np.einsum("pa,ap->p", W, Vr)
    h = np.sqrt(np.linalg.det(np.eye(n) + np.einsum("aip,ajp->pij", Fr, Fr))) / np.sqrt(slack)
    return (h[:, None] * W).T.reshape(V.shape)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_graph_momentum_matches_the_lapack_formula(m, n):
    rng = np.random.default_rng(10 * m + n)
    F = rng.normal(size=(m, n, 7, 9)) * 10.0 ** rng.uniform(-2, 1, size=(1, 1, 7, 9))
    # |V| < 0.95 keeps 1 - V^T (I + F F^T)^{-1} V >= 1 - |V|^2 above the margin
    V = rng.normal(size=(m, 7, 9))
    V *= rng.uniform(0.0, 0.95, size=(7, 9)) / np.sqrt(np.sum(V * V, axis=0))
    got, want = solver.graph_momentum(F, V), lapack_graph_momentum(F, V)
    assert got.shape == V.shape
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 1e-13
    # one point without grid axes
    assert np.array_equal(solver.graph_momentum(F[..., 3, 4], V[:, 3, 4]), got[:, 3, 4])


def exact_graph_momentum(F, V):
    """D at one point from zeta = I + F F^T in exact rationals; only the final sqrt and product round."""
    m, n = F.shape
    Fq, Vq = [[Fr(float(x)) for x in row] for row in F], [Fr(float(x)) for x in V]
    # Gauss-Jordan on [zeta | V]; the product of the pivots is det zeta
    A = [[int(a == b) + sum(Fq[a][i] * Fq[b][i] for i in range(n)) for b in range(m)] + [Vq[a]] for a in range(m)]
    det = Fr(1)
    for p in range(m):
        det *= A[p][p]
        for r in range(m):
            if r != p:
                A[r] = [x - A[r][p] / A[p][p] * y for x, y in zip(A[r], A[p])]
    q = [A[a][m] / A[a][a] for a in range(m)]
    slack = 1 - sum(v * w for v, w in zip(Vq, q))
    return np.array([float(x) for x in q]) * math.sqrt(det / slack)


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_graph_momentum_on_steep_gradients_matches_an_exact_reference(m, n):
    # |F| ~ 1e3..1e4, where a determinant of the m x m zeta (terms ~ |F|^(2m)) loses most of
    # its digits; any method that forms zeta errs like cond(zeta) eps ~ |F|^2 eps
    rng = np.random.default_rng(100 + 10 * m + n)
    F = rng.normal(size=(m, n, 40)) * 10.0 ** rng.uniform(3, 4, size=40)
    F[..., 0] = 1e4  # every entry equal, the worst case for the m x m expansion
    V = rng.normal(size=(m, 40))
    V *= rng.uniform(0.0, 0.95, size=40) / np.sqrt(np.sum(V * V, axis=0))
    got = solver.graph_momentum(F, V)
    for p in range(40):
        want = exact_graph_momentum(F[..., p], V[:, p])
        cond = 1.0 + np.sum(F[..., p] ** 2)
        assert np.max(np.abs(got[:, p] - want)) <= 16 * np.finfo(float).eps * cond * np.max(np.abs(want))


def test_initial_data_and_an_oracle_run_call_no_lapack_solve_or_det(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve or np.linalg.det on the solver path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    g = Grid((16, 12), (TWO_PI, 5.0))
    fld, ora, _ = initial_fields(g, 2, [Mode(1, (1, 0), 0.1), Mode(2, (0, 1), 0.1, 0.5)], [Mode(2, (1, 1), 0.05, 0.3)])
    rows = []
    run(fld, t_end=0.3, cfl=0.4, oracle=ora, on_row=rows.append)
    assert plan_steps(0.3, cfl_dt(fld, 0.4))[0] >= 2 and rows[-1].oracle_D_err_Linf < 1e-3


@pytest.mark.parametrize(
    "grid, m, x_modes, match",
    [
        # I + F F^T stays finite, but the 2x2 minor (1e100)^2 squares past the float range in h
        (Grid((8, 8), (TWO_PI, TWO_PI)), 2, [Mode(1, (1, 0), 1e100), Mode(2, (0, 1), 1e100)], "tau = 1/h is not"),
        # finite, but tau = 1/h at most 1e-12 would trip the guard of the first diagnostics row
        (Grid((8,), (TWO_PI,)), 1, [Mode(1, (1,), 1e12)], "tau = 1/h is not above 1e-12"),
        # F = a k cos is small on a long domain, while two modes of 1.5e308 add past the float range
        (Grid((8,), (1e300,)), 1, [Mode(1, (1,), 1.5e308), Mode(1, (1,), 1.5e308)], "the heights overflow"),
        (Grid((8,), (TWO_PI,)), 1, [Mode(1, (10**400,), 0.1)], "wave vector of component 1 too large"),
        (Grid((8,), (1e-10,)), 1, [Mode(1, (10**300,), 0.1)], "wave vector of component 1 too large"),
    ],
    ids=["minor-squared", "tau-at-the-guard", "heights", "wave-past-float", "wave-over-length"],
)
def test_initial_fields_reject_data_that_overflows(grid, m, x_modes, match):
    with pytest.raises(ConfigError, match=match):
        initial_fields(grid, m, x_modes, [])


# ---------------------------------------------------------------------------
# runs


def test_run_flat_diagnostics_constant():
    g = Grid((32,), (TWO_PI,))
    fld, ora, _ = initial_fields(g, 1, [], [])
    rows = []
    run(fld, t_end=0.5, cfl=0.4, output_cadence=0.1, oracle=ora, on_row=rows.append)
    for row in rows:
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
        rows = []
        run(fld, t_end=1.0, cfl=0.4, output_cadence=0.25, on_row=rows.append)
        E = np.array([r.total_energy for r in rows])
        assert np.max(np.abs(E - E[0])) / E[0] <= 1e-8
        finals[N] = rows[-1]
    assert math.log2(finals[64].lambda_Linf / finals[128].lambda_Linf) > 1.8
    assert math.log2(finals[64].omega_Linf / finals[128].omega_Linf) > 1.8


def test_run_preserves_phi_and_psi_to_second_order_where_they_are_live():
    # at m = 1 phi and psi are structural zeros; at m = n = 2 they are live and must converge
    X = [Mode(1, (1, 0), 0.1, 0.0), Mode(2, (0, 1), 0.1, 0.5), Mode(1, (1, 1), 0.05, 0.2)]
    V = [Mode(2, (1, 1), 0.05, 0.3)]
    finals = {}
    for N in (32, 64):
        fld, _, _ = initial_fields(Grid((N, N), (TWO_PI, TWO_PI)), 2, X, V)
        rows = []
        run(fld, t_end=0.5, cfl=0.4, on_row=rows.append)
        finals[N] = rows[-1]
    for name in ("phi_Linf", "psi_Linf"):
        coarse, fine = getattr(finals[32], name), getattr(finals[64], name)
        assert coarse > 1e-12
        assert math.log2(coarse / fine) >= 1.8


def test_run_time_reversal_returns_to_initial():
    g = Grid((64,), (TWO_PI,))
    X = [Mode(1, (1,), 0.1, 0.0)]
    V = [Mode(1, (1,), 0.05, 0.7)]
    fld, _, _ = initial_fields(g, 1, X, V)
    W0 = fld.values.copy()
    fwd = run(fld, t_end=0.5, cfl=0.4)
    flipped = GridField(g, fld.layout, time_flip(fwd.values, fld.layout))
    back = time_flip(run(flipped, t_end=0.5, cfl=0.4).values, fld.layout)
    return_err = np.max(np.abs(back - W0))

    # forward error estimated against a doubled grid restricted to shared points
    g2 = Grid((128,), (TWO_PI,))
    fld2, _, _ = initial_fields(g2, 1, X, V)
    ref = run(fld2, t_end=0.5, cfl=0.4)
    fwd_err = np.max(np.abs(fwd.values - ref.values[:, ::2]))
    assert return_err <= 2.0 * fwd_err


def test_run_blowup_hands_out_the_rows_before_it():
    # v v' overflows inside the first right-hand side, after the row at t = 0 has
    # gone to on_row.  A speed of 1e155 bounds the step near 5e-157,
    # so t_end stays small enough for the step count to pass the MAX_STEPS guard.
    g = Grid((32,), (TWO_PI,))
    lay = enumerate_layout(1, 1)
    x = g.axes()[0]
    vals = np.stack([np.ones(32), np.zeros(32), 1e155 * (1.0 + 0.5 * np.sin(x)), np.zeros(32)])
    fld = GridField(g, lay, vals)
    t_end = 1e-153
    rows = []
    with pytest.raises(BlowUpError) as info:
        run(fld, t_end=t_end, cfl=0.4, output_cadence=0.1, on_row=rows.append)
    assert [row.t for row in rows] == [0.0]
    # the first step fails, so the time is that of step 1
    assert info.value.t == t_end / math.ceil(t_end / cfl_dt(fld, 0.4))


def test_oracle_equivalence_small_run():
    g = Grid((128,), (TWO_PI,))
    fld, ora, _ = initial_fields(g, 1, [Mode(1, (1,), 0.1, 0.0)], [Mode(1, (1,), 0.05, 0.7)])
    rows = []
    run(fld, t_end=0.5, cfl=0.4, oracle=ora, on_row=rows.append)
    assert rows[-1].oracle_F_err_Linf < 1e-5
    assert rows[-1].oracle_D_err_Linf < 1e-5


def test_turning_the_oracle_on_changes_no_byte_of_the_field():
    g = Grid((16, 12), (TWO_PI, 5.0))
    X = [Mode(1, (1, 0), 0.1, 0.0), Mode(2, (0, 1), 0.1, 0.5)]
    fld, ora, _ = initial_fields(g, 2, X, [Mode(2, (1, 1), 0.05, 0.3)])
    # a snapshot's values are a view of the live state, so each is serialised as it is taken
    snaps, snaps_o, rows, rows_o = [], [], [], []
    runs = [
        run(
            fld,
            t_end=1.0,
            cfl=0.4,
            output_cadence=0.25,
            snapshot_cadence=0.5,
            oracle=o,
            on_snapshot=lambda t, snap, texts=texts: texts.append(solver.snapshot_to_json(snap)),
            on_row=got.append,
        )
        for o, texts, got in ((None, snaps, rows), (ora, snaps_o, rows_o))
    ]
    (csv, values), (csv_o, values_o) = (
        ([line.split(",")[:8] for line in solver.rows_to_csv(got).splitlines()], r.values)
        for got, r in zip((rows, rows_o), runs)
    )
    assert plan_steps(1.0, cfl_dt(fld, 0.4))[0] > 4 and len(csv) == 6 and len(snaps) == 3
    assert csv == csv_o and snaps == snaps_o and values.tobytes() == values_o.tobytes()
    # the oracle columns are filled only when the oracle runs
    assert rows[-1].oracle_F_err_Linf is None and rows_o[-1].oracle_F_err_Linf < 1e-3


def test_a_snapshot_every_step_keeps_none_of_them_alive():
    # run hands each snapshot to on_snapshot as a view and keeps no copy, so the traced
    # peak (numpy reports its buffers to tracemalloc) does not grow with the step count
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    fld, _, _ = initial_fields(g, 1, [Mode(1, (1, 0), 0.1, 0.0)], [Mode(1, (0, 1), 0.05, 0.3)])
    dt = cfl_dt(fld, 0.4)

    def peak(steps):
        tracemalloc.start()
        try:
            run(fld, t_end=steps * dt, cfl=0.4, snapshot_cadence=dt, on_snapshot=lambda t, snap: None)
            return plan_steps(steps * dt, dt)[0], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # the first run fills the caches of the term tables
    (few, few_peak), (many, many_peak) = peak(4), peak(20)
    assert many >= 4 * few
    assert abs(many_peak - few_peak) < fld.values.nbytes


def test_csv_rows_format():
    g = Grid((32,), (TWO_PI,))
    fld, _, _ = initial_fields(g, 1, [], [])
    rows = []
    run(fld, t_end=0.1, cfl=0.4, on_row=rows.append)
    text = solver.rows_to_csv(rows)
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


def test_snapshot_json_holds_at_most_two_copies_of_its_text():
    import tracemalloc

    g = Grid((64, 64), (TWO_PI, TWO_PI))
    fld, _, _ = initial_fields(g, 3, [Mode(1, (1, 1), 0.1, 0.3)], [Mode(2, (1, 0), 0.05, 0.7)])
    snap = solver._snapshot(fld, 0.125)
    tracemalloc.start()
    try:
        text = solver.snapshot_to_json(snap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values block and the text joined from it; chained + on the block made a third copy
    assert peak < 2.5 * len(text)


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
