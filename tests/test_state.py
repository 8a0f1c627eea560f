import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from branesim.minors import ConfigError, enumerate_layout
from branesim.state import (
    BlowUpError,
    ConservativeState,
    PrimitiveState,
    constraint_residuals,
    lift,
    lifted_residuals_scaled,
    linf,
    reconstruct_graph,
    to_conservative,
    to_primitive,
)


def max_residual(res):
    return linf([res.lam, *res.omega, *res.phi.values(), *res.psi.values()])


def rand_rational_graph(rng, m, n):
    F = [[Fr(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    D = [Fr(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
    return F, D


# ---------------------------------------------------------------------------
# lift


def test_lift_flat():
    U = lift([[0.0]], [0.0])
    assert U.h == 1.0
    assert U.P == [0.0] and U.M == [0.0]


def test_lift_unit_momentum():
    U = lift([[0.0]], [1.0])
    assert U.h == pytest.approx(math.sqrt(2), abs=0)
    assert U.P == [0.0] and U.M == [0.0]


def test_lift_2x2_example():
    U = lift([[1.0, 2.0], [3.0, 4.0]], [1.0, 0.0])
    assert U.P == [1.0, 2.0]
    assert U.M == [1.0, 2.0, 3.0, 4.0, -2.0]
    assert U.h == pytest.approx(math.sqrt(41.0), rel=1e-15)


def test_lift_h_at_least_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, n = rng.integers(1, 4), rng.integers(1, 3)
        F = rng.uniform(-1, 1, (m, n))
        D = rng.uniform(-1, 1, m)
        U = lift(F, list(D))
        assert U.h >= 1.0
    assert lift(np.zeros((2, 2)), [0.0, 0.0]).h == 1.0


@pytest.mark.parametrize("build", [lift, lifted_residuals_scaled], ids=["lift", "lifted_residuals_scaled"])
def test_lift_builds_refuse_a_D_or_layout_that_does_not_fit_F(build):
    F = [[1, 2], [3, 4]]
    for D in ([1, 2, 3], [1]):
        with pytest.raises(ConfigError, match=f"^D has length {len(D)}, expected 2$"):
            build(F, D)
    with pytest.raises(ConfigError, match="layout does not match graph data shape"):
        build(F, [1, 2], enumerate_layout(2, 3))


# ---------------------------------------------------------------------------
# primitive <-> conservative


def test_to_primitive_examples():
    lay = enumerate_layout(1, 1)
    W = to_primitive(ConservativeState(1.0, [0.0], [0.0], [0.0], lay))
    assert (W.tau, W.d, W.v, W.m_minors) == (1.0, [0.0], [0.0], [0.0])
    W = to_primitive(ConservativeState(2.0, [1.0], [1.0], [0.0], lay))
    assert (W.tau, W.d[0], W.v[0]) == (0.5, 0.5, 0.5)
    with pytest.raises(BlowUpError):
        to_primitive(ConservativeState(0.0, [0.0], [0.0], [0.0], lay))


def test_to_conservative_examples():
    lay = enumerate_layout(1, 1)
    U = to_conservative(PrimitiveState(1.0, [0.0], [0.0], [0.0], lay))
    assert U.h == 1.0
    U = to_conservative(PrimitiveState(0.5, [0.5], [0.5], [0.0], lay))
    assert (U.h, U.D[0], U.P[0]) == (2.0, 1.0, 1.0)
    with pytest.raises(BlowUpError):
        to_conservative(PrimitiveState(0.0, [0.0], [0.0], [0.0], lay))


def test_guard_names_the_grid_index_of_its_smallest_value():
    # a grid names where |h| or |tau| is smallest, not the first point at or below the bound;
    # a scalar has no grid index to name
    lay = enumerate_layout(1, 1)
    h = np.ones((3, 4))
    h[1, 2], h[2, 0] = 1e-12, -1e-13
    ones = [np.ones((3, 4))]
    with pytest.raises(BlowUpError) as info:
        to_primitive(ConservativeState(h, ones, ones, ones, lay))
    assert info.value.reason == "min |h| = 1e-13 at grid index [2, 0]"
    with pytest.raises(BlowUpError) as info:
        to_conservative(PrimitiveState(np.array([1.0, 0.0, 0.5]), [1.0], [1.0], [1.0], lay))
    assert info.value.reason == "min |tau| = 0 at grid index [1]"
    with pytest.raises(BlowUpError) as info:
        to_conservative(PrimitiveState(0.0, [0.0], [0.0], [0.0], lay))
    assert info.value.reason == "min |tau| = 0"


_NAN_FIRST, _NAN_LAST = np.array([math.nan, 1e-13, 1.0]), np.array([1.0, 1e-13, math.nan])


@pytest.mark.parametrize(
    "refuse, reason",
    [
        (lambda lay: to_primitive(ConservativeState(_NAN_FIRST, [1.0], [1.0], [1.0], lay)), "min |h| = nan at grid index [0]"),
        (lambda lay: to_conservative(PrimitiveState(_NAN_FIRST, [1.0], [1.0], [1.0], lay)), "min |tau| = nan at grid index [0]"),
        (lambda lay: reconstruct_graph(PrimitiveState(_NAN_LAST, [1.0], [1.0], [1.0], lay)), "min |tau| = nan at grid index [2]"),
    ],
    ids=["h", "tau", "tau-nan-after-the-smallest"],
)
def test_a_guard_refuses_a_nan_and_names_it_before_the_smallest_value(refuse, reason):
    # min is NaN and NaN <= floor is false, so a guard asks "is every entry above the floor?", which NaN fails
    with pytest.raises(BlowUpError) as info:
        refuse(enumerate_layout(1, 1))
    assert info.value.reason == reason


def test_round_trips_within_ulps():
    lay = enumerate_layout(2, 1)
    rng = np.random.default_rng(4)
    for _ in range(300):
        h = float(10.0 ** rng.uniform(-6, 6)) * rng.choice([-1.0, 1.0])
        U = ConservativeState(h, list(rng.uniform(-1, 1, 2)), [float(rng.uniform(-1, 1))], list(rng.uniform(-1, 1, 2)), lay)
        U2 = to_conservative(to_primitive(U))
        for a, b in zip([U.h, *U.D, *U.P, *U.M], [U2.h, *U2.D, *U2.P, *U2.M]):
            assert abs(a - b) <= 2 * math.ulp(max(abs(a), 1e-300))
        W = to_primitive(U)
        W2 = to_primitive(to_conservative(W))
        for a, b in zip(W.as_vector(), W2.as_vector()):
            assert abs(a - b) <= 2 * math.ulp(max(abs(a), 1e-300))


# ---------------------------------------------------------------------------
# linf


def test_linf_takes_the_largest_magnitude_over_scalars_and_arrays():
    assert linf([]) == 0.0 and type(linf([])) is float
    assert linf([-3.0, np.array([[1.0, -2.5], [0.5, 2.0]]), Fr(-7, 2)]) == 3.5
    assert linf(x for x in (np.zeros(3), -0.0)) == 0.0


def test_linf_of_a_group_holding_a_nan_is_nan():
    # wherever the NaN sits: alone, in an array, before or after the largest entry
    grid = np.array([1.0, math.nan, -5.0])
    for values in ([math.nan], [grid], [9.0, grid], [grid, 9.0], [np.array([[math.nan]]), -1e300]):
        assert math.isnan(linf(values))


# ---------------------------------------------------------------------------
# graph reconstruction


def test_reconstruct_examples():
    lay = enumerate_layout(1, 1)
    assert reconstruct_graph(PrimitiveState(1.0, [0.0], [0.0], [0.3], lay)) == ([[0.3]], [0.0])
    assert reconstruct_graph(PrimitiveState(0.5, [0.2], [0.0], [0.5], lay)) == ([[1.0]], [0.4])
    with pytest.raises(BlowUpError):
        reconstruct_graph(PrimitiveState(0.0, [0.0], [0.0], [0.0], lay))


def test_reconstruct_round_trip():
    rng = np.random.default_rng(9)
    for m, n in [(1, 1), (2, 2), (3, 2)]:
        F = rng.uniform(-0.8, 0.8, (m, n))
        D = list(rng.uniform(-0.8, 0.8, m))
        F_rec, D_rec = reconstruct_graph(to_primitive(lift(F, D)))
        assert np.max(np.abs(np.array(F_rec) - F)) < 1e-13
        assert np.max(np.abs(np.array(D_rec) - D)) < 1e-13


# ---------------------------------------------------------------------------
# constraint residuals


def test_residuals_flat_state():
    lay = enumerate_layout(2, 2)
    W = PrimitiveState(1.0, [0.0, 0.0], [0.0, 0.0], [0.0] * 5, lay)
    res = constraint_residuals(W)
    assert max_residual(res) == 0.0


def test_residuals_velocity_only_state():
    lay = enumerate_layout(1, 1)
    res = constraint_residuals(PrimitiveState(1.0, [0.0], [1.0], [0.0], lay))
    assert res.lam == pytest.approx(0.5, abs=0)
    assert res.omega[0] == pytest.approx(1.0, abs=0)


def test_residuals_vanish_on_lifted_floats():
    rng = np.random.default_rng(21)
    for m, n in [(1, 1), (2, 2), (3, 3), (2, 3)]:
        F = rng.uniform(-0.8, 0.8, (m, n))
        D = list(rng.uniform(-0.8, 0.8, m))
        res = constraint_residuals(to_primitive(lift(F, D)))
        assert max_residual(res) < 1e-14


def test_two_h_S_equals_h_squared_exactly():
    # 2hS and h^2 agree as exact rationals on lifted data: the numerator of S
    # reproduces h^2 through the minor-sum form of xi
    from branesim.minors import all_minors, enumerate_layout, xi

    rng = random.Random(77)
    for m, n in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        lay = enumerate_layout(m, n)
        for _ in range(25):
            F, D = rand_rational_graph(rng, m, n)
            P = [sum(F[a][i] * D[a] for a in range(m)) for i in range(n)]
            M = all_minors(F, lay)
            two_h_S = 1 + sum(x * x for x in D) + sum(x * x for x in P) + sum(x * x for x in M)
            h_sq = xi(F) + sum(x * x for x in D) + sum(x * x for x in P)
            assert two_h_S == h_sq


@pytest.mark.parametrize("shape", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
def test_residuals_vanish_exactly_on_lifted_rationals(shape):
    m, n = shape
    rng = random.Random(1000 + 10 * m + n)
    for _ in range(100):
        F, D = rand_rational_graph(rng, m, n)
        res = lifted_residuals_scaled(F, D)
        assert res.lam == 0
        assert all(x == 0 for x in res.omega)
        assert all(x == 0 for x in res.phi.values())
        assert all(x == 0 for x in res.psi.values())


def test_residuals_work_on_grid_arrays():
    # components may be whole grids; the residuals come back as grids
    lay = enumerate_layout(1, 1)
    x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    F = np.array([[0.3 * np.cos(x)]])
    D = [0.2 * np.sin(x)]
    res = constraint_residuals(to_primitive(lift(F, D, lay)))
    assert res.lam.shape == x.shape
    assert max_residual(res) < 1e-14
