import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from branesim import flux, minors, state
from branesim.flux import (
    assemble_A,
    char_speeds,
    conservative_flux,
    entropy,
    entropy_flux,
    linear_degeneracy_residual,
    rhs_nonconservative_point,
    wave_speeds,
)
from branesim.minors import ConfigError, enumerate_layout
from branesim.state import ConservativeState, PrimitiveState, lift


def rand_primitive(rng, layout, lo=-9, hi=9):
    vec = [Fr(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(layout.state_dim)]
    return PrimitiveState.from_vector(vec, layout)


# ---------------------------------------------------------------------------
# flux matrices


def test_assemble_A_scalar_string_rows():
    # m = n = 1: rows (v,0,-tau,0), (0,v,0,tau), (-tau,0,v,0), (0,tau,0,v)
    lay = enumerate_layout(1, 1)
    W = PrimitiveState(Fr(3, 7), [Fr(-2, 5)], [Fr(1, 3)], [Fr(4, 9)], lay)
    tau, d, v, mu = W.tau, W.d[0], W.v[0], W.m_minors[0]
    A = assemble_A(1, W)
    expect = np.array(
        [[v, 0, -tau, 0], [0, v, 0, tau], [-tau, 0, v, 0], [0, tau, 0, v]], dtype=object
    )
    assert (A == expect).all()
    # integer entries are exact too: only float entries give a float array
    A = assemble_A(1, PrimitiveState(3, [-2], [1], [4], lay))
    assert A.dtype == object and all(type(x) is int for x in A.flat)


def test_assemble_A_zero_state():
    lay = enumerate_layout(2, 2)
    W = PrimitiveState.from_vector([0.0] * lay.state_dim, lay)
    for j in (1, 2):
        assert np.all(assemble_A(j, W) == 0.0)
    with pytest.raises(ConfigError):
        assemble_A(3, W)
    # a grid-valued state gives one matrix per point, equal to the pointwise calls
    vals = np.random.default_rng(4).uniform(-1, 1, (lay.state_dim, 3, 5))
    Wgrid = PrimitiveState.from_vector(list(vals), lay)
    for j in (1, 2):
        A = assemble_A(j, Wgrid)
        assert A.shape == (3, 5, lay.state_dim, lay.state_dim)
        for a, b in np.ndindex(3, 5):
            assert np.array_equal(A[a, b], assemble_A(j, PrimitiveState.from_vector(list(vals[:, a, b]), lay)))


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
def test_assemble_A_symmetric_and_linear_exact(shape):
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = random.Random(10 * m + n)
    a, b = Fr(2, 3), Fr(-5, 7)
    for _ in range(20):
        W1 = rand_primitive(rng, lay)
        W2 = rand_primitive(rng, lay)
        W3 = PrimitiveState.from_vector(
            [a * x + b * y for x, y in zip(W1.as_vector(), W2.as_vector())], lay
        )
        for j in range(1, n + 1):
            A1, A2, A3 = assemble_A(j, W1), assemble_A(j, W2), assemble_A(j, W3)
            assert (A1 == A1.T).all()
            assert (A3 == a * A1 + b * A2).all()


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_rhs_point_matches_matrix_assembly_exactly(shape):
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = random.Random(77 + m + n)
    for _ in range(20):
        W = rand_primitive(rng, lay)
        grads = [
            [Fr(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(lay.state_dim)]
            for _ in range(n)
        ]
        got = rhs_nonconservative_point(W, grads).as_vector()
        want = [Fr(0)] * lay.state_dim
        for j in range(1, n + 1):
            Aj = assemble_A(j, W)
            for p in range(lay.state_dim):
                want[p] -= sum(Aj[p, q] * grads[j - 1][q] for q in range(lay.state_dim))
        assert got == want


def test_no_direct_term_cancels_another():
    # the pairs of equation terms that cancel exactly are left out of the table, so every
    # product W[coeff] d_axis W[deriv] of a row appears once, with a sign of +-1
    for m in range(1, 4):
        for n in range(1, 4):
            terms = flux._direct_terms(m, n)
            keys = [t[:4] for t in terms]
            assert len(set(keys)) == len(keys), (m, n)
            assert {t[4] for t in terms} <= {1, -1}, (m, n)
    assert [len(flux._direct_terms(m, n)) for m, n in ((1, 1), (1, 2), (3, 2))] == [8, 28, 94]


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3)])
def test_rhs_point_matches_matrix_assembly_floats(shape):
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = np.random.default_rng(m + 10 * n)
    for _ in range(30):
        W = PrimitiveState.from_vector(list(rng.uniform(-1, 1, lay.state_dim)), lay)
        grads = rng.uniform(-1, 1, (n, lay.state_dim))
        got = np.array(rhs_nonconservative_point(W, grads).as_vector())
        want = -sum(
            np.asarray(assemble_A(j, W), dtype=float) @ grads[j - 1] for j in range(1, n + 1)
        )
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) / scale < 1e-13


def test_rhs_point_zero_gradients():
    lay = enumerate_layout(2, 2)
    W = rand_primitive(random.Random(5), lay)
    out = rhs_nonconservative_point(W, [[0] * lay.state_dim] * 2)
    assert all(x == 0 for x in out.as_vector())


def test_rhs_point_scalar_string_tau_row():
    # d_t tau = tau dv - v dtau
    lay = enumerate_layout(1, 1)
    W = PrimitiveState(0.8, [0.1], [0.3], [0.2], lay)
    g = [[0.5, -0.2, 0.7, 0.4]]
    out = rhs_nonconservative_point(W, g)
    assert out.tau == pytest.approx(0.8 * 0.7 - 0.3 * 0.5, abs=0)


# ---------------------------------------------------------------------------
# conservative fluxes


def test_conservative_flux_flat():
    lay = enumerate_layout(2, 2)
    U = ConservativeState(1.0, [0.0, 0.0], [0.0, 0.0], [0.0] * 5, lay)
    for j in (1, 2):
        g = conservative_flux(j, U)
        assert g[0] == 0.0
        for i in (1, 2):
            assert g[lay.v_slot(i)] == (-1.0 if i == j else 0.0)


def test_conservative_flux_scalar_string():
    lay = enumerate_layout(1, 1)
    h, D, P, M = 1.7, 0.3, -0.4, 0.6
    g = conservative_flux(1, ConservativeState(h, [D], [P], [M], lay))
    assert g[0] == pytest.approx(P, abs=0)
    assert g[1] == pytest.approx((D * P + M) / h, rel=1e-15)
    assert g[2] == pytest.approx((P * P - 1) / h, rel=1e-15)
    assert g[3] == pytest.approx((M * P + D) / h, rel=1e-15)


def test_flux_and_entropy_guard_singular_h():
    from branesim.state import BlowUpError

    lay = enumerate_layout(1, 1)
    U = ConservativeState(0.0, [0.0], [0.0], [0.0], lay)
    for op in (lambda: conservative_flux(1, U), lambda: entropy(U), lambda: entropy_flux(U, 1)):
        with pytest.raises(BlowUpError):
            op()


def _poly_curlfree_fields(rng, m, n, layout):
    """Callables U(x) whose minor block satisfies the lifted curl constraints
    (minors of a gradient) while h, D, P stay free; complex-step safe."""
    quads = [
        {(j, k): rng.uniform(-0.3, 0.3) for j in range(n) for k in range(j, n)} for _ in range(m)
    ]
    lins = [rng.uniform(-0.3, 0.3, n) for _ in range(m)]
    hl = rng.uniform(-0.2, 0.2, n)
    Dl, Pl = rng.uniform(-0.3, 0.3, (m, n)), rng.uniform(-0.3, 0.3, (n, n))
    Dc, Pc = rng.uniform(-0.5, 0.5, m), rng.uniform(-0.5, 0.5, n)

    def gradient(x, a, i):
        out = lins[a][i]
        for (j, k), c in quads[a].items():
            if j == i:
                out = out + c * x[k]
            if k == i:
                out = out + c * x[j]
        return out

    def U(x):
        F = [[gradient(x, a, i) for i in range(n)] for a in range(m)]
        h = 3.0 + sum(hl[j] * x[j] for j in range(n))
        D = [Dc[a] + sum(Dl[a, j] * x[j] for j in range(n)) for a in range(m)]
        P = [Pc[i] + sum(Pl[i, j] * x[j] for j in range(n)) for i in range(n)]
        return ConservativeState(h, D, P, minors.all_minors(F, layout), layout)

    return U


def _complex_step(fn, x0, j, h=1e-20):
    x = np.array(x0, dtype=complex)
    x[j] += 1j * h
    return fn(x).imag / h


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_conservative_flux_matches_primitive_evolution(shape):
    # chain-rule oracle: d_t U from the fluxes equals the primitive-form
    # evolution mapped back through U = W / tau, on smooth analytic fields
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = np.random.default_rng(31 + m + 10 * n)
    U = _poly_curlfree_fields(rng, m, n, lay)
    x0 = rng.uniform(0.0, 1.0, n)

    dtU_cons = -sum(
        _complex_step(lambda x: np.array(conservative_flux(j, U(x))), x0, j - 1)
        for j in range(1, n + 1)
    )

    def Wvec(x):
        u = U(x)
        return np.array([1 / u.h, *[d / u.h for d in u.D], *[p / u.h for p in u.P], *[mm / u.h for mm in u.M]])

    W0 = Wvec(x0.astype(complex)).real
    grads = [_complex_step(Wvec, x0, j) for j in range(n)]
    dtW = np.array(rhs_nonconservative_point(PrimitiveState.from_vector(list(W0), lay), grads).as_vector())
    tau, dttau = W0[0], dtW[0]
    dtU_prim = np.empty_like(dtU_cons)
    dtU_prim[0] = -dttau / tau**2
    dtU_prim[1:] = dtW[1:] / tau - W0[1:] * dttau / tau**2

    scale = max(1.0, float(np.max(np.abs(dtU_cons))))
    assert np.max(np.abs(dtU_cons - dtU_prim)) / scale < 1e-13


# ---------------------------------------------------------------------------
# entropy


def test_entropy_flat():
    lay = enumerate_layout(1, 1)
    U = ConservativeState(1.0, [0.0], [0.0], [0.0], lay)
    assert entropy(U) == 0.5
    assert entropy_flux(U, 1) == 0.0


def test_entropy_equals_half_h_on_lifted():
    rng = np.random.default_rng(12)
    for m, n in [(1, 1), (2, 2), (2, 3)]:
        for _ in range(20):
            F = rng.uniform(-0.9, 0.9, (m, n))
            D = list(rng.uniform(-0.9, 0.9, m))
            U = lift(F, D)
            assert entropy(U) == pytest.approx(U.h / 2, rel=1e-13)


def test_entropy_strictly_convex():
    # numerical Hessian positive definite at random points with h > 0
    lay = enumerate_layout(2, 2)
    dim = lay.state_dim
    rng = np.random.default_rng(8)
    step = 1e-4
    for _ in range(100):
        u0 = np.concatenate([[rng.uniform(0.5, 3.0)], rng.uniform(-1, 1, dim - 1)])

        def S(u):
            return entropy(ConservativeState(u[0], list(u[1:3]), list(u[3:5]), list(u[5:]), lay))

        H = np.empty((dim, dim))
        for i in range(dim):
            for j in range(dim):
                ei = np.zeros(dim)
                ej = np.zeros(dim)
                ei[i] = step
                ej[j] = step
                H[i, j] = (S(u0 + ei + ej) - S(u0 + ei - ej) - S(u0 - ei + ej) + S(u0 - ei - ej)) / (4 * step**2)
        assert np.min(np.linalg.eigvalsh(0.5 * (H + H.T))) > 0.0


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 1), (1, 2), (3, 1), (3, 2)])
def test_entropy_law_pointwise(shape):
    # d_t S + div(entropy flux) vanishes when d_t U comes from the fluxes
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = np.random.default_rng(5 + m + 10 * n)
    U = _poly_curlfree_fields(rng, m, n, lay)
    x0 = rng.uniform(0.0, 1.0, n)
    dtU = -sum(
        _complex_step(lambda x: np.array(conservative_flux(j, U(x))), x0, j - 1)
        for j in range(1, n + 1)
    )
    U0 = U(x0)
    y = np.array([*U0.D, *U0.P, *U0.M], dtype=float)
    S0 = entropy(U0)
    dS = (-S0 / U0.h) * dtU[0] + float(np.dot(y, dtU[1:])) / U0.h
    divPhi = sum(
        _complex_step(lambda x: np.array([entropy_flux(U(x), j)]), x0, j - 1)[0]
        for j in range(1, n + 1)
    )
    assert abs(dS + divPhi) < 1e-10


@pytest.mark.parametrize("shape", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
def test_entropy_is_the_hand_written_sum_on_rationals(shape):
    # S = (1 + |D|^2 + |P|^2 + sum M^2) / (2h) exactly, off the manifold too
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = random.Random(90 + 10 * m + n)
    for _ in range(10):
        u = rand_primitive(rng, lay).as_vector()[1:]
        D, P, M = u[:m], u[m : m + n], u[m + n :]
        h = Fr(rng.randint(1, 9), rng.randint(1, 4))
        got = entropy(ConservativeState(h, D, P, M, lay))
        want = (1 + sum(x * x for x in D) + sum(x * x for x in P) + sum(x * x for x in M)) / (2 * h)
        assert type(got) is Fr and got == want


@pytest.mark.parametrize("shape", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
def test_entropy_flux_is_the_quadratic_form_of_A(shape):
    # Q_j = u . A_j(u) u / (2h^2) with u = (1, D, P, M), exactly, diagonal and both triangles of A_j included
    m, n = shape
    lay = enumerate_layout(m, n)
    rng = random.Random(70 + 10 * m + n)
    for _ in range(10):
        u = [Fr(1), *rand_primitive(rng, lay).as_vector()[1:]]
        h = Fr(rng.randint(1, 9), rng.randint(1, 4))
        U = ConservativeState(h, u[1 : 1 + m], u[1 + m : 1 + m + n], u[1 + m + n :], lay)
        for j in range(1, n + 1):
            A = assemble_A(j, PrimitiveState.from_vector(u, lay))
            assert entropy_flux(U, j) == np.dot(u, A.dot(u)) / (2 * h * h)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_entropy_pair_holds_off_the_manifold_for_strings(m):
    # grad_W S . A_1(W) = grad_W Q_1 at every W when n = 1, constraints or not
    lay = enumerate_layout(m, 1)
    rng = np.random.default_rng(40 + m)

    def through_U(fn, w):
        return np.array([fn(state.to_conservative(PrimitiveState.from_vector(list(w), lay)))])

    for _ in range(20):
        w0 = np.concatenate([[rng.uniform(0.3, 2.0)], rng.uniform(-1.0, 1.0, lay.state_dim - 1)])
        gS, gQ = (
            np.array([_complex_step(lambda w: through_U(fn, w), w0, k)[0] for k in range(lay.state_dim)])
            for fn in (entropy, lambda U: entropy_flux(U, 1))
        )
        A = assemble_A(1, PrimitiveState.from_vector(list(w0), lay))
        assert np.max(np.abs(gS @ A - gQ)) < 1e-12 * max(1.0, np.max(np.abs(gQ)))


# ---------------------------------------------------------------------------
# characteristics


def test_char_speeds_examples():
    lay = enumerate_layout(1, 1)
    W = PrimitiveState(0.5, [0.0], [0.2], [0.0], lay)
    # (c, sigma^2), with sigma^2 = tau^2 |nu|^2 for n = 1
    assert char_speeds(W, [1.0]) == (0.2, 0.25)
    assert char_speeds(W, [-1.0]) == (-0.2, 0.25)
    assert char_speeds(PrimitiveState(1.0, [0.0], [0.0], [0.0], lay), [1.0]) == (0.0, 1.0)
    # n = 2: sigma^2 = tau^2 + (m_{1,1} nu_2 - m_{1,2} nu_1)^2 = 1 + (0.5 * 1 - 0 * 0)^2
    lay2 = enumerate_layout(1, 2)
    W2 = PrimitiveState(1.0, [0.3], [0.2, -0.4], [0.5, 0.0], lay2)
    assert char_speeds(W2, [0.0, 1.0]) == (-0.4, 1.25)
    with pytest.raises(ConfigError, match="length 2"):
        char_speeds(W2, [1.0])


def test_char_speeds_refuses_n3():
    # B (B^2 - sigma^2 I) = 0 fails at (m, n) = (2, 3), so no closed form is offered there
    lay = enumerate_layout(2, 3)
    W = PrimitiveState.from_vector([1.0] * lay.state_dim, lay)
    with pytest.raises(ConfigError, match="n <= 2"):
        char_speeds(W, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_char_speeds_spectrum(m):
    # c +/- sigma with multiplicity m + 1 each and c with the rest, against eigvalsh of A_nu,
    # for random nu, on the constraint manifold (lifted graph data) and off it
    rng = np.random.default_rng(m)
    for n in (1, 2):
        lay = enumerate_layout(m, n)
        for k in range(60):
            if k % 2:
                W = PrimitiveState.from_vector(list(rng.uniform(-1, 1, lay.state_dim)), lay)
            else:
                W = state.to_primitive(lift(rng.normal(size=(m, n)), rng.normal(size=m), lay))
            nu = rng.normal(size=n)
            c, s2 = char_speeds(W, nu)
            sigma = np.sqrt(s2)
            want = np.sort([c + sigma] * (m + 1) + [c - sigma] * (m + 1) + [c] * (lay.state_dim - 2 * (m + 1)))
            A = sum(nu[j - 1] * np.asarray(assemble_A(j, W), dtype=float) for j in range(1, n + 1))
            assert np.max(np.abs(np.linalg.eigvalsh(A) - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_linear_degeneracy_residuals():
    # A_1(W) g_s = (v - s tau) g_s for g_s = e_v + s e_tau holds exactly, in floats and in integers
    lay = enumerate_layout(1, 1)
    assert linear_degeneracy_residual(PrimitiveState(1.0, [0.0], [0.0], [0.0], lay)) == 0.0
    lay2 = enumerate_layout(2, 1)
    rng = np.random.default_rng(42)
    for _ in range(50):
        vec = list(rng.uniform(-1, 1, lay2.state_dim))
        vec[0] = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        W = PrimitiveState.from_vector(vec, lay2)
        assert linear_degeneracy_residual(W) == 0.0
    W = PrimitiveState(1e200, [1e-200, -3e150], [2e199], [-1e-180, 7e100], lay2)
    assert linear_degeneracy_residual(W) == 0.0
    # v + tau overflows, and the other speed's residual of 0 must not hide the NaN
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(linear_degeneracy_residual(PrimitiveState(1e308, [0.0], [1e308], [0.0], lay)))
    irng = random.Random(5)
    for m in (1, 2, 3):
        lay = enumerate_layout(m, 1)
        for _ in range(20):
            W = PrimitiveState.from_vector([irng.randint(-9, 9) for _ in range(lay.state_dim)], lay)
            assert assemble_A(1, W).dtype == object and linear_degeneracy_residual(W) == 0.0


@pytest.mark.parametrize("fault", ["tau-v coupling", "v advection"])
def test_linear_degeneracy_residual_sees_a_planted_fault(monkeypatch, fault):
    # the residual reads A_1(W), so a sign flipped in the triplets behind it shows
    real = flux._symmetric_triplets

    def faulty(m, n, j):
        v = enumerate_layout(m, n).v_slot(j)
        targets = {(0, v, 0), (v, 0, 0)} if fault == "tau-v coupling" else {(v, v, v)}
        return tuple((p, q, slot, -sign if (p, q, slot) in targets else sign) for p, q, slot, sign in real(m, n, j))

    lay = enumerate_layout(2, 1)
    W = PrimitiveState(0.4, [0.3, -0.2], [0.5], [0.1, 0.6], lay)
    assert linear_degeneracy_residual(W) == 0.0
    monkeypatch.setattr(flux, "_symmetric_triplets", faulty)
    assert linear_degeneracy_residual(W) > 0.5


# ---------------------------------------------------------------------------
# general-direction speeds


def test_wave_speeds_reduces_to_n1():
    lay = enumerate_layout(2, 1)
    rng = np.random.default_rng(1)
    W = PrimitiveState.from_vector(list(rng.uniform(-1, 1, lay.state_dim)), lay)
    c, s2 = char_speeds(W, [1.0])
    sigma = np.sqrt(s2)
    got = wave_speeds(W, [1.0])
    assert np.max(np.abs(got - np.sort([c - sigma] * 3 + [c + sigma] * 3))) < 1e-12


def test_wave_speeds_zero_state():
    lay = enumerate_layout(1, 2)
    W = PrimitiveState.from_vector([0.0] * lay.state_dim, lay)
    assert np.max(np.abs(wave_speeds(W, [0.6, 0.8]))) == 0.0
    with pytest.raises(ConfigError):
        wave_speeds(W, [1.0])


def test_wave_speeds_flat_spectrum_symmetric():
    lay = enumerate_layout(1, 2)
    W = PrimitiveState(1.0, [0.0], [0.0, 0.0], [0.0, 0.0], lay)
    for nu in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
        sp = wave_speeds(W, nu)
        assert np.max(np.abs(np.sort(sp) + np.sort(sp)[::-1])) < 1e-14
