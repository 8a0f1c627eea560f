"""Flux assembly and characteristic analysis of the augmented system.

The non-conservative system is

    d_t W + sum_j A_j(W) d_j W = 0,

with A_j symmetric and linear in W.  Two independent transcriptions of the
same four evolution equations live here:

* ``_direct_terms`` walks the equations term by term and powers the
  right-hand-side evaluation (pointwise and on grids);
* ``_symmetric_triplets`` builds the matrices A_j row/column-pairwise, so
  symmetry is a property of the construction, not a numerical accident.

They are cross-checked against each other by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .minors import DomainError, MinorLayout, _rank, _sign, enumerate_layout
from .state import ConservativeState, PrimitiveState, _guard


# ---------------------------------------------------------------------------
# term tables
#
# A term (row, coeff, deriv, axis, sign) stands for the equation contribution
#     d_t W[row] += -sign * W[coeff] * d_axis W[deriv]
# with axis 1-based.  Slot 0 is tau; empty-pair minors route there.


@lru_cache(maxsize=None)
def _direct_terms(m: int, n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    lay = enumerate_layout(m, n)
    sl = lay.state_slot
    vs = lay.v_slot
    ds = lay.d_slot
    T = []

    # tau equation: d_t tau + v_j d_j tau - tau d_j v_j = 0
    for j in range(1, n + 1):
        T.append((0, vs(j), 0, j, 1))
        T.append((0, 0, vs(j), j, -1))

    # d equations: advection plus the signed minor-pair couplings
    for alpha in range(1, m + 1):
        for i in range(1, n + 1):
            T.append((ds(alpha), vs(i), ds(alpha), i, 1))
        for A, I in lay._raw:
            if alpha not in A:
                continue
            sa = _rank(A, alpha)
            Acut = tuple(x for x in A if x != alpha)
            for i in I:
                s = _sign(sa + _rank(I, i))
                Icut = tuple(x for x in I if x != i)
                T.append((ds(alpha), sl(Acut, Icut), sl(A, I), i, s))

    # v equations: column-swap couplings, the gradient of the squared minors
    # (tau included), and advection
    for i in range(1, n + 1):
        for A, I in lay._raw:
            for j in I:
                if i in I and i != j:
                    continue
                Icut = tuple(x for x in I if x != j)
                s = _sign(_rank(I, j) + _rank(Icut, i))
                swapped = tuple(sorted(Icut + (i,)))
                T.append((vs(i), sl(A, swapped), sl(A, I), j, s))
        for A, I in lay._raw:
            T.append((vs(i), sl(A, I), sl(A, I), i, -1))
        T.append((vs(i), 0, 0, i, -1))
        for j in range(1, n + 1):
            T.append((vs(i), vs(j), vs(i), j, 1))

    # minor equations: advection, velocity couplings, and momentum couplings
    for A, I in lay._raw:
        row = sl(A, I)
        for j in range(1, n + 1):
            T.append((row, vs(j), row, j, 1))
        for i in I:
            si = _rank(I, i)
            Icut = tuple(x for x in I if x != i)
            for j in range(1, n + 1):
                if j in I and j != i:
                    continue
                s = _sign(_rank(Icut, j) + si)
                swapped = tuple(sorted(Icut + (j,)))
                T.append((row, sl(A, swapped), vs(j), i, s))
        for j in range(1, n + 1):
            T.append((row, row, vs(j), j, -1))
        for alpha in A:
            sa = _rank(A, alpha)
            Acut = tuple(x for x in A if x != alpha)
            for i in I:
                s = _sign(sa + _rank(I, i))
                Icut = tuple(x for x in I if x != i)
                T.append((row, sl(Acut, Icut), ds(alpha), i, s))

    return tuple(T)


@lru_cache(maxsize=None)
def _symmetric_triplets(m: int, n: int, j: int) -> tuple[tuple[int, int, int, int], ...]:
    """Coefficient triplets (p, q, slot, sign) with A_j[p, q] += sign * W[slot].

    Every off-diagonal coupling is emitted for (p, q) and (q, p) from the same
    line of code, which is what makes symmetry constructional.
    """
    lay = enumerate_layout(m, n)
    sl = lay.state_slot
    vs = lay.v_slot
    ds = lay.d_slot
    out = []

    def sym(p, q, slot, sign):
        out.append((p, q, slot, sign))
        if p != q:
            out.append((q, p, slot, sign))

    # common advection at speed v_j
    for p in range(lay.state_dim):
        out.append((p, p, vs(j), 1))

    # tau <-> v_j at speed -tau
    sym(0, vs(j), 0, -1)

    # d_alpha <-> m_{A,I} through the complementary minor (j in I)
    for A, I in lay._raw:
        if j not in I:
            continue
        sj = _rank(I, j)
        Icut = tuple(x for x in I if x != j)
        for alpha in A:
            s = _sign(_rank(A, alpha) + sj)
            Acut = tuple(x for x in A if x != alpha)
            sym(ds(alpha), sl(A, I), sl(Acut, Icut), s)

    # v_i <-> m_{A,I} through the column-swapped minor (j in I)
    for A, I in lay._raw:
        if j not in I:
            continue
        sj = _rank(I, j)
        Icut = tuple(x for x in I if x != j)
        for i in range(1, n + 1):
            if i in Icut:
                continue
            s = _sign(sj + _rank(Icut, i))
            swapped = tuple(sorted(Icut + (i,)))
            sym(vs(i), sl(A, I), sl(A, swapped), s)

    # v_j <-> m_{A,I} at speed -m_{A,I} (the squared-minor gradient /
    # the compression term of the minor equations)
    for A, I in lay._raw:
        sym(vs(j), sl(A, I), sl(A, I), -1)

    return tuple(out)


# ---------------------------------------------------------------------------
# operations


def assemble_A(j: int, W: PrimitiveState):
    """The symmetric matrix A_j(W), rows and columns in state-vector order.

    Grid-valued states give one matrix per point, shape (*grid, dim, dim);
    exact (Fraction) entries give an object array.
    """
    lay = W.layout
    if not 1 <= j <= lay.n:
        raise DomainError(f"direction {j} out of range 1..{lay.n}")
    vec = W.as_vector()
    exact = any(isinstance(x, Fraction) for x in vec)
    dim = lay.state_dim
    mat = np.zeros((*np.shape(vec[0]), dim, dim), dtype=object if exact else float)
    for p, q, slot, sign in _symmetric_triplets(lay.m, lay.n, j):
        mat[..., p, q] += sign * vec[slot]
    return mat


def apply_terms(layout: MinorLayout, W_vec, grad_vecs, out):
    """Subtract sum_j A_j(W) d_j W, from the direct term table, into ``out``.

    ``W_vec``, ``grad_vecs[j-1]`` and ``out`` are indexable by state slot;
    entries may be scalars or grid arrays.  Returns ``out``.
    """
    for row, coeff, deriv, axis, sign in _direct_terms(layout.m, layout.n):
        out[row] -= sign * W_vec[coeff] * grad_vecs[axis - 1][deriv]
    return out


def rhs_nonconservative_point(W: PrimitiveState, grads) -> PrimitiveState:
    """Pointwise d_t W given the n spatial gradients of W.

    Transcribed term by term from the four evolution equations, independently
    of ``assemble_A``; the two are reconciled by tests.
    """
    lay = W.layout
    gv = []
    for g in grads:
        gv.append(g.as_vector() if isinstance(g, PrimitiveState) else list(g))
    if len(gv) != lay.n:
        raise DomainError(f"expected {lay.n} gradient vectors, got {len(gv)}")
    out = apply_terms(lay, W.as_vector(), gv, [0] * lay.state_dim)
    return PrimitiveState.from_vector(out, lay)


def conservative_flux(j: int, U: ConservativeState):
    """Flux vector of the conservation-law form in direction j."""
    lay = U.layout
    m, n = lay.m, lay.n
    if not 1 <= j <= n:
        raise DomainError(f"direction {j} out of range 1..{n}")
    _guard(U.h, "|h|")
    h = U.h
    Mv = U.minor_value
    out = [0] * lay.state_dim

    out[0] = U.P[j - 1]

    for alpha in range(1, m + 1):
        acc = U.D[alpha - 1] * U.P[j - 1]
        for A, I in lay._raw:
            if alpha in A and j in I:
                s = _sign(_rank(A, alpha) + _rank(I, j))
                acc = acc + s * Mv(A, I) * Mv(
                    tuple(x for x in A if x != alpha), tuple(x for x in I if x != j)
                )
        out[lay.d_slot(alpha)] = acc / h

    msq = 1
    for x in U.M:
        msq = msq + x * x
    for i in range(1, n + 1):
        acc = U.P[i - 1] * U.P[j - 1]
        if i == j:
            acc = acc - msq
        for A, I in lay._raw:
            if j not in I:
                continue
            Icut = tuple(x for x in I if x != j)
            if i in Icut:
                continue
            s = _sign(_rank(I, j) + _rank(Icut, i))
            acc = acc + s * Mv(A, tuple(sorted(Icut + (i,)))) * Mv(A, I)
        out[lay.v_slot(i)] = acc / h

    for A, I in lay._raw:
        row = lay.state_slot(A, I)
        if j not in I:
            out[row] = 0 * h
            continue
        sj = _rank(I, j)
        Icut = tuple(x for x in I if x != j)
        acc = 0
        for jp in range(1, n + 1):
            if jp in Icut:
                continue
            s = _sign(_rank(Icut, jp) + sj)
            acc = acc + s * Mv(A, tuple(sorted(Icut + (jp,)))) * U.P[jp - 1]
        for alpha in A:
            s = _sign(_rank(A, alpha) + sj)
            acc = acc + s * Mv(tuple(x for x in A if x != alpha), Icut) * U.D[alpha - 1]
        out[row] = acc / h

    return out


def entropy(U: ConservativeState):
    """S = (1 + |D|^2 + |P|^2 + sum M^2) / (2h); strictly convex on h > 0."""
    _guard(U.h, "|h|")
    num = 1
    for x in U.D:
        num = num + x * x
    for x in U.P:
        num = num + x * x
    for x in U.M:
        num = num + x * x
    return num / (2 * U.h)


def entropy_flux(U: ConservativeState, j: int):
    """Entropy flux in direction j paired with the conservative fluxes."""
    lay = U.layout
    n = lay.n
    if not 1 <= j <= n:
        raise DomainError(f"direction {j} out of range 1..{n}")
    _guard(U.h, "|h|")
    h = U.h
    h2 = h * h
    Mv = U.minor_value
    S = entropy(U)
    out = S * U.P[j - 1] / h

    for A, I in lay._raw:
        if j not in I:
            continue
        sj = _rank(I, j)
        Icut = tuple(x for x in I if x != j)
        for alpha in A:
            s = _sign(_rank(A, alpha) + sj)
            out = out + s * U.D[alpha - 1] * Mv(
                tuple(x for x in A if x != alpha), Icut
            ) * Mv(A, I) / h2
        for i in range(1, n + 1):
            if i in Icut:
                continue
            s = _sign(sj + _rank(Icut, i))
            out = out + s * U.P[i - 1] * Mv(A, tuple(sorted(Icut + (i,)))) * Mv(A, I) / h2

    msq = 1
    for x in U.M:
        msq = msq + x * x
    out = out - U.P[j - 1] * msq / h2
    return out


# ---------------------------------------------------------------------------
# characteristic structure (n = 1)


@dataclass
class CharField:
    """A propagation speed with its multiplicity and characteristic directions."""

    speed: float
    multiplicity: int
    vectors: list


def _require_n1(layout: MinorLayout):
    if layout.n != 1:
        raise DomainError("characteristic formulas are only available for n = 1")


def char_speeds_n1(W: PrimitiveState):
    """Speeds v_1 +/- tau with multiplicity m+1 each, plus their fields.

    For n = 1 the flux matrix is v_1 * Id + tau * B with B a constant
    symmetric involution, so the characteristic directions are state
    independent; they are returned in primitive layout.
    """
    lay = W.layout
    _require_n1(lay)
    m = lay.m
    dim = lay.state_dim
    lp = W.v[0] + W.tau
    lm = W.v[0] - W.tau

    def unit(entries):
        vec = np.zeros(dim)
        for slot, val in entries:
            vec[slot] = val
        return vec / np.linalg.norm(vec)

    plus = [unit([(0, -1.0), (lay.v_slot(1), 1.0)])]
    minus = [unit([(0, 1.0), (lay.v_slot(1), 1.0)])]
    for alpha in range(1, m + 1):
        mu = lay.state_slot((alpha,), (1,))
        plus.append(unit([(lay.d_slot(alpha), 1.0), (mu, 1.0)]))
        minus.append(unit([(lay.d_slot(alpha), 1.0), (mu, -1.0)]))

    return lp, lm, (CharField(lp, m + 1, plus), CharField(lm, m + 1, minus))


def linear_degeneracy_residual(W: PrimitiveState) -> float:
    """max |grad(speed) . char vector| by central differences (n = 1).

    The speeds (P +/- 1)/h are differentiated in the conservative variables
    (h, P, D, F), along the characteristic directions expressed there.
    """
    lay = W.layout
    _require_n1(lay)
    _guard(W.tau, "|tau|")
    m = lay.m
    h = 1.0 / W.tau
    P = W.v[0] * h
    D = np.array([x * h for x in W.d])
    F = np.array([W.m_minors[lay.slot((a,), (1,))] * h for a in range(1, m + 1)])
    U = np.concatenate([[h, P], D, F])

    def speed(u, s):
        return (u[1] + s) / u[0]

    vecs = {
        1: [np.concatenate([[h, P + 1], D, F])],
        -1: [np.concatenate([[h, P - 1], D, F])],
    }
    for alpha in range(m):
        e = np.zeros(m)
        e[alpha] = 1.0
        vecs[1].append(np.concatenate([[0.0, 0.0], e, e]))
        vecs[-1].append(np.concatenate([[0.0, 0.0], e, -e]))

    scale = max(1.0, float(np.max(np.abs(U))))
    worst = 0.0
    for s, vlist in vecs.items():
        for vec in vlist:
            vnorm = float(np.max(np.abs(vec)))
            if vnorm == 0.0:
                continue
            step = 1e-5 * scale / vnorm  # relative finite-difference step
            g = (speed(U + step * vec, s) - speed(U - step * vec, s)) / (2 * step)
            worst = max(worst, abs(float(g)))
    return worst


def wave_speeds(W: PrimitiveState, nu) -> np.ndarray:
    """Sorted eigenvalues of sum_j nu_j A_j(W); real by symmetry."""
    lay = W.layout
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (lay.n,):
        raise DomainError(f"direction vector must have length {lay.n}")
    A = np.zeros((lay.state_dim, lay.state_dim))
    for j in range(1, lay.n + 1):
        if nu[j - 1] != 0.0:
            A += nu[j - 1] * np.asarray(assemble_A(j, W), dtype=float)
    return np.sort(np.linalg.eigvalsh(A))
