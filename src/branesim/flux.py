"""Flux assembly and characteristic analysis of the augmented system.

The non-conservative system is

    d_t W + sum_j A_j(W) d_j W = 0,

with A_j symmetric and linear in W.  Two independent transcriptions of the
same four evolution equations live here:

* ``_direct_terms`` walks the equations term by term and powers the
  right-hand-side evaluation (pointwise and on grids).  It leaves out the two
  kinds of term pairs that cancel exactly: in a v_i row, for i in I, the swap
  of column i with itself against the gradient of m_{A,I}^2; in an m_{A,I}
  row, for j in I, the velocity coupling with j = i against the compression
  -m_{A,I} d_j v_j.  No two of its terms share a product;
* ``_symmetric_triplets`` builds the matrices A_j row/column-pairwise, so
  symmetry is a property of the construction, not a numerical accident.  It
  also yields the entropy flux: A_j is symmetric and linear in W, so with
  u = W / tau = (1, D, P, M) the pair is S = |u|^2 / (2h) and
  Q_j = u . A_j(u) u / (2h^2).

They are cross-checked against each other by the test suite, and on every
diagnostics row by the entropy residual, whose d_t W comes from the direct
terms and whose Q_j comes from the triplets.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .minors import ConfigError, MinorLayout, _rank, _sign, _squares, enumerate_layout
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
    # (tau included), and advection.  For i in I the swap of column i with
    # itself, +m_{A,I} d_i m_{A,I}, cancels that minor's gradient term
    # -m_{A,I} d_i m_{A,I} exactly (swaps with j != i repeat a column and
    # vanish), so neither is written: only the minors with i outside I remain
    for i in range(1, n + 1):
        outside = [(A, I) for A, I in lay._raw if i not in I]
        for A, I in outside:
            for j in I:
                Icut = tuple(x for x in I if x != j)
                s = _sign(_rank(I, j) + _rank(Icut, i))
                swapped = tuple(sorted(Icut + (i,)))
                T.append((vs(i), sl(A, swapped), sl(A, I), j, s))
        for A, I in outside:
            T.append((vs(i), sl(A, I), sl(A, I), i, -1))
        T.append((vs(i), 0, 0, i, -1))
        for j in range(1, n + 1):
            T.append((vs(i), vs(j), vs(i), j, 1))

    # minor equations: advection, velocity couplings, and momentum couplings.
    # For j in I the velocity coupling with j = i, +m_{A,I} d_j v_j, cancels
    # the compression term -m_{A,I} d_j v_j exactly (j != i in I repeats a
    # column and vanishes), so both run over the columns j outside I only
    for A, I in lay._raw:
        row = sl(A, I)
        free = [j for j in range(1, n + 1) if j not in I]
        for j in range(1, n + 1):
            T.append((row, vs(j), row, j, 1))
        for i in I:
            si = _rank(I, i)
            Icut = tuple(x for x in I if x != i)
            for j in free:
                s = _sign(_rank(Icut, j) + si)
                swapped = tuple(sorted(Icut + (j,)))
                T.append((row, sl(A, swapped), vs(j), i, s))
        for j in free:
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

CACHE_LINE = 64  # bytes; numpy itself only promises 16-byte alignment


def aligned_empties(shape, interiors) -> list[np.ndarray]:
    """Uninitialised C-contiguous float arrays of one shape, one per flag, from one allocation.

    Each array's first element starts on a cache line, or with its flag its second
    element does: on the last axis the stencil's interior pass starts writing there.
    An out-of-place ufunc into an output off a cache line runs at about half speed on
    AVX-512 hosts, whatever its inputs.  One allocation, rather than one per array,
    keeps a call's temporaries from crossing glibc's mmap threshold one by one: each
    would then be mapped and its pages faulted in afresh on every call.
    """
    size, pad = math.prod(shape), CACHE_LINE // 8
    span = -(-size // pad) * pad + pad  # room for a size-point array starting anywhere in a line
    buf = np.empty(len(interiors) * span + pad)
    first = -(buf.ctypes.data // 8) % pad
    starts = (first + k * span + (pad - 1 if interior else 0) for k, interior in enumerate(interiors))
    return [buf[s : s + size].reshape(shape) for s in starts]


def aligned_empty(shape) -> np.ndarray:
    """One array of ``aligned_empties`` whose first element starts on a cache line."""
    return aligned_empties(shape, (False,))[0]


def assemble_A(j: int, W: PrimitiveState):
    """The symmetric matrix A_j(W), rows and columns in state-vector order.

    Grid-valued states give one matrix per point, shape (*grid, dim, dim).
    The array is float when every entry is a float or a float array, and
    object otherwise, so exact (int, Fraction) entries stay exact.
    """
    lay = W.layout
    if not 1 <= j <= lay.n:
        raise ConfigError(f"direction {j} out of range 1..{lay.n}")
    vec = W.as_vector()
    floats = all(np.asarray(x).dtype.kind == "f" for x in vec)
    dim = lay.state_dim
    mat = np.zeros((*np.shape(vec[0]), dim, dim), dtype=float if floats else object)
    for p, q, slot, sign in _symmetric_triplets(lay.m, lay.n, j):
        mat[..., p, q] += sign * vec[slot]
    return mat


def apply_terms(layout: MinorLayout, W_vec, grad_vecs, out):
    """Subtract sum_j A_j(W) d_j W, from the direct term table, into ``out``.

    ``W_vec``, ``grad_vecs[j-1]`` and ``out`` are indexable by state slot, with
    array rows of one shape; ``out`` is updated in place through one scratch
    row, cache-line aligned when the rows are float.  Returns ``out``.
    """
    tmp = aligned_empty(out[0].shape) if out[0].dtype == float else np.empty_like(out[0])
    for row, coeff, deriv, axis, sign in _direct_terms(layout.m, layout.n):
        np.multiply(W_vec[coeff], grad_vecs[axis - 1][deriv], out=tmp)
        # out -= sign * W * g, exactly: (-W) g = -(W g) and a - (-x) = a + x
        (np.add if sign < 0 else np.subtract)(out[row], tmp, out=out[row])
    return out


def rhs_nonconservative_point(W: PrimitiveState, grads) -> PrimitiveState:
    """Pointwise d_t W given the n spatial gradients of W.

    Transcribed term by term from the four evolution equations, independently
    of ``assemble_A``; the two are reconciled by tests.  The entries go through
    ``apply_terms`` as one-point rows of Python objects, so exact (Fraction)
    entries stay exact.
    """
    lay = W.layout
    gv = []
    for g in grads:
        gv.append(g.as_vector() if isinstance(g, PrimitiveState) else list(g))
    if len(gv) != lay.n:
        raise ConfigError(f"expected {lay.n} gradient vectors, got {len(gv)}")

    def rows(vec):
        return np.array(vec, dtype=object).reshape(lay.state_dim, 1)

    out = apply_terms(lay, rows(W.as_vector()), [rows(g) for g in gv], rows([0] * lay.state_dim))
    return PrimitiveState.from_vector(list(out[:, 0]), lay)


def conservative_flux(j: int, U: ConservativeState):
    """Flux vector of the conservation-law form in direction j."""
    lay = U.layout
    m, n = lay.m, lay.n
    if not 1 <= j <= n:
        raise ConfigError(f"direction {j} out of range 1..{n}")
    _guard(np.abs(U.h), "|h|")
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

    msq = _squares(1, U.M)
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
    _guard(np.abs(U.h), "|h|")
    return _squares(1, U.D, U.P, U.M) / (2 * U.h)


def entropy_flux(U: ConservativeState, j: int):
    """Q_j = u . A_j(u) u / (2h^2), u = (1, D, P, M) = W / tau: the entropy flux paired with S = |u|^2 / (2h).

    Read from ``_symmetric_triplets``, never from an assembled matrix.  The diagonal of A_j is
    the advection v_j alone, which gives S P_j / h, and every off-diagonal coupling comes as a
    (p, q), (q, p) pair, so each pair is summed once (p < q) and doubled.
    """
    lay = U.layout
    if not 1 <= j <= lay.n:
        raise ConfigError(f"direction {j} out of range 1..{lay.n}")
    S = entropy(U)  # guards |h| before the divisions below
    u = [1, *U.D, *U.P, *U.M]
    off = 0
    for p, q, slot, sign in _symmetric_triplets(lay.m, lay.n, j):
        if p < q:
            term = u[slot] * u[p] * u[q]
            off = off + term if sign > 0 else off - term
    h = U.h
    return S * U.P[j - 1] / h + off / (h * h)


# ---------------------------------------------------------------------------
# characteristic structure


def char_speeds(W: PrimitiveState, nu):
    """(c, sigma^2): the spectrum of A_nu = sum_j nu_j A_j(W) is {c, c +/- sigma}, for n <= 2.

    c = nu . v and sigma^2 = |nu|^2 tau^2 + sum_alpha (m_{alpha,1} nu_2 - m_{alpha,2} nu_1)^2,
    the sum empty for n = 1: B = A_nu - c I satisfies B (B^2 - sigma^2 I) = 0 for every W, on
    the constraint manifold or off it.  c +/- sigma each have multiplicity m + 1 and c has the
    remaining dim - 2(m + 1).  For n = 3 with m >= 2 the identity fails and the true spectral
    radius is larger, so n >= 3 is refused.  Entries may be scalars or grids; each square is
    x * x, which overflows to inf where a Python float ** 2 would raise.  sigma^2 is returned
    without its square root, so it is a polynomial in W and nu; the callers take the root.
    """
    lay = W.layout
    if lay.n > 2:
        raise ConfigError(f"closed-form characteristic speeds need n <= 2, got n = {lay.n}")
    if len(nu) != lay.n:
        raise ConfigError(f"direction vector must have length {lay.n}")
    c, nn = nu[0] * W.v[0], nu[0] * nu[0]
    for j in range(1, lay.n):
        c, nn = c + nu[j] * W.v[j], nn + nu[j] * nu[j]
    s2 = nn * (W.tau * W.tau)
    if lay.n == 2:
        for a in range(1, lay.m + 1):
            x = W.m_minors[lay.slot((a,), (1,))] * nu[1] - W.m_minors[lay.slot((a,), (2,))] * nu[0]
            s2 = s2 + x * x
    return c, s2


def linear_degeneracy_residual(W: PrimitiveState) -> float:
    """How far both fields of a string (n = 1) are from linear degeneracy, read from A = A_1(W).

    A has the two eigenvalues v + s tau (s = +1, -1), each speed with the constant
    gradient g_s = e_v + s e_tau.  A field is linearly degenerate when g_s is orthogonal
    to its own eigenspace; A is symmetric, so g_s then lies in the other one:
    A g_s = (v - s tau) g_s.  Returns max over s of max |A g_s - (v - s tau) g_s|, which
    is exactly 0 wherever W and the speeds are finite, and NaN where they are not; a
    fault in the flux matrices makes it positive.
    """
    lay = W.layout
    if lay.n != 1:
        raise ConfigError("the linear-degeneracy residual is only available for n = 1")
    A = assemble_A(1, W)
    v = lay.v_slot(1)
    residuals = []
    for s in (1, -1):
        # A g_s from its two columns: a product with the zeros of g_s turns an inf elsewhere in A into NaN
        r = A[:, v] + s * A[:, 0]
        speed = W.v[0] - s * W.tau
        r[v] -= speed
        r[0] -= s * speed
        residuals.append(r)
    return float(np.max(np.abs(residuals)))


def wave_speeds(W: PrimitiveState, nu) -> np.ndarray:
    """Sorted eigenvalues of sum_j nu_j A_j(W); real by symmetry."""
    lay = W.layout
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (lay.n,):
        raise ConfigError(f"direction vector must have length {lay.n}")
    A = np.zeros((lay.state_dim, lay.state_dim))
    for j in range(1, lay.n + 1):
        if nu[j - 1] != 0.0:
            A += nu[j - 1] * np.asarray(assemble_A(j, W), dtype=float)
    return np.sort(np.linalg.eigvalsh(A))
