"""State representations, lifting maps, and constraint-manifold residuals.

Three coordinate systems coexist:

* graph data (F, D) — the gradient F (m x n) of the height functions and its
  conjugate momentum D (length m);
* the conservative tuple U = (h, D, P, M_{A,I});
* the primitive tuple W = (tau, d, v, m_{A,I}) = U / h, the unknown of the
  symmetric system.

All maps work componentwise, so the fields of a state may be scalars or
numpy grids; nothing here allocates per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .minors import (
    ConfigError,
    MinorLayout,
    _dims,
    _rank,
    _rows,
    _sign,
    _squares,
    all_minors,
    enumerate_layout,
    xi,
)

EPS_SINGULAR = 1e-12


class BlowUpError(RuntimeError):
    """A non-finite state or a failed ``_guard`` (|tau|, |h| or det g not above its floor); the CLI exits 3.

    Guards raise with t = nan; ``solver.march`` re-raises with the t of the failing step or row.
    It carries no output: ``solver.run`` hands out each row and snapshot through its callbacks as it takes them.
    """

    def __init__(self, t: float, reason: str = "non-finite state"):
        super().__init__(f"{reason} at t={t:.6g}")
        self.t = t
        self.reason = reason


@dataclass
class PrimitiveState:
    """The symmetric-system unknown (tau, d_alpha, v_i, m_{A,I})."""

    tau: object
    d: object
    v: object
    m_minors: object
    layout: MinorLayout

    def as_vector(self) -> list:
        return [self.tau, *self.d, *self.v, *self.m_minors]

    @classmethod
    def from_vector(cls, vec, layout: MinorLayout) -> "PrimitiveState":
        m, n = layout.m, layout.n
        if len(vec) != layout.state_dim:
            raise ConfigError(f"state vector has length {len(vec)}, expected {layout.state_dim}")
        return cls(vec[0], list(vec[1 : 1 + m]), list(vec[1 + m : 1 + m + n]), list(vec[1 + m + n :]), layout)


@dataclass
class ConservativeState:
    """The conservation-law unknown (h, D_alpha, P_i, M_{A,I})."""

    h: object
    D: object
    P: object
    M: object
    layout: MinorLayout

    def minor_value(self, A, I):
        """M_{A,I}, with the empty pair equal to 1."""
        slot = self.layout.state_slot(A, I)
        return 1 if slot == 0 else self.M[slot - 1 - self.layout.m - self.layout.n]


@dataclass
class ConstraintResiduals:
    """Pointwise distance from the constraint manifold in four groups, each reduced by linf; all zero on lifted data."""

    lam: object
    omega: list
    phi: dict
    psi: dict


def linf(values) -> float:
    """The largest |x| over a group of scalars or arrays: 0.0 for an empty group, NaN when any entry is NaN."""
    return float(np.max([np.max(np.abs(v)) for v in values], initial=0.0))


# ---------------------------------------------------------------------------
# lifting and reconstruction


def _lift_parts(F, D, layout: MinorLayout | None):
    """(rows of F, layout, D, P = F^T D, M = all minors of F), with the layout and the length of D checked against F."""
    rows = _rows(F)
    m, n = _dims(rows)
    if layout is None:
        layout = enumerate_layout(m, n)
    elif (layout.m, layout.n) != (m, n):
        raise ConfigError("layout does not match graph data shape")
    D = list(D)
    if len(D) != m:
        raise ConfigError(f"D has length {len(D)}, expected {m}")
    P = [sum(rows[a][i] * D[a] for a in range(m)) for i in range(n)]
    return rows, layout, D, P, all_minors(rows, layout)


def lift(F, D, layout: MinorLayout | None = None) -> ConservativeState:
    """Lift graph data (F, D) onto the constraint manifold.

    P = F^T D, M = all minors of F, and h = sqrt(1 + |D|^2 + |P|^2 + sum M^2);
    the minor-sum form of xi is used so the lifted point satisfies the
    algebraic constraints to rounding, not just to truncation.
    """
    _, layout, D, P, M = _lift_parts(F, D, layout)
    return ConservativeState(np.sqrt(_squares(1, M, D, P)), D, P, M, layout)


def _guard(value, what, floor=EPS_SINGULAR):
    """BlowUpError unless every entry is above floor (a NaN fails), naming the smallest or first NaN and its grid index."""
    if not np.min(value) > floor:
        worst = np.unravel_index(np.argmin(value), np.shape(value))
        at = f" at grid index {[int(i) for i in worst]}" if worst else ""
        raise BlowUpError(float("nan"), f"min {what} = {float(np.asarray(value)[worst]):.6g}{at}")


def _nonfinite_reason(a: np.ndarray, where: str, names=None) -> str:
    """Names the first non-finite value of a (component, *grid) array: its component and grid index."""
    c, *point = (int(i) for i in np.unravel_index(np.flatnonzero(~np.isfinite(a))[0], a.shape))
    return f"non-finite state in {where}: {names[c] if names else f'component {c}'} at grid index {point}"


def to_primitive(U: ConservativeState) -> PrimitiveState:
    """W = U / h."""
    _guard(np.abs(U.h), "|h|")
    h = U.h
    return PrimitiveState(1 / h, [x / h for x in U.D], [x / h for x in U.P], [x / h for x in U.M], U.layout)


def to_conservative(W: PrimitiveState) -> ConservativeState:
    """U = W / tau."""
    _guard(np.abs(W.tau), "|tau|")
    t = W.tau
    return ConservativeState(1 / t, [x / t for x in W.d], [x / t for x in W.v], [x / t for x in W.m_minors], W.layout)


def reconstruct_graph(W: PrimitiveState) -> tuple[list, list]:
    """Recover (F, D) from a primitive state: F_{ai} = m_{ai}/tau, D = d/tau."""
    _guard(np.abs(W.tau), "|tau|")
    lay = W.layout
    F = [
        [W.m_minors[lay.slot((a,), (i,))] / W.tau for i in range(1, lay.n + 1)]
        for a in range(1, lay.m + 1)
    ]
    return F, [x / W.tau for x in W.d]


# ---------------------------------------------------------------------------
# constraint residuals


def _residual_core(tau, d, v, mm, layout: MinorLayout, one) -> ConstraintResiduals:
    m, n, r = layout.m, layout.n, layout.r

    def mval(a: tuple, i: tuple):
        return tau if not a else mm[layout.index_of[(a, i)]]

    lam = _squares(tau * tau - one, v, d, mm) / 2

    omega = []
    for i in range(1, n + 1):
        acc = tau * v[i - 1]
        for a in range(1, m + 1):
            acc = acc - mval((a,), (i,)) * d[a - 1]
        omega.append(acc)

    def incidence(p, q, val):
        """phi^alpha_{A,I} of the p x q minors val(A, I), expanded along the columns I: keyed (A, I, alpha)."""
        out = {}
        for k in range(1, min(q, r + 1) + 1):
            for A in combinations(range(1, p + 1), k - 1):
                for I in combinations(range(1, q + 1), k):
                    for alpha in range(1, p + 1):
                        sa = _rank(A, alpha)
                        acc = 0
                        for i in I:
                            s = _sign(sa + _rank(I, i))
                            acc = acc + s * val(A, tuple(x for x in I if x != i)) * val((alpha,), (i,))
                        if alpha not in A and k <= r:
                            acc = acc - tau * val(tuple(sorted(A + (alpha,))), I)
                        out[(A, I, alpha)] = acc
        return out

    phi = incidence(m, n, mval)
    # psi^i_{A,I} is phi read on the transposed minors m^T_{I,A} = m_{A,I}, re-keyed from (I, A, i)
    psi = {(A, I, i): x for (I, A, i), x in incidence(n, m, lambda a, i: mval(i, a)).items()}
    return ConstraintResiduals(lam, omega, phi, psi)


def constraint_residuals(W: PrimitiveState) -> ConstraintResiduals:
    """lambda, omega_i, phi^alpha_{A,I}, psi^i_{A,I} of a primitive state.

    phi expands the minors along their columns I and psi along their rows A;
    psi is phi read on the transposed minors m^T_{I,A} = m_{A,I}, one walk.
    Out-of-range minor references (rank above r) are dropped, which is where
    the indicator factors in the definitions become unsatisfiable; the empty
    pair contributes tau throughout.
    """
    return _residual_core(W.tau, W.d, W.v, W.m_minors, W.layout, 1)


def lifted_residuals_scaled(F, D, layout: MinorLayout | None = None) -> ConstraintResiduals:
    """Constraint residuals of lift(F, D), scaled by h^2.

    With rational F and D every returned quantity is an exact rational and
    must be exactly zero; the lambda slot uses the determinant form of xi, so
    it genuinely retests the polyconvexity identity rather than the lift's
    own bookkeeping.
    """
    rows, layout, D, P, M = _lift_parts(F, D, layout)
    return _residual_core(1, D, P, M, layout, _squares(xi(rows), D, P))
