"""Mean curvature flow and the quadratic-change-of-time limit.

The short-time limit identifies the initial height acceleration of a
velocity-free extremal graph with the mean-curvature velocity of its time
slice.  ``acceleration_limit_test`` measures exactly that: it evolves the
lifted data a few steps, forms the discrete acceleration, and compares
against the mean-curvature velocity expressed in the same graph gauge.
Both it and the graph flow take initial data the caller has built once.

The raw mean-curvature velocity moves points tangentially as well as
normally; only after removing the tangential reparametrization do the two
motions coincide, so the comparison subtracts it explicitly.

The reference flows (a shrinking circle and a decaying graph) take
``mcf_step``, a stabilised IMEX midpoint step that is second order in theta
and whose size scales with the grid spacing rather than its square, in the
equal steps of ``solver.march``, the time loop of ``simulate`` and of the
acceleration substeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import solver as _solver
from .minors import _adjugate, _det
from .solver import BlowUpError, ConfigError, Grid, GridField, derivative
from .state import _guard, _nonfinite_reason, linf


@dataclass
class EmbeddingField:
    """An immersed n-manifold sampled on a periodic parameter grid.

    ``X`` holds the periodic part of the ambient components, shape
    (ncomp, *sizes): the embedding minus the ramp ``linear . x``.  ``linear``
    is the constant gradient of the non-periodic part (for graphs, the
    identity block of the base coordinates), so stencils act on X directly
    and wraparound never sees the coordinate jump.
    """

    grid: Grid
    X: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.linear = np.asarray(self.linear, dtype=float)
        if self.X.shape[1:] != self.grid.sizes:
            raise ConfigError(f"embedding values have shape {self.X.shape}, grid is {self.grid.sizes}")
        if self.linear.shape != (self.X.shape[0], self.grid.n):
            raise ConfigError("linear part must have shape (ncomp, n)")

    @property
    def ncomp(self) -> int:
        return self.X.shape[0]

    @classmethod
    def from_graph(cls, grid: Grid, heights: np.ndarray) -> "EmbeddingField":
        """Graph embedding (x, u(x)); the base coordinates are all ramp, so their rows are zero."""
        heights = np.atleast_2d(np.asarray(heights, dtype=float))
        m = heights.shape[0]
        X = np.concatenate([np.zeros((grid.n, *grid.sizes)), heights], axis=0)
        linear = np.zeros((grid.n + m, grid.n))
        linear[: grid.n, : grid.n] = np.eye(grid.n)
        return cls(grid, X, linear)

    @classmethod
    def from_closed_curve(cls, grid: Grid, points: np.ndarray) -> "EmbeddingField":
        """Fully periodic embedding, e.g. a closed curve in the plane."""
        points = np.asarray(points, dtype=float)
        return cls(grid, points, np.zeros((points.shape[0], grid.n)))

    def gradients(self) -> np.ndarray:
        """d_i of the embedding, shape (ncomp, n, *sizes): stencil of X plus the ramp, built in place."""
        out = np.empty((self.ncomp, self.grid.n, *self.grid.sizes))
        for j in range(self.grid.n):
            derivative(self.X, self.grid, j, out=out[:, j])
            out[:, j] += self.linear[:, j].reshape((-1,) + (1,) * self.grid.n)
        return out


def induced_metric(dX: np.ndarray):
    """(g_ij, det g, g^ij) per point of dX (ncomp, n, *sizes).

    det g and the adjugate behind g^-1 = adj g / det g come from ``minors``, whose
    determinant side ``verify`` checks exactly.  BlowUpError (``state._guard``) unless
    det g is above 0 at every point, so a NaN fails too.
    """
    g = np.einsum("ci...,cj...->ij...", dX, dX)
    detg = _det(g)
    _guard(detg, "det g", 0.0)
    return g, detg, np.array(_adjugate(g)) / detg


def _divergence(dX: np.ndarray, grid: Grid, metric=None) -> np.ndarray:
    """Discrete (1/sqrt g) d_i (sqrt g g^ij d_j X) from dX, shape (ncomp, *sizes).

    ``metric`` is induced_metric(dX) when the caller already has it.
    """
    _, detg, ginv = induced_metric(dX) if metric is None else metric
    sq = np.sqrt(detg)
    vel = np.zeros((dX.shape[0], *grid.sizes))
    for i in range(grid.n):
        flux = sq * np.einsum("j...,cj...->c...", ginv[i], dX)
        vel += derivative(flux, grid, i)
    return vel / sq


def mcf_velocity(E: EmbeddingField) -> np.ndarray:
    """Discrete (1/sqrt g) d_i (sqrt g g^ij d_j X), shape (ncomp, *sizes)."""
    return _divergence(E.gradients(), E.grid)


def tangency_residual(E: EmbeddingField) -> float:
    """Linf over points and directions of <mcf velocity, d_i X>."""
    dX = E.gradients()
    vel = _divergence(dX, E.grid)
    return linf(np.einsum("c...,c...->...", vel, dX[:, i]) for i in range(E.grid.n))


@lru_cache(maxsize=8)
def _spectral_plan(grid: Grid):
    """mcf_step's per-grid plan (symbol, forward, inverse), built on first use.

    symbol is the Fourier symbol -sum_j (sin(k_j dx_j) / dx_j)^2 of L on rfftn's half
    spectrum, read-only since every step shares it.  forward and inverse are rfftn and
    irfftn (to the grid's sizes) over the grid axes of a (ncomp, *sizes) array; on a 1-d
    grid they are rfft and irfft, which is what rfftn and irfftn do on one axis, without
    their per-call argument handling.
    """
    symbol = 0.0
    for j, (size, dx) in enumerate(zip(grid.sizes, grid.spacing)):
        freq = np.fft.rfftfreq(size) if j == grid.n - 1 else np.fft.fftfreq(size)
        symbol = np.add.outer(symbol, -((np.sin(2 * np.pi * freq) / dx) ** 2))
    symbol.flags.writeable = False
    if grid.n == 1:
        return symbol, partial(np.fft.rfft, axis=1), partial(np.fft.irfft, n=grid.sizes[0], axis=1)
    axes = tuple(range(1, 1 + grid.n))
    return symbol, partial(np.fft.rfftn, axes=axes), partial(np.fft.irfftn, s=grid.sizes, axes=axes)


def mcf_step(E: EmbeddingField, dtheta: float) -> EmbeddingField:
    """One stabilised IMEX midpoint step of X' = V(X), second order in dtheta.

    L is the flat Laplacian with the Fourier symbol -sum_j (sin(k_j dx_j) / dx_j)^2
    of the composed central difference, and c the largest g^-1 (trace g^ij for
    n = 2) at X, so c L dominates the stiff part of V.  With A = I - dtheta c L / 2:

        A (Y - X)  = dtheta / 2 V(X)
        A (X+ - X) = dtheta V(Y) - dtheta c L (Y - X)

    which is explicit midpoint plus an O(dtheta^3) stabilisation that damps
    every mode the stencil sees (Chen & Shen, Comput. Phys. Commun. 108, 1998).
    Both solves are diagonal in rfftn over the grid axes, with the grid's
    ``_spectral_plan``; c and V(X) share one evaluation of the gradients and the
    metric of X.  A non-finite result raises BlowUpError naming its first
    non-finite component and grid index.
    """
    grid = E.grid
    lap, forward, inverse = _spectral_plan(grid)
    dX = E.gradients()
    metric = induced_metric(dX)
    c = float(np.max(np.einsum("ii...->...", metric[2])))
    stiff = dtheta * c * lap
    solve = 1.0 / (1.0 - 0.5 * stiff)
    half = forward(0.5 * dtheta * _divergence(dX, grid, metric)) * solve
    Y = EmbeddingField(grid, E.X + inverse(half), E.linear)
    full = (forward(dtheta * mcf_velocity(Y)) - stiff * half) * solve
    Xn = E.X + inverse(full)
    if not np.all(np.isfinite(Xn)):
        raise BlowUpError(float("nan"), _nonfinite_reason(Xn, "the MCF step"))
    return EmbeddingField(grid, Xn, E.linear)


# ---------------------------------------------------------------------------
# the short-time limit


def graph_gauge_velocity(grid: Grid, F0: np.ndarray) -> np.ndarray:
    """Mean-curvature velocity of a graph slice, expressed in the graph gauge.

    ``F0`` holds the height gradients (m, n, *sizes); they enter the metric
    directly instead of being re-differenced, so this reference shares its
    pointwise data with a solver field lifted from the same analytic modes.
    The tangential part of the raw velocity is removed by the substitution
    w_alpha <- w_{n+alpha} - sum_k w_k F0[alpha, k].
    """
    m, n = F0.shape[0], F0.shape[1]
    dX = np.empty((n + m, n, *grid.sizes))
    for j in range(n):
        for k in range(n):
            dX[k, j] = 1.0 if j == k else 0.0
        dX[n:, j] = F0[:, j]
    w = _divergence(dX, grid)
    out = w[n:]
    for alpha in range(m):
        for k in range(n):
            out[alpha] -= w[k] * F0[alpha, k]
    return out


def _height_velocity(fld: GridField) -> np.ndarray:
    """d_t X of the heights implied by the evolution, -(d + m v / tau)."""
    lay = fld.layout
    tau = fld.values[0]
    out = np.empty((lay.m, *fld.grid.sizes))
    for a in range(1, lay.m + 1):
        acc = fld.values[lay.d_slot(a)].copy()
        for i in range(1, lay.n + 1):
            acc += fld.values[lay.state_slot((a,), (i,))] * fld.values[lay.v_slot(i)] / tau
        out[a - 1] = -acc
    return out


def acceleration_limit_test(data, dt_values, cfl: float) -> list[float]:
    """Linf error between the discrete initial acceleration and the MCF velocity, per dt.

    ``data`` is the (W field, (F0, D0), heights) of ``solver.initial_fields``
    for velocity-free graph data.  For each dt the field and the heights
    evolve in at least two substeps within the CFL bound, and a_disc =
    2 (X(dt) - X(0)) / dt^2; with V = 0 the trajectory is even in t, so the
    error is O(dt^2) plus the stencil contribution.
    """
    fld, (F0, D0), u0 = data
    if float(np.max(np.abs(D0))) != 0.0:
        raise ConfigError("acceleration limit requires velocity-free initial data")
    grid, dim = fld.grid, fld.layout.state_dim

    def rhs(y, out):
        wfld = GridField(grid, fld.layout, y[:dim])
        _solver.rhs_augmented(wfld, out[:dim])
        out[dim:] = _height_velocity(wfld)
        return out

    names = _solver._component_names(fld.layout) + [f"u_{a}" for a in range(1, fld.layout.m + 1)]

    def step(y, h):
        return _solver.rk4_step(y, h, rhs, names=names)

    y0 = np.concatenate([fld.values, u0], axis=0)
    dt_max = _solver.cfl_dt(fld, cfl)
    w_g = graph_gauge_velocity(grid, F0)
    errors = []
    for dt in dt_values:
        y = _solver.march(y0, dt, dt_max, step, min_steps=2)
        errors.append(float(np.max(np.abs(2.0 * (y[dim:] - u0) / dt**2 - w_g))))
    return errors


# ---------------------------------------------------------------------------
# reference solutions used by the comparison runs


def circle_embedding(points: int, radius: float) -> EmbeddingField:
    grid = Grid((points,), (2 * np.pi,))
    u = grid.axes()[0]
    X = np.stack([radius * np.cos(u), radius * np.sin(u)])
    return EmbeddingField.from_closed_curve(grid, X)


def mean_radius(E: EmbeddingField) -> float:
    return float(np.mean(np.sqrt(np.sum(E.X**2, axis=0))))


def shrinking_circle_radii(points: int, radius: float, theta_end: float, step_factor: float):
    """Flow a circle under MCF to theta_end; returns (thetas, radii) from theta = 0 on.

    The steps are at most step_factor * ds * radius, with the arclength spacing
    ds = radius * du and radius the period over 2 pi, so they scale as radius^2.
    ConfigError when they are longer than the (radius^2 - 2 theta_end) / 2 left
    from theta_end to the collapse, which one step would overshoot.
    """
    E = circle_embedding(points, radius)
    dtheta_max = step_factor * (radius * E.grid.spacing[0]) * radius
    _, dtheta = _solver.plan_steps(theta_end, dtheta_max)
    left = (radius * radius - 2.0 * theta_end) / 2.0
    if dtheta > left:
        raise ConfigError(
            f"steps of {dtheta:.6g} are longer than the {left:.6g} from the end time to the circle's collapse"
        )
    rows = []
    _solver.march(E, theta_end, dtheta_max, mcf_step, after=lambda k, t, E: rows.append((t, mean_radius(E))))
    return tuple(np.array(rows).T)


def graph_amplitude_decay(E: EmbeddingField, theta_end: float, step_factor: float):
    """Flow the graph embedding E under MCF to theta_end; returns (thetas, max |heights|).

    The heights are the rows of E.X after the n base coordinates.  The steps
    are at most step_factor * min_j dx_j L_j / (2 pi), the rule of the circle.
    """
    grid = E.grid
    dtheta_max = step_factor * min(dx * length / (2 * np.pi) for dx, length in zip(grid.spacing, grid.lengths))
    rows = []
    _solver.march(E, theta_end, dtheta_max, mcf_step, after=lambda k, t, E: rows.append((t, np.max(np.abs(E.X[grid.n :])))))
    return tuple(np.array(rows).T)
