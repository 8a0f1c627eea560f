"""Mean curvature flow and the quadratic-change-of-time limit.

The short-time limit identifies the initial height acceleration of a
velocity-free extremal graph with the mean-curvature velocity of its time
slice.  ``acceleration_limit_test`` measures exactly that: it evolves the
lifted data a few steps, forms the discrete acceleration, and compares
against the mean-curvature velocity expressed in the same graph gauge.

The raw mean-curvature velocity moves points tangentially as well as
normally; only after removing the tangential reparametrization do the two
motions coincide, so the comparison subtracts it explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .solver import BlowUpError, ConfigError, Grid, GridField, derivative, fourier_series, initial_fields


class DegenerateMetricError(ValueError):
    """The induced metric lost positive definiteness."""


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
        """d_i of the embedding, shape (ncomp, n, *sizes): stencil of X plus the ramp."""
        out = np.empty((self.ncomp, self.grid.n, *self.grid.sizes))
        for j in range(self.grid.n):
            out[:, j] = derivative(self.X, self.grid, j) + self.linear[:, j].reshape((-1,) + (1,) * self.grid.n)
        return out


def _metric_from_gradients(dX: np.ndarray):
    n = dX.shape[1]
    g = np.einsum("ci...,cj...->ij...", dX, dX)
    if n == 1:
        detg = g[0, 0]
    elif n == 2:
        detg = g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
    else:
        raise ConfigError("induced metric supports n = 1 and n = 2 only")
    if np.min(detg) <= 0.0:
        raise DegenerateMetricError(f"min det g = {np.min(detg):.6g}")
    if n == 1:
        return g, detg, (1.0 / detg)[None, None]
    ginv = np.empty_like(g)
    ginv[0, 0] = g[1, 1] / detg
    ginv[1, 1] = g[0, 0] / detg
    ginv[0, 1] = ginv[1, 0] = -g[0, 1] / detg
    return g, detg, ginv


def induced_metric(E: EmbeddingField):
    """(g_ij, det g, g^ij) per point; raises if the metric degenerates."""
    return _metric_from_gradients(E.gradients())


def _divergence(dX: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete (1/sqrt g) d_i (sqrt g g^ij d_j X) from dX, shape (ncomp, *sizes)."""
    g, detg, ginv = _metric_from_gradients(dX)
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
    vel = mcf_velocity(E)
    worst = 0.0
    for i in range(E.grid.n):
        worst = max(worst, float(np.max(np.abs(np.einsum("c...,c...->...", vel, dX[:, i])))))
    return worst


def mcf_step(E: EmbeddingField, dtheta: float) -> EmbeddingField:
    """One explicit Euler step X <- X + dtheta * velocity."""
    Xn = E.X + dtheta * mcf_velocity(E)
    if not np.all(np.isfinite(Xn)):
        raise BlowUpError(float("nan"))
    return EmbeddingField(E.grid, Xn, E.linear)


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


def acceleration_limit_test(grid: Grid, m: int, x_modes, dt: float, *, cfl: float = 0.4) -> float:
    """Linf error between the discrete initial acceleration and the MCF velocity.

    Starts the augmented evolution from velocity-free graph data (m heights
    built from ``x_modes``), carries the heights alongside the state, and forms a_disc = 2 (X(dt) - X(0)) / dt^2;
    with V = 0 the trajectory is even in t, so the error is O(dt^2) plus the
    stencil contribution.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    fld, (F0, D0), u0 = initial_fields(grid, m, x_modes, [])
    if float(np.max(np.abs(D0))) != 0.0:
        raise ConfigError("acceleration limit requires velocity-free initial data")
    lay = fld.layout
    dim = lay.state_dim

    substeps = max(2, math.ceil(dt / _solver.cfl_dt(fld, cfl)))
    dts = dt / substeps

    def rhs(y):
        wfld = GridField(grid, lay, y[:dim])
        out = np.empty_like(y)
        out[:dim] = _solver.rhs_augmented(wfld)
        out[dim:] = _height_velocity(wfld)
        return out

    y = np.concatenate([fld.values, u0], axis=0)
    for k in range(1, substeps + 1):
        try:
            y = _solver.rk4_step(y, dts, rhs)
        except BlowUpError:
            raise BlowUpError(k * dts) from None

    a_disc = 2.0 * (y[dim:] - u0) / dt**2
    w_g = graph_gauge_velocity(grid, F0)
    return float(np.max(np.abs(a_disc - w_g)))


# ---------------------------------------------------------------------------
# reference solutions used by the comparison runs


def circle_embedding(points: int, radius: float) -> EmbeddingField:
    grid = Grid((points,), (2 * np.pi,))
    u = grid.axes()[0]
    X = np.stack([radius * np.cos(u), radius * np.sin(u)])
    return EmbeddingField.from_closed_curve(grid, X)


def mean_radius(E: EmbeddingField) -> float:
    return float(np.mean(np.sqrt(np.sum(E.X**2, axis=0))))


def _march(E: EmbeddingField, theta_end: float, dtheta: float, measure):
    """Explicit MCF march at step dtheta up to theta_end.

    Returns (thetas, measure(E) at each theta), both including theta = 0.
    """
    thetas = [0.0]
    values = [measure(E)]
    steps = math.ceil(theta_end / dtheta)
    for k in range(1, steps + 1):
        try:
            E = mcf_step(E, dtheta)
        except BlowUpError:
            raise BlowUpError(k * dtheta) from None
        thetas.append(k * dtheta)
        values.append(measure(E))
        if thetas[-1] >= theta_end:
            break
    return np.array(thetas), np.array(values)


def shrinking_circle_radii(points: int, radius: float, theta_end: float, step_factor: float = 0.1):
    """March a circle under MCF; returns (thetas, radii) including theta = 0.

    The explicit step is stable for dtheta up to a multiple of the squared
    arclength spacing, radius * du, so the step scales with the radius too.
    """
    E = circle_embedding(points, radius)
    ds = radius * E.grid.spacing[0]
    dtheta = step_factor * ds * ds
    return _march(E, theta_end, dtheta, mean_radius)


def graph_amplitude_decay(grid: Grid, m: int, x_modes, theta_end: float, step_factor: float = 0.1):
    """March the graph of m heights under MCF; returns (thetas, max |heights|)."""
    u, _ = fourier_series(x_modes, grid, m)
    E = EmbeddingField.from_graph(grid, u)
    dtheta = step_factor * min(grid.spacing) ** 2
    return _march(E, theta_end, dtheta, lambda E: float(np.max(np.abs(E.X[grid.n :]))))
