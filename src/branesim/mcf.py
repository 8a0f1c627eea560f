"""Mean curvature flow and the quadratic-change-of-time limit.

The short-time limit identifies the initial height acceleration of a
velocity-free extremal graph with the mean-curvature velocity of its time
slice.  ``acceleration_limit_test`` measures exactly that: it evolves the
lifted data a few steps, forms the discrete acceleration, and compares
against the mean-curvature velocity expressed in the same graph gauge.

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
    """One stabilised IMEX midpoint step of X' = V(X), second order in dtheta.

    L is the flat Laplacian with the Fourier symbol -sum_j (sin(k_j dx_j) / dx_j)^2
    of the composed central difference, and c the largest g^-1 (trace g^ij for
    n = 2) at X, so c L dominates the stiff part of V.  With A = I - dtheta c L / 2:

        A (Y - X)  = dtheta / 2 V(X)
        A (X+ - X) = dtheta V(Y) - dtheta c L (Y - X)

    which is explicit midpoint plus an O(dtheta^3) stabilisation that damps
    every mode the stencil sees (Chen & Shen, Comput. Phys. Commun. 108, 1998).
    Both solves are diagonal in rfftn over the grid axes.
    """
    grid = E.grid
    _, _, ginv = induced_metric(E)
    c = float(np.max(np.einsum("ii...->...", ginv)))
    lap = 0.0
    for j, (size, dx) in enumerate(zip(grid.sizes, grid.spacing)):
        freq = np.fft.rfftfreq(size) if j == grid.n - 1 else np.fft.fftfreq(size)
        lap = np.add.outer(lap, -((np.sin(2 * np.pi * freq) / dx) ** 2))
    stiff = dtheta * c * lap
    solve = 1.0 / (1.0 - 0.5 * stiff)
    axes = tuple(range(1, 1 + grid.n))
    half = np.fft.rfftn(0.5 * dtheta * mcf_velocity(E), axes=axes) * solve
    Y = EmbeddingField(grid, E.X + np.fft.irfftn(half, grid.sizes, axes=axes), E.linear)
    full = (np.fft.rfftn(dtheta * mcf_velocity(Y), axes=axes) - stiff * half) * solve
    Xn = E.X + np.fft.irfftn(full, grid.sizes, axes=axes)
    if not np.all(np.isfinite(Xn)):
        raise BlowUpError(float("nan"))
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


def acceleration_limit_test(grid: Grid, m: int, x_modes, dt: float, *, cfl: float = 0.4) -> float:
    """Linf error between the discrete initial acceleration and the MCF velocity.

    Evolves velocity-free graph data (m heights built from ``x_modes``) and the
    heights in at least two substeps within the CFL bound, and forms a_disc =
    2 (X(dt) - X(0)) / dt^2; with V = 0 the trajectory is even in t, so the
    error is O(dt^2) plus the stencil contribution.
    """
    fld, (F0, D0), u0 = initial_fields(grid, m, x_modes, [])
    if float(np.max(np.abs(D0))) != 0.0:
        raise ConfigError("acceleration limit requires velocity-free initial data")
    dim = fld.layout.state_dim

    def rhs(y):
        wfld = GridField(grid, fld.layout, y[:dim])
        return np.concatenate([_solver.rhs_augmented(wfld), _height_velocity(wfld)])

    y0 = np.concatenate([fld.values, u0], axis=0)
    y = _solver.march(y0, dt, _solver.cfl_dt(fld, cfl), lambda y, h: _solver.rk4_step(y, h, rhs), min_steps=2)

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


def shrinking_circle_radii(points: int, radius: float, theta_end: float, step_factor: float = 0.1):
    """Flow a circle under MCF to theta_end; returns (thetas, radii) from theta = 0 on.

    The steps are at most step_factor * ds * radius, with the arclength spacing
    ds = radius * du and radius the period over 2 pi, so they scale as radius^2.
    """
    E = circle_embedding(points, radius)
    dtheta_max = step_factor * (radius * E.grid.spacing[0]) * radius
    rows = []
    _solver.march(E, theta_end, dtheta_max, mcf_step, after=lambda k, t, E: rows.append((t, mean_radius(E))))
    return tuple(np.array(rows).T)


def graph_amplitude_decay(grid: Grid, m: int, x_modes, theta_end: float, step_factor: float = 0.1):
    """Flow the graph of m heights under MCF to theta_end; returns (thetas, max |heights|).

    The steps are at most step_factor * min_j dx_j L_j / (2 pi), the rule of the circle.
    """
    u, _ = fourier_series(x_modes, grid, m)
    E = EmbeddingField.from_graph(grid, u)
    dtheta_max = step_factor * min(dx * length / (2 * np.pi) for dx, length in zip(grid.spacing, grid.lengths))
    rows = []
    _solver.march(E, theta_end, dtheta_max, mcf_step, after=lambda k, t, E: rows.append((t, np.max(np.abs(E.X[-m:])))))
    return tuple(np.array(rows).T)
