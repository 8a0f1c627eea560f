"""Periodic-grid method-of-lines evolution and diagnostics.

Two evolutions share only the grid and stencil code:

* the augmented path evolves the primitive field W with the symmetric-system
  right-hand side;
* the oracle path evolves the original graph unknowns (F, D), with xi and its
  gradient from one ``minors.xi_prime`` call: the determinant and adjugate of
  one I + F^T F, the call that ``verify`` checks against the minor sums, and
  never the minors themselves.

Diagnostics track the energy, the entropy-law residual, the constraint
residuals, sigma (the lifted integrability constraint), and the
augmented-versus-oracle discrepancy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain, combinations, pairwise

import numpy as np

from . import flux as _flux
from .minors import ConfigError, MinorLayout, _rank, _sign, enumerate_layout, xi, xi_prime
from .minors import _adjugate, _gram_plus_identity, _rows
from .state import (
    EPS_SINGULAR,
    BlowUpError,
    GraphData,
    PrimitiveState,
    _guard,
    constraint_residuals,
    lift,
    reconstruct_graph,
    to_conservative,
    to_primitive,
)


# ---------------------------------------------------------------------------
# grid and fields


# the most points one grid holds (1024^2): a run's peak arrays, about ten full states
# of at most 15 rows (m = 3, n = 2), then take about 1.2 GiB; MAX_STEPS bounds the steps
MAX_POINTS = 2**20


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1 or 2 spatial dimensions, of at most MAX_POINTS points."""

    sizes: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        if len(self.sizes) != len(self.lengths):
            raise ConfigError("sizes and lengths must have equal length")
        if not 1 <= len(self.sizes) <= 2:
            raise ConfigError("only 1 or 2 spatial dimensions are supported")
        if any(s < 8 for s in self.sizes):
            raise ConfigError("grids need at least 8 points per axis")
        if math.prod(self.sizes) > MAX_POINTS:
            raise ConfigError(f"a grid of {math.prod(self.sizes)} points exceeds the budget of {MAX_POINTS}")
        if any(not math.isfinite(x) or x <= 0 for x in self.lengths):
            raise ConfigError("domain lengths must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(x / s for x, s in zip(self.lengths, self.sizes))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axes(self) -> list[np.ndarray]:
        return [np.arange(s) * d for s, d in zip(self.sizes, self.spacing)]

    def coordinates(self) -> np.ndarray:
        """Coordinate arrays, shape (n, *sizes)."""
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"))


@dataclass
class GridField:
    """A primitive state sampled on every grid point; values (dim, *sizes)."""

    grid: Grid
    layout: MinorLayout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.layout.state_dim, *self.grid.sizes)
        if self.values.shape != expected:
            raise ConfigError(f"field has shape {self.values.shape}, expected {expected}")

    def state_view(self) -> PrimitiveState:
        """A PrimitiveState whose components are grid arrays (shared storage)."""
        return PrimitiveState.from_vector(self.values, self.layout)

    def copy(self) -> "GridField":
        return GridField(self.grid, self.layout, self.values.copy())


# ---------------------------------------------------------------------------
# stencils


def derivative(values: np.ndarray, grid: Grid, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order central difference along spatial axis (0-based) with periodic wrap.

    Acts on the trailing grid axes, so leading component axes pass through.
    Written into ``out`` (shaped like ``values``, not sharing its memory) when
    given, else into a new array; returns it.
    """
    if axis < 0 or axis >= grid.n:
        raise ConfigError(f"axis {axis} out of range for {grid.n}-d grid")
    if out is None:
        out = np.empty(values.shape, np.result_type(values, 1.0))
    lead = (slice(None),) * (values.ndim - grid.n + axis)

    def at(start, stop=None):
        return lead + (slice(start, stop),)

    # interior points, then the two rows that wrap, all as slices so 1-d rows stay arrays
    np.subtract(values[at(2)], values[at(None, -2)], out=out[at(1, -1)])
    np.subtract(values[at(1, 2)], values[at(-1)], out=out[at(None, 1)])
    np.subtract(values[at(None, 1)], values[at(-2, -1)], out=out[at(-1)])
    out /= 2 * grid.spacing[axis]
    return out


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_augmented(fld: GridField, out: np.ndarray | None = None) -> np.ndarray:
    """d_t W on the whole grid; the pointwise term table applied with stencils.

    Written into ``out`` (shaped like ``fld.values``, not sharing its memory)
    when given, else into a new array; returns it.  The n gradients live in one
    array for the call only.
    """
    grads = np.empty((fld.grid.n, *fld.values.shape))
    for j in range(fld.grid.n):
        derivative(fld.values, fld.grid, j, out=grads[j])
    if out is None:
        out = np.empty_like(fld.values)
    out.fill(0.0)
    return _flux.apply_terms(fld.layout, fld.values, grads, out)


def rhs_original(F: np.ndarray, D: np.ndarray, grid: Grid, out=None):
    """d_t (F, D) of the original graph system on the grid.

    Written into ``out = (dF, dD)``, arrays shaped like F and D, when given,
    else into new arrays; returns the pair.
    """
    m, n = F.shape[0], F.shape[1]
    if n != grid.n:
        raise ConfigError("F shape does not match grid dimension")
    P = np.einsum("ai...,a...->i...", F, D)
    xi_F, _, xp = xi_prime(F)
    h = np.sqrt(np.sum(D * D, axis=0) + np.sum(P * P, axis=0) + xi_F)
    dF, dD = (np.empty_like(F), np.empty_like(D)) if out is None else out
    dD.fill(0.0)
    for alpha in range(m):
        base_h = (D[alpha] + np.einsum("j...,j...->...", F[alpha], P)) / h
        for i in range(n):
            np.negative(derivative(base_h, grid, i, out=dF[alpha, i]), out=dF[alpha, i])
            dD[alpha] -= derivative((D[alpha] * P[i] + xp[alpha][i]) / h, grid, i)
    return dF, dD


def _rk4_stages(y: np.ndarray, dt: float, rhs, acc: np.ndarray, k: np.ndarray, out: np.ndarray):
    """The classical four-stage Runge-Kutta update of y into out, one stage per iteration.

    Yields (stage, its state, its slope) after each evaluation of rhs(state, slope); when
    exhausted, out holds y + (dt/6) (k1 + 2 k2 + 2 k3 + k4), summed in that order.  acc, k
    and out are buffers shaped like y; out doubles as the stage state.
    """
    rhs(y, acc)
    yield 1, y, acc
    prev = acc
    for stage, c in ((2, 0.5), (3, 0.5), (4, 1.0)):
        np.multiply(prev, c * dt, out=out)
        np.add(y, out, out=out)
        if stage > 2:
            k *= 2.0
            acc += k
        rhs(out, k)
        yield stage, out, k
        prev = k
    acc += k
    acc *= dt / 6.0
    np.add(y, acc, out=out)


def _blowup_reason(y: np.ndarray, dt: float, rhs, names) -> str:
    """Replays a step from y on fresh buffers; names its first non-finite stage, component and grid index."""
    where, bufs = "the update", (np.empty_like(y), np.empty_like(y), np.empty_like(y))
    for stage, state, slope in _rk4_stages(y, dt, rhs, *bufs):
        bad = next((a for a in (state, slope) if not np.all(np.isfinite(a))), None)
        if bad is not None:
            where = f"RK stage {stage}"
            break
    else:
        bad = bufs[2]
    c, *point = (int(i) for i in np.unravel_index(np.flatnonzero(~np.isfinite(bad))[0], bad.shape))
    return f"non-finite state in {where}: {names[c] if names else f'component {c}'} at grid index {point}"


def rk4_step(y: np.ndarray, dt: float, rhs, out=None, work=None, names=None) -> np.ndarray:
    """Classical four-stage Runge-Kutta update; returns y + (dt/6) (k1 + 2 k2 + 2 k3 + k4).

    ``rhs(state, slope)`` writes d_t state into ``slope``.  The result goes into ``out``,
    which doubles as the stage state, and the slopes into ``work = (acc, k)``; each is a
    buffer shaped like y that does not share its memory, allocated when not given, so a
    caller that keeps them across steps allocates nothing per step.  y is only read.  A
    non-finite result raises BlowUpError naming the first RK stage, component (its name
    in ``names``, else its index) and grid index that went non-finite.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    acc, k = work if work is not None else (np.empty_like(y), np.empty_like(y))
    out = np.empty_like(y) if out is None else out
    for _ in _rk4_stages(y, dt, rhs, acc, k, out):
        pass
    if not np.all(np.isfinite(out)):
        raise BlowUpError(float("nan"), _blowup_reason(y, dt, rhs, names))
    return out


def max_wave_speed(fld: GridField) -> float:
    """Largest |eigenvalue| of the flux matrices over grid points and axes: max_j |v_j| + sigma_j.

    The spectrum of A_j(W) is {v_j, v_j +/- sigma_j}, from ``flux.char_speeds`` along
    nu = e_j; it needs n <= 2, which Grid enforces.
    """
    W = fld.state_view()
    n = W.layout.n
    smax = 0.0
    for j in range(n):
        c, sigma = _flux.char_speeds(W, [float(i == j) for i in range(n)])
        smax = max(smax, float(np.max(np.abs(c) + sigma)))
    return smax


def cfl_dt(fld: GridField, cfl: float) -> float:
    """dt = cfl * min(dx) / s_max, falling back to cfl * min(dx) for static fields."""
    if not 0 < cfl <= 1:
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")
    dx = min(fld.grid.spacing)
    smax = max_wave_speed(fld)
    if smax == 0.0:
        return cfl * dx
    return cfl * dx / smax


def sigma_residual(fld: GridField) -> dict:
    """Discrete sigma_{A',I} = sum_{i in I} (-1)^{O_I(i)} d_i (m_{A',I\\{i}} / tau).

    Vanishes analytically on lifted data; empty for n = 1 where no index set
    of size >= 2 exists.
    """
    lay = fld.layout
    n, r = lay.n, lay.r
    tau = fld.values[0]
    _guard(tau, "|tau|")
    out = {}
    for kI in range(2, min(n, r + 1) + 1):
        for Ap in combinations(range(1, lay.m + 1), kI - 1):
            for I in combinations(range(1, n + 1), kI):
                acc = np.zeros_like(tau)
                for i in I:
                    Icut = tuple(x for x in I if x != i)
                    slot = lay.state_slot(Ap, Icut)
                    ratio = fld.values[slot] / tau
                    acc += _sign(_rank(I, i)) * derivative(ratio, fld.grid, i - 1)
                out[(Ap, I)] = acc
    return out


# ---------------------------------------------------------------------------
# initial data

# smallest accepted 1 - V^T (I + F F^T)^{-1} V, the time-like slack of the initial data
TIMELIKE_MARGIN = 0.05


@dataclass(frozen=True)
class Mode:
    """One Fourier mode a * sin(2 pi k . x / L + phase) of a height or velocity."""

    component: int
    wave: tuple[int, ...]
    amplitude: float
    phase: float = 0.0


def fourier_series(modes, grid: Grid, m: int):
    """Values and analytic gradients of m components built from modes."""
    coords = grid.coordinates()
    u = np.zeros((m, *grid.sizes))
    du = np.zeros((m, grid.n, *grid.sizes))
    for mode in modes:
        if not 1 <= mode.component <= m:
            raise ConfigError(f"mode component {mode.component} out of range 1..{m}")
        if len(mode.wave) != grid.n:
            raise ConfigError("mode wave vector length must equal the grid dimension")
        try:
            k = np.array([2 * np.pi * w / L for w, L in zip(mode.wave, grid.lengths)])
        except OverflowError:  # a wave number past the float range
            k = np.full(grid.n, np.inf)
        if not np.all(np.isfinite(k)):
            raise ConfigError(f"wave vector of component {mode.component} too large: 2 pi k / L overflows")
        theta = mode.phase + np.einsum("j,j...->...", k, coords)
        a = mode.component - 1
        u[a] += mode.amplitude * np.sin(theta)
        for j in range(grid.n):
            du[a, j] += mode.amplitude * k[j] * np.cos(theta)
    return u, du


def graph_momentum(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """D = h (I + F F^T)^{-1} V with h eliminated in closed form.

    zeta = I + F F^T enters through its adjugate from ``minors`` and its determinant
    through Sylvester's identity det zeta = det(I + F^T F) = xi(F): the n x n side
    (n <= 2) cancels far less than the m x m expansion, whose terms grow like
    |F|^(2m) while the determinant may grow only like |F|^2.  Rejects data that is
    not comfortably time-like, i.e. unless 1 - V^T zeta^{-1} V >= TIMELIKE_MARGIN
    everywhere (so NaN is rejected too), and F whose zeta overflows.
    """
    zeta = _gram_plus_identity(_rows(np.swapaxes(F, 0, 1)))
    if not all(np.all(np.isfinite(z)) for row in zeta for z in row):
        raise ConfigError("initial height gradients too large: I + F F^T overflows")
    det = xi(F)
    adj_v = [sum(a * v for a, v in zip(row, V)) for row in _adjugate(zeta)]
    slack = 1.0 - sum(v * w for v, w in zip(V, adj_v)) / det
    if not np.min(slack) >= TIMELIKE_MARGIN:
        raise ConfigError(
            "initial data is not time-like enough: "
            f"min(1 - V zeta^-1 V) = {np.min(slack):.6g} is not >= {TIMELIKE_MARGIN}"
        )
    # h / det zeta with h = sqrt(det zeta / slack), formed before it scales adj zeta V
    return np.array(adj_v) * (np.sqrt(det / slack) / det)


def initial_fields(grid: Grid, m: int, x_modes, v_modes):
    """(W field, oracle (F, D), heights) from Fourier graph data.

    F comes from analytic differentiation and D from the velocity relation,
    so the lifted field sits on the constraint manifold up to rounding.
    ConfigError when the data is not time-like enough (graph_momentum) or too
    large: when the heights are not finite, or tau = 1/h is not above the
    EPS_SINGULAR the runs guard, where h = sqrt(1 + |D|^2 + |F^T D|^2 + sum of
    squared minors) bounds every other value of W times 1/tau.
    """
    layout = enumerate_layout(m, grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        u, F = fourier_series(x_modes, grid, m)
        V, _ = fourier_series(v_modes, grid, m)
        D = graph_momentum(F, V)
        W = to_primitive(lift(GraphData(F, D), layout))
    if not (np.all(np.isfinite(u)) and np.min(W.tau) > EPS_SINGULAR):
        raise ConfigError(f"initial data too large: the heights overflow, or tau = 1/h is not above {EPS_SINGULAR}")
    return GridField(grid, layout, W.as_vector()), (F.copy(), np.asarray(D, dtype=float).copy()), u


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class DiagnosticsRow:
    t: float
    total_energy: float
    entropy_residual_L2: float
    lambda_Linf: float
    omega_Linf: float
    phi_Linf: float
    psi_Linf: float
    sigma_Linf: float
    oracle_F_err_Linf: float | None = None
    oracle_D_err_Linf: float | None = None


_ROW_FIELDS = tuple(f.name for f in fields(DiagnosticsRow))
CSV_HEADER = ",".join(_ROW_FIELDS)


def _entropy_residual_field(fld: GridField, slope: np.ndarray | None = None) -> np.ndarray:
    """Discrete d_t S + div(entropy flux) along the actual evolution; d_t W goes into slope when given."""
    n = fld.layout.n
    v = fld.values
    tau = v[0]
    wt = rhs_augmented(fld, slope)
    Q = np.sum(v[1:] * v[1:], axis=0)
    dS = 0.5 * (1.0 - Q / (tau * tau)) * wt[0]
    dS += np.sum(v[1:] * wt[1:], axis=0) / tau
    U = to_conservative(fld.state_view())
    res = dS
    for j in range(1, n + 1):
        res = res + derivative(np.asarray(_flux.entropy_flux(U, j)), fld.grid, j - 1)
    return res


def _oracle_errors(fld: GridField, F: np.ndarray, D: np.ndarray):
    g = reconstruct_graph(fld.state_view())
    return float(np.max(np.abs(np.asarray(g.F) - F))), float(np.max(np.abs(np.asarray(g.D) - D)))


def diagnostics(fld: GridField, t: float, oracle=None, slope: np.ndarray | None = None) -> DiagnosticsRow:
    """The diagnostics row of fld at t; the d_t W the row evaluates is written into slope when given."""
    vol = fld.grid.cell_volume
    tau = fld.values[0]
    energy = float(np.sum(1.0 / tau) * vol)
    res = constraint_residuals(fld.state_view())
    ent = _entropy_residual_field(fld, slope)
    ent_l2 = float(np.sqrt(np.sum(ent * ent) * vol))
    sig = sigma_residual(fld)
    sig_linf = max((float(np.max(np.abs(v))) for v in sig.values()), default=0.0)
    row = DiagnosticsRow(
        t=t,
        total_energy=energy,
        entropy_residual_L2=ent_l2,
        lambda_Linf=res.lam_linf(),
        omega_Linf=res.omega_linf(),
        phi_Linf=res.phi_linf(),
        psi_Linf=res.psi_linf(),
        sigma_Linf=sig_linf,
    )
    if oracle is not None:
        row.oracle_F_err_Linf, row.oracle_D_err_Linf = _oracle_errors(fld, *oracle)
    return row


# ---------------------------------------------------------------------------
# the time loop

MAX_STEPS = 10**6  # the most steps one march takes; only runaway input needs more


def plan_steps(t_end: float, dt_max: float, min_steps: int = 1) -> tuple[int, float]:
    """(steps, dt): the fewest equal steps, at least min_steps, of at most dt_max to t_end.

    ConfigError if t_end or dt_max (which may have underflowed) is not positive, or past MAX_STEPS steps.
    """
    if not (0 < t_end < math.inf and dt_max > 0):
        raise ConfigError(f"end time {t_end!r} and step bound {dt_max!r} must be positive and the end time finite")
    if not t_end / dt_max <= MAX_STEPS:
        raise ConfigError(f"reaching {t_end!r} in steps of at most {dt_max!r} takes more than {MAX_STEPS} steps")
    steps = max(min_steps, math.ceil(t_end / dt_max))  # a dt_max of inf gives min_steps
    return steps, t_end / steps


def march(state, t_end: float, dt_max: float, step, *, min_steps: int = 1, after=lambda k, t, state: None):
    """state = step(state, dt) over the steps of plan_steps; returns the final state.

    after(k, t, state) sees the start (k = 0) and step k at t = k dt, the last at t_end itself.  Steps and
    after calls run with numpy's warnings off; a BlowUpError from either (step raises one on non-finite
    output) is re-raised with the t of that step or row and its reason.
    """
    steps, dt = plan_steps(t_end, dt_max, min_steps)
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            after(0, t, state)
            for k in range(1, steps + 1):
                t = t_end if k == steps else k * dt
                state = step(state, dt)
                after(k, t, state)
        except BlowUpError as exc:
            raise BlowUpError(t, exc.reason) from None
    return state


@dataclass
class RunResult:
    field: GridField
    steps: int


def _snapshot(fld: GridField, t: float) -> dict:
    lay = fld.layout
    return {
        "schema": 1,
        "t": t,
        "m": lay.m,
        "n": lay.n,
        "sizes": list(fld.grid.sizes),
        "lengths": list(fld.grid.lengths),
        "layout": [[list(A), list(I)] for A, I in lay._raw],
        "components": _component_names(lay),
        "values": fld.values,
    }


def _component_names(lay: MinorLayout) -> list[str]:
    """The names of the rows of a field's values, as its snapshots list them."""
    return (
        ["tau"]
        + [f"d_{a}" for a in range(1, lay.m + 1)]
        + [f"v_{i}" for i in range(1, lay.n + 1)]
        + [f"m_{list(A)}_{list(I)}" for A, I in lay._raw]
    )


def _unpacked(y: np.ndarray, n: int):
    """The (F, D) views of the oracle rows [F as (m n, *sizes); D] of a run's state on an n-d grid."""
    m = len(y) // (n + 1)
    return y[: m * n].reshape(m, n, *y.shape[1:]), y[m * n :]


def _oracle_names(m: int, n: int) -> list[str]:
    """The names of the oracle rows of a run's state: F_a_i, then D_a."""
    return [f"F_{a}_{i}" for a in range(1, m + 1) for i in range(1, n + 1)] + [f"D_{a}" for a in range(1, m + 1)]


def run(
    fld: GridField,
    *,
    t_end: float,
    cfl: float,
    output_cadence: float = 0.0,
    oracle=None,
    snapshot_cadence: float | None = None,
    on_snapshot=lambda t, snap: None,
    on_row=lambda row: None,
) -> RunResult:
    """Evolve the augmented field (and optionally the oracle) to t_end.

    ``march`` takes equal steps, bounded by the CFL bound at t = 0, that land
    exactly on t_end.  Diagnostics rows, taken at t = 0, every output cadence
    and at the end, go to on_row(row) as each is taken; a blow-up, in a step
    or in a row, raises after the rows before it have gone out.  Snapshots,
    likewise at t = 0, every snapshot cadence and the end, go to
    on_snapshot(t, snap) as each is taken; snap["values"] is a view of the
    live state, valid only during the call.  Snapshot times that share a
    snapshot_name raise ConfigError before the first step.
    """
    fld = fld.copy()
    dt_max = cfl_dt(fld, cfl)
    steps, dt = plan_steps(t_end, dt_max)
    # a cadence beyond t_end means "at the end only"; capping it keeps cadence / dt finite
    out_every = steps if output_cadence <= 0 else max(1, round(min(output_cadence, t_end) / dt))
    snap_every = None if snapshot_cadence is None else max(1, round(min(snapshot_cadence, t_end) / dt))
    # the snapshot times as after() sees them; names grow with t, so only neighbours can clash
    times = () if snap_every is None else chain((k * dt for k in range(0, steps, snap_every)), (t_end,))
    for a, b in pairwise(map(snapshot_name, times)):
        if a == b:
            raise ConfigError(f"two snapshot times format to one file name, {a}; keep them over 1e-6 apart")
    n, dim = fld.grid.n, fld.layout.state_dim

    # one array steps both systems: W's rows, then the oracle's packed (F, D) rows when
    # there is one.  A step writes into the spare of its buffers [acc, k, spare] and the
    # state it replaces becomes the next spare, so a failing step leaves its input intact
    # and the RK4 sums allocate nothing
    start = fld.values
    if oracle is not None:
        start = np.concatenate((start, oracle[0].reshape(-1, *fld.grid.sizes), oracle[1]))
    names = _component_names(fld.layout) + _oracle_names(fld.layout.m, n)
    buffers = [np.empty_like(start) for _ in range(3)]
    # a diagnostics row writes d_t W of the state it sees into acc's field rows, where the
    # next step's first stage takes it instead of evaluating it again; a replay of a
    # failing step runs on fresh buffers and so evaluates every stage itself
    primed = False

    def rhs(y, out):
        nonlocal primed
        if primed and out is buffers[0]:
            primed = False
        else:
            rhs_augmented(GridField(fld.grid, fld.layout, y[:dim]), out[:dim])
        if len(y) > dim:
            rhs_original(*_unpacked(y[dim:], n), fld.grid, _unpacked(out[dim:], n))
        return out

    def step(y, dt):
        new = rk4_step(y, dt, rhs, buffers[2], buffers[:2], names)
        buffers[2] = y
        return new

    def after(k, t, y):
        nonlocal primed
        fld.values = y[:dim]
        if k % out_every == 0 or k == steps:
            on_row(diagnostics(fld, t, _unpacked(y[dim:], n) if len(y) > dim else None, buffers[0][:dim]))
            primed = True
        if snap_every is not None and (k % snap_every == 0 or k == steps):
            on_snapshot(t, _snapshot(fld, t))

    march(start, t_end, dt_max, step, after=after)
    return RunResult(fld, steps)


# ---------------------------------------------------------------------------
# serialization of solver outputs


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, name)) for name in _ROW_FIELDS))
    return "\n".join(lines) + "\n"


def _json_rows(a: np.ndarray, level: int) -> str:
    """json.dumps(a.tolist(), indent=1) for an array nested `level` deep.

    Each innermost row goes through the C encoder (json.dumps without indent),
    whose float formatting is the same repr; only the separators differ.
    """
    inner = "\n" + " " * (level + 1)
    if a.ndim == 1:
        body = json.dumps(a.tolist())[1:-1].replace(", ", "," + inner)
    else:
        body = ("," + inner).join(_json_rows(row, level + 1) for row in a)
    return "".join(("[", inner, body, "\n", " " * level, "]"))


def snapshot_name(t: float) -> str:
    """The file name of the snapshot at t."""
    return f"snapshot_t{t:.6f}.json"


def snapshot_to_json(snap: dict) -> str:
    """json.dumps(snap, indent=1, sort_keys=True) with the values array as nested lists.

    "values" sorts last among the keys, so its block goes before the closing brace.  The
    pieces are joined once: chained + on the multi-MB values block would copy it per piece.
    """
    head = json.dumps({k: v for k, v in snap.items() if k != "values"}, indent=1, sort_keys=True)
    return "".join((head[:-2], ',\n "values": ', _json_rows(snap["values"], 1), "\n}"))
