"""Periodic-grid method-of-lines evolution and diagnostics.

Two evolutions share only the grid and stencil code:

* the augmented path evolves the primitive field W with the symmetric-system
  right-hand side;
* the oracle path evolves the original graph unknowns (F, D), with xi and its
  gradient computed through determinants and adjugates, never minors.

Diagnostics track the energy, the entropy-law residual, the constraint
residuals, sigma (the lifted integrability constraint), and the
augmented-versus-oracle discrepancy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from . import flux as _flux
from .minors import MinorLayout, _rank, _sign, enumerate_layout
from .state import (
    EPS_SINGULAR,
    GraphData,
    PrimitiveState,
    SingularStateError,
    constraint_residuals,
    lift,
    reconstruct_graph,
    to_conservative,
    to_primitive,
)


class ConfigError(ValueError):
    """A run parameter is missing, malformed, or out of range."""


class BlowUpError(RuntimeError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, t: float, rows=None, snapshots=None):
        super().__init__(f"non-finite state at t={t:.6g}")
        self.t = t
        self.rows = rows or []
        self.snapshots = snapshots or []


class TimelikeError(ConfigError):
    """Initial data violates the time-like margin."""


# ---------------------------------------------------------------------------
# grid and fields


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1 or 2 spatial dimensions."""

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


def derivative(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Second-order central difference along spatial axis (0-based) with periodic wrap.

    Acts on the trailing grid axes, so leading component axes pass through.
    """
    if axis < 0 or axis >= grid.n:
        raise ConfigError(f"axis {axis} out of range for {grid.n}-d grid")
    ax = values.ndim - grid.n + axis
    return (np.roll(values, -1, ax) - np.roll(values, 1, ax)) / (2 * grid.spacing[axis])


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_augmented(fld: GridField) -> np.ndarray:
    """d_t W on the whole grid; the pointwise term table applied with stencils."""
    grads = [derivative(fld.values, fld.grid, j) for j in range(fld.grid.n)]
    return _flux.apply_terms(fld.layout, fld.values, grads, np.zeros_like(fld.values))


def _xi_and_xi_prime(F: np.ndarray):
    """xi and its half-gradient through determinant/adjugate closed forms.

    F has shape (m, n, ...); supports n = 1 and n = 2.  This is the oracle
    path, deliberately disjoint from the minor bookkeeping.
    """
    n = F.shape[1]
    if n == 1:
        xi = 1.0 + np.sum(F[:, 0] ** 2, axis=0)
        return xi, F.copy()
    if n == 2:
        a = np.sum(F[:, 0] * F[:, 0], axis=0)
        b = np.sum(F[:, 0] * F[:, 1], axis=0)
        c = np.sum(F[:, 1] * F[:, 1], axis=0)
        xi = (1.0 + a) * (1.0 + c) - b * b
        # adjugate of I + F^T F
        z00, z01, z11 = 1.0 + c, -b, 1.0 + a
        xp = np.empty_like(F)
        xp[:, 0] = F[:, 0] * z00 + F[:, 1] * z01
        xp[:, 1] = F[:, 0] * z01 + F[:, 1] * z11
        return xi, xp
    raise ConfigError("oracle closed forms cover n = 1 and n = 2 only")


def rhs_original(F: np.ndarray, D: np.ndarray, grid: Grid):
    """d_t (F, D) of the original graph system on the grid."""
    m, n = F.shape[0], F.shape[1]
    if n != grid.n:
        raise ConfigError("F shape does not match grid dimension")
    P = np.einsum("ai...,a...->i...", F, D)
    xi, xp = _xi_and_xi_prime(F)
    h = np.sqrt(np.sum(D * D, axis=0) + np.sum(P * P, axis=0) + xi)
    dF = np.empty_like(F)
    dD = np.zeros_like(D)
    for alpha in range(m):
        base = D[alpha] + np.einsum("j...,j...->...", F[alpha], P)
        for i in range(n):
            dF[alpha, i] = -derivative(base / h, grid, i)
            dD[alpha] -= derivative((D[alpha] * P[i] + xp[alpha, i]) / h, grid, i)
    return dF, dD


def rk4_step(y: np.ndarray, dt: float, rhs) -> np.ndarray:
    """Classical four-stage Runge-Kutta update."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(float("nan"))
    return out


def max_wave_speed(fld: GridField) -> float:
    """Largest |eigenvalue| of the flux matrices over grid points and axes.

    For every W, on the constraint manifold or off it, the spectrum of A_j(W)
    is {v_j, v_j +/- sigma_j} with sigma_j^2 = tau^2 + sum over alpha and
    i != j of m_{alpha,i}^2, so the largest |eigenvalue| is |v_j| + sigma_j.
    """
    W = fld.state_view()
    lay = W.layout
    smax = 0.0
    for j in range(1, lay.n + 1):
        s2 = W.tau * W.tau
        for a in range(1, lay.m + 1):
            for i in range(1, lay.n + 1):
                if i != j:
                    s2 = s2 + W.m_minors[lay.slot((a,), (i,))] ** 2
        smax = max(smax, float(np.max(np.abs(W.v[j - 1]) + np.sqrt(s2))))
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
    if np.min(np.abs(tau)) <= EPS_SINGULAR:
        raise SingularStateError("tau is too small for sigma reconstruction")
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
        k = np.array([2 * np.pi * w / L for w, L in zip(mode.wave, grid.lengths)])
        theta = mode.phase + np.einsum("j,j...->...", k, coords)
        a = mode.component - 1
        u[a] += mode.amplitude * np.sin(theta)
        for j in range(grid.n):
            du[a, j] += mode.amplitude * k[j] * np.cos(theta)
    return u, du


def graph_momentum(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """D = h (I + F F^T)^{-1} V with h eliminated in closed form.

    Rejects data that is not comfortably time-like, i.e. whenever
    1 - V^T (I + F F^T)^{-1} V < TIMELIKE_MARGIN anywhere.
    """
    m = F.shape[0]
    npts = int(np.prod(F.shape[2:])) if F.ndim > 2 else 1
    shape = F.shape[2:]
    Fr = F.reshape(m, F.shape[1], npts)
    Vr = V.reshape(m, npts)
    zeta = np.einsum("aip,bip->pab", Fr, Fr) + np.eye(m)
    W = np.linalg.solve(zeta, Vr.T[..., None])[..., 0]  # (npts, m)
    q = np.einsum("pa,ap->p", W, Vr)
    slack = 1.0 - q
    if np.min(slack) < TIMELIKE_MARGIN:
        raise TimelikeError(
            f"initial data is not time-like enough: min(1 - V zeta^-1 V) = {np.min(slack):.6g} < {TIMELIKE_MARGIN}"
        )
    # xi = det(I_n + F^T F) pointwise
    n = F.shape[1]
    FtF = np.einsum("aip,ajp->pij", Fr, Fr)
    xi = np.linalg.det(np.eye(n) + FtF)
    h = np.sqrt(xi) / np.sqrt(slack)
    D = (h[:, None] * W).T
    return D.reshape(m, *shape) if shape else D[:, 0]


def initial_fields(grid: Grid, m: int, x_modes, v_modes):
    """(W field, oracle (F, D), heights) from Fourier graph data.

    F comes from analytic differentiation and D from the velocity relation,
    so the lifted field sits on the constraint manifold up to rounding.
    """
    layout = enumerate_layout(m, grid.n)
    u, F = fourier_series(x_modes, grid, m)
    V, _ = fourier_series(v_modes, grid, m)
    D = graph_momentum(F, V)
    W = to_primitive(lift(GraphData(F, D), layout))
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


def _entropy_residual_field(fld: GridField) -> np.ndarray:
    """Discrete d_t S + div(entropy flux) along the actual evolution."""
    n = fld.layout.n
    v = fld.values
    tau = v[0]
    wt = rhs_augmented(fld)
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


def diagnostics(fld: GridField, t: float, oracle=None) -> DiagnosticsRow:
    vol = fld.grid.cell_volume
    tau = fld.values[0]
    energy = float(np.sum(1.0 / tau) * vol)
    res = constraint_residuals(fld.state_view())
    ent = _entropy_residual_field(fld)
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

    after(k, t, state) sees the start (k = 0) and step k at t = k dt, the last at t_end itself.  Steps run
    with numpy's warnings off: step raises BlowUpError on non-finite output, re-raised with the step's t.
    """
    steps, dt = plan_steps(t_end, dt_max, min_steps)
    after(0, 0.0, state)
    for k in range(1, steps + 1):
        t = t_end if k == steps else k * dt
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                state = step(state, dt)
        except BlowUpError:
            raise BlowUpError(t) from None
        after(k, t, state)
    return state


@dataclass
class RunResult:
    rows: list
    snapshots: list
    field: GridField
    dt: float
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
        "components": ["tau"]
        + [f"d_{a}" for a in range(1, lay.m + 1)]
        + [f"v_{i}" for i in range(1, lay.n + 1)]
        + [f"m_{list(A)}_{list(I)}" for A, I in lay._raw],
        "values": fld.values.copy(),
    }


def _packed(F: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The oracle (F, D) as one array [F as (m n, *sizes); D], so rk4_step applies unchanged."""
    return np.concatenate([F.reshape(-1, *F.shape[2:]), D])


def _unpacked(y: np.ndarray, n: int):
    """The (F, D) views of a _packed array on an n-d grid."""
    m = len(y) // (n + 1)
    return y[: m * n].reshape(m, n, *y.shape[1:]), y[m * n :]


def run(
    fld: GridField,
    *,
    t_end: float,
    cfl: float = 0.4,
    output_cadence: float = 0.0,
    oracle=None,
    snapshot_cadence: float | None = None,
) -> RunResult:
    """Evolve the augmented field (and optionally the oracle) to t_end.

    ``march`` takes equal steps, bounded by the CFL bound at t = 0, that land
    exactly on t_end.  Diagnostics rows are emitted at t = 0, every output
    cadence, and at the end; a blow-up aborts with partial rows attached to
    the raised error.
    """
    fld = fld.copy()
    dt_max = cfl_dt(fld, cfl)
    steps, dt = plan_steps(t_end, dt_max)
    # a cadence beyond t_end means "at the end only"; capping it keeps cadence / dt finite
    out_every = steps if output_cadence <= 0 else max(1, round(min(output_cadence, t_end) / dt))
    snap_every = None if snapshot_cadence is None else max(1, round(min(snapshot_cadence, t_end) / dt))
    rows, snapshots = [], []
    rhs = (
        lambda W: rhs_augmented(GridField(fld.grid, fld.layout, W)),
        lambda y: _packed(*rhs_original(*_unpacked(y, fld.grid.n), fld.grid)),
    )

    def step(state, dt):
        # the field, then the oracle when there is one
        return tuple(rk4_step(y, dt, f) for y, f in zip(state, rhs))

    def after(k, t, state):
        fld.values = state[0]
        if k % out_every == 0 or k == steps:
            rows.append(diagnostics(fld, t, _unpacked(state[1], fld.grid.n) if len(state) > 1 else None))
        if snap_every is not None and (k % snap_every == 0 or k == steps):
            snapshots.append((t, _snapshot(fld, t)))

    try:
        march((fld.values,) + (() if oracle is None else (_packed(*oracle),)), t_end, dt_max, step, after=after)
    except BlowUpError as exc:
        exc.rows, exc.snapshots = rows, snapshots
        raise
    return RunResult(rows, snapshots, fld, dt, steps)


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
    return "[" + inner + body + "\n" + " " * level + "]"


def snapshot_to_json(snap: dict) -> str:
    """json.dumps(snap, indent=1, sort_keys=True) with the values array as nested lists.

    "values" sorts last among the keys, so its block goes before the closing brace.
    """
    head = json.dumps({k: v for k, v in snap.items() if k != "values"}, indent=1, sort_keys=True)
    return head[:-2] + ',\n "values": ' + _json_rows(snap["values"], 1) + "\n}"
