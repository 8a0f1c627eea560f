"""Span recording around the public functions of branesim's modules.

``Tracer.install`` replaces every binding of a listed function inside the
``branesim`` package, matched by object identity, with a wrapper that
records one span (name, start, end, parent span).  A function imported by
name into another module (``mcf.derivative``, ``solver.to_conservative``) is
therefore traced at every call site.  Spans stay in memory until ``save``;
``layer_metrics`` turns them into per-function calls and self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

LAYERS = {
    "cli": ("parse_run_config", "parse_mcf_config", "cmd_simulate", "cmd_mcf_compare", "cmd_verify"),
    "solver": (
        "initial_fields",
        "max_wave_speed",
        "run",
        "rk4_step",
        "rhs_augmented",
        "rhs_original",
        "derivative",
        "diagnostics",
        "sigma_residual",
        "rows_to_csv",
        "snapshot_to_json",
    ),
    "state": ("lift", "constraint_residuals", "to_conservative"),
    "flux": ("entropy_flux",),
    "mcf": (
        "acceleration_limit_test",
        "graph_gauge_velocity",
        "tangency_residual",
        "shrinking_circle_radii",
        "graph_amplitude_decay",
        "mcf_step",
        "mcf_velocity",
    ),
    "minors": (
        "all_minors",
        "minor",
        "laplace_mixed",
        "cauchy_binet_check",
        "xi",
        "xi_minor_sum",
        "xi_prime",
        "xi_prime_minor_sum",
        "z_matrix",
        "z_minor_sum",
    ),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
COUNTS_ERRORS = ("solver.rk4_step", "mcf.mcf_step")
COUNTS_BYTES = ("solver.rows_to_csv", "solver.snapshot_to_json")


class Tracer:
    """Spans of one process: parallel arrays indexed by span id."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors = dict.fromkeys(COUNTS_ERRORS, 0)
        self.bytes = dict.fromkeys(COUNTS_BYTES, 0)
        self.point_terms = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, idx: int, qualname: str):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        counts_errors = qualname in self.errors
        counts_bytes = qualname in self.bytes
        counts_terms = qualname == "solver.rhs_augmented"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = clock()
                stack.pop()
                if counts_errors:
                    self.errors[qualname] += 1
                raise
            end[sid] = clock()
            stack.pop()
            if counts_bytes:
                self.bytes[qualname] += len(result.encode())
            elif counts_terms:
                self.point_terms += _point_terms(*args)
            return result

        return traced

    def install(self):
        """Rebind every listed function at every binding inside branesim."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "branesim" or k.startswith("branesim.")]
        wrappers = {}
        for idx, qualname in enumerate(SPAN_NAMES):
            mod, fn_name = qualname.split(".")
            fn = getattr(sys.modules.get(f"branesim.{mod}"), fn_name, None)
            if fn is None:
                self.missing.append(qualname)
                continue
            wrappers[id(fn)] = (fn, self._wrap(fn, idx, qualname))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def save(self, path):
        """Write the spans, the counters and the calibrated wrapper cost as one .npz file."""
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            errors=np.array([self.errors[k] for k in COUNTS_ERRORS], dtype=np.int64),
            bytes=np.array([self.bytes[k] for k in COUNTS_BYTES], dtype=np.int64),
            point_terms=np.array(self.point_terms, dtype=np.int64),
            wrapper_cost=np.array(wrapper_cost()),
        )


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a bare call, timed in this process.

    A no-op function is called ``calls`` times bare and ``calls`` times
    through the span wrapper; the median over ``repeats`` of the difference
    per call is the cost.  It counts the wrapper's own work, not any effect
    of tracing on the caches of the traced code.
    """

    def noop(x):
        return x

    traced = Tracer()._wrap(noop, 0, "calibration")
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for i in range(calls):
            noop(i)
        t1 = clock()
        for i in range(calls):
            traced(i)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _point_terms(fld, *_args, **_kwargs) -> int:
    """Term-table rows times grid points for one rhs_augmented call (a computed count)."""
    flux = sys.modules["branesim.flux"]
    return len(flux._direct_terms(fld.layout.m, fld.layout.n)) * fld.values[0].size


def layer_metrics(path) -> dict:
    """Per-function calls and self time, plus the counters, from a saved .npz."""
    import numpy as np

    with np.load(path) as z:
        name, parent, start, end = z["name"], z["parent"], z["start"], z["end"]
        errors, nbytes, point_terms = z["errors"], z["bytes"], int(z["point_terms"])
        cost = float(z["wrapper_cost"])
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    self_s = np.bincount(name, weights=dur - covered, minlength=len(SPAN_NAMES))
    calls = np.bincount(name, minlength=len(SPAN_NAMES))
    out = {}
    for i, qualname in enumerate(SPAN_NAMES):
        out[f"{qualname}.calls"] = int(calls[i])
        out[f"{qualname}.self_s"] = float(self_s[i])
    for k, v in zip(COUNTS_ERRORS, errors):
        out[f"{k}.errors"] = int(v)
    for k, v in zip(COUNTS_BYTES, nbytes):
        out[f"{k}.bytes"] = int(v)
    out["solver.rhs_augmented.point_terms"] = point_terms
    out["trace.overhead_s"] = cost * name.size  # spans x calibrated cost per traced call
    return out
