"""Symmetric-hyperbolic evolution of time-like extremal graphs.

Subpackages: ``minors`` (exact minor algebra), ``state`` (representations and
constraint residuals), ``flux`` (symmetric flux matrices, entropy,
characteristics), ``solver`` (periodic-grid evolution and diagnostics),
``mcf`` (mean curvature flow and the short-time limit), ``cli``.  The package
does not import ``cli``, so ``python -m branesim.cli`` runs it without a
warning; use ``from branesim import cli``.
"""

__version__ = "0.1.0"

from . import flux, mcf, minors, solver, state  # noqa: F401
