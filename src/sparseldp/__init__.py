"""Sparse locally private channels: exact guarantees and support-size design.

Channels place kernel-weighted mass (discrete-Laplace or Gaussian) on a small
per-input output set.  The library evaluates their exact pure and approximate
local-privacy levels, decomposes the privacy defect into support leakage and
overlap excess, and solves the smallest-support design problem.  Each module
names its public calls in its own `__all__`; this package re-exports them.
"""

from . import calibration, mechanisms, privacy
from .calibration import *  # noqa: F403
from .mechanisms import *  # noqa: F403
from .privacy import *  # noqa: F403

__version__ = "0.1.0"

__all__ = calibration.__all__ + mechanisms.__all__ + privacy.__all__
