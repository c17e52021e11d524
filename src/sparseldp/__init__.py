"""Sparse locally private channels: exact guarantees and support-size design.

Channels place kernel-weighted mass (discrete-Laplace or Gaussian) on a small
per-input output set.  The library evaluates their exact pure and approximate
local-privacy levels, decomposes the privacy defect into support leakage and
overlap excess, and solves the smallest-support design problem.
"""

from .calibration import (
    CleanBoundReport,
    DesignResult,
    SweepRow,
    clean_bound,
    feasibility_min_support,
    min_feasible_support,
    sufficient_support,
    sweep_param,
    sweep_support,
)
from .mechanisms import (
    GAUSSIAN,
    LAPLACE,
    DistortionMoments,
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    UnknownInputError,
    distortion_moments,
    load_spec,
    sample,
    sample_counts,
    spec_from_dict,
    truncated_pmf,
    truncated_spec,
    window_weights,
)
from .privacy import (
    DefectBreakdown,
    PureLdpResult,
    brute_force_defect,
    exhaustive_event_defect,
    ordered_defect,
    pure_ldp_epsilon,
    separation_breakdown,
    separation_profile,
    worst_case_defect,
)

__version__ = "0.1.0"

__all__ = [
    "GAUSSIAN",
    "LAPLACE",
    "CleanBoundReport",
    "DefectBreakdown",
    "DesignResult",
    "DistortionMoments",
    "Kernel",
    "MechanismSpec",
    "PureLdpResult",
    "SpecError",
    "SweepRow",
    "TruncatedParams",
    "UnknownInputError",
    "brute_force_defect",
    "clean_bound",
    "distortion_moments",
    "exhaustive_event_defect",
    "feasibility_min_support",
    "load_spec",
    "min_feasible_support",
    "ordered_defect",
    "pure_ldp_epsilon",
    "sample",
    "sample_counts",
    "separation_breakdown",
    "separation_profile",
    "spec_from_dict",
    "sufficient_support",
    "sweep_param",
    "sweep_support",
    "truncated_pmf",
    "truncated_spec",
    "window_weights",
    "worst_case_defect",
]
