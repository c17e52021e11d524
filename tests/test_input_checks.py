"""Every public numeric argument either works or raises SpecError.

Malformed values (bools, NaN, infinities, integers past float range, strings,
None) must be rejected with SpecError, never with another exception; numpy
scalars and ordinary numbers must give a result or a SpecError for being out
of range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseldp import (
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    brute_force_defect,
    exhaustive_event_defect,
    gaussian_clean_bound,
    gaussian_overlap_threshold,
    gaussian_support_window,
    laplace_clean_bound,
    laplace_sufficient_support,
    min_feasible_support,
    pure_ldp_bound,
    sample,
    separation_breakdown,
    separation_profile,
    sweep_param,
    worst_case_defect,
)

MALFORMED = [True, False, math.nan, math.inf, -math.inf, 10**400, -(10**400), "1", None, np.bool_(True)]
NUMPY = [np.float64(0.5), np.int64(3), np.float32(2.0), np.uint8(1)]
ORDINARY = [0, 1, 2, 3, 7, -1, 0.5, 1.0, 1e-3, -0.5]
VALUES = st.sampled_from(MALFORMED + NUMPY + ORDINARY)

LAPLACE = Kernel.laplace(0.5)
PAIR = MechanismSpec(LAPLACE, (0, 1), (0, 1), {0: (0, 1), 1: (0, 1)})
WINDOW = TruncatedParams(LAPLACE, 3)

CALLS = {
    "Kernel": lambda family, a: Kernel(family, a),
    "worst_case_defect": lambda family, a, b, c: worst_case_defect(Kernel(family, 1.0), a, b, c),
    "separation_breakdown": lambda family, a, b, c: separation_breakdown(Kernel(family, 1.0), a, b, c),
    "separation_profile": lambda family, a, b, c: separation_profile(Kernel(family, 1.0), a, b, c),
    "min_feasible_support": lambda family, a, b, c: min_feasible_support(Kernel(family, 1.0), a, b, c),
    "min_feasible_support s_max": lambda family, a: min_feasible_support(Kernel(family, 1.0), 1.0, 0.1, 2, a),
    "sweep_param": lambda family, a, b, c: sweep_param(family, [a], b, 2, c),
    "laplace_clean_bound": lambda family, a, b, c, d: laplace_clean_bound(a, b, c, d),
    "gaussian_clean_bound": lambda family, a, b, c, d: gaussian_clean_bound(a, b, c, d),
    "laplace_sufficient_support": lambda family, a, b, c, d: laplace_sufficient_support(a, b, c, d),
    "gaussian_support_window": lambda family, a, b, c, d: gaussian_support_window(a, b, c, d),
    "gaussian_overlap_threshold": lambda family, a, b, c: gaussian_overlap_threshold(a, b, c),
    "distance matrix": lambda family, a, b, c: MechanismSpec(
        Kernel(family, 1.0), (0, 1), (0, 1), PAIR.supports, ((a, b), (c, 0.0))
    ),
    "brute_force_defect": lambda family, a, b, c: brute_force_defect([a, 0.5], [0.5, b], c),
    "exhaustive_event_defect": lambda family, a, b, c: exhaustive_event_defect([0.5, a], [b, 0.5], c),
    "pure_ldp_bound": lambda family, a, b, c: pure_ldp_bound(a, b, c),
    "sample window": lambda family, a, b: sample(WINDOW, a, b, 3),
    "sample spec": lambda family, a, b: sample(PAIR, a, b, 3),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=st.sampled_from(["laplace", "gaussian"]), data=st.data())
def test_returns_or_raises_spec_error(name, family, data):
    call = CALLS[name]
    args = data.draw(st.tuples(*[VALUES] * (call.__code__.co_argcount - 1)), label="args")
    try:
        call(family, *args)
    except SpecError:
        pass


@pytest.mark.parametrize(
    "mechanism, x",
    [(WINDOW, 2**63 - 1), (MechanismSpec(LAPLACE, (0,), (0, 10**22), {0: (0, 10**22)}), 0)],
    ids=["window", "spec"],
)
def test_sample_rejects_symbols_outside_int64(mechanism, x):
    with pytest.raises(SpecError, match="64-bit"):
        sample(mechanism, x, 0, 2)


@pytest.mark.parametrize("seed", [None, True, 1.5, -1, np.int64(-1)])
def test_sample_rejects_seeds_that_are_not_nonnegative_integers(seed):
    with pytest.raises(SpecError, match="seed"):
        sample(WINDOW, 0, seed, 2)


def test_sample_accepts_any_nonnegative_integer_seed():
    for seed in (0, np.uint64(2**64 - 1), 2**70):
        draws = sample(WINDOW, 0, seed, 50)
        assert set(draws.tolist()) <= {-1, 0, 1}
        assert np.array_equal(draws, sample(WINDOW, 0, seed, 50))
