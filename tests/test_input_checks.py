"""Every public numeric argument either works or raises SpecError.

Malformed values (bools, NaN, infinities, integers past float range, strings,
None) must be rejected with SpecError, never with another exception, and so
must a kernel, window, channel or spec path of another type; numpy
scalars and ordinary numbers, extreme ones included, must give a result
without NaN or a SpecError for being out of range.
"""

import math
import re
from fractions import Fraction

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
    clean_bound,
    distortion_moments,
    exhaustive_event_defect,
    load_spec,
    min_feasible_support,
    ordered_defect,
    pure_ldp_epsilon,
    sample,
    sample_counts,
    separation_breakdown,
    separation_profile,
    sufficient_support,
    sweep_param,
    sweep_support,
    truncated_pmf,
    truncated_spec,
    window_weights,
    worst_case_defect,
)
from sparseldp.calibration import _default_scan_limit
from sparseldp.mechanisms import _check_real

MALFORMED = [True, False, math.nan, math.inf, -math.inf, 10**400, -(10**400), "1", None, np.bool_(True)]
NUMPY = [np.float64(0.5), np.int64(3), np.float32(2.0), np.uint8(1)]
ORDINARY = [0, 1, 2, 3, 7, -1, 0.5, 1.0, 1e-3, -0.5, 800.0, 1e308, 1e-320, 1e200]
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
    "clean_bound": lambda family, a, b, c, d: clean_bound(Kernel(family, a), b, c, d),
    "sufficient_support": lambda family, a, b, c, d: sufficient_support(Kernel(family, a), b, c, d),
    "distance matrix": lambda family, a, b, c: MechanismSpec(
        Kernel(family, 1.0), (0, 1), (0, 1), PAIR.supports, ((a, b), (c, 0.0))
    ),
    "brute_force_defect": lambda family, a, b, c: brute_force_defect([a, 0.5], [0.5, b], c),
    "exhaustive_event_defect": lambda family, a, b, c: exhaustive_event_defect([0.5, a], [b, 0.5], c),
    "sample window": lambda family, a, b: sample(WINDOW, a, b, 3),
    "sample spec": lambda family, a, b: sample(PAIR, a, b, 3),
    "sample_counts window": lambda family, a, b, c: sample_counts(WINDOW, a, b, c),
    "sample_counts spec": lambda family, a, b, c: sample_counts(PAIR, a, b, c),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=st.sampled_from(["laplace", "gaussian"]), data=st.data())
def test_returns_or_raises_spec_error(name, family, data):
    call = CALLS[name]
    args = data.draw(st.tuples(*[VALUES] * (call.__code__.co_argcount - 1)), label="args")
    try:
        result = call(family, *args)
    except SpecError:
        return
    assert not re.search(r"\bnan\b", repr(result)), result


# each collection argument of a channel, a window spec or a sweep, called with the value in its place
COLLECTIONS = {
    "MechanismSpec inputs": lambda v: MechanismSpec(LAPLACE, v, (0, 1), PAIR.supports),
    "MechanismSpec outputs": lambda v: MechanismSpec(LAPLACE, (0, 1), v, PAIR.supports),
    "MechanismSpec supports": lambda v: MechanismSpec(LAPLACE, (0, 1), (0, 1), v),
    "MechanismSpec support": lambda v: MechanismSpec(LAPLACE, (0, 1), (0, 1), {0: v, 1: (0, 1)}),
    "MechanismSpec distance": lambda v: MechanismSpec(LAPLACE, (0, 1), (0, 1), PAIR.supports, v),
    "MechanismSpec distance row": lambda v: MechanismSpec(LAPLACE, (0, 1), (0, 1), PAIR.supports, ((0.0, 1.0), v)),
    "truncated_spec inputs": lambda v: truncated_spec(WINDOW, v),
    "sweep_support s_list": lambda v: sweep_support(LAPLACE, 1.0, 2, v),
    "sweep_param param_list": lambda v: sweep_param("laplace", v, 1.0, 2, 7),
}


@pytest.mark.parametrize(
    "name, value",
    # a distance of None is the absolute difference, so it is valid
    [(name, v) for name in COLLECTIONS for v in (None, 3, 2.5, "01") if (name, v) != ("MechanismSpec distance", None)],
)
def test_collection_argument_that_is_not_a_list_raises_spec_error(name, value):
    with pytest.raises(SpecError):
        COLLECTIONS[name](value)


# each kernel-taking call, with the value in place of its kernel
KERNELS = {
    "worst_case_defect": lambda v: worst_case_defect(v, 7, 1.0, 2),
    "separation_breakdown": lambda v: separation_breakdown(v, 1.0, 3, 2),
    "separation_profile": lambda v: separation_profile(v, 7, 1.0, 2),
    "min_feasible_support": lambda v: min_feasible_support(v, 1.0, 0.1, 2),
    "sweep_support": lambda v: sweep_support(v, 1.0, 2, [7]),
    "clean_bound": lambda v: clean_bound(v, 7, 1.0, 2),
    "window_weights": lambda v: window_weights(v, 3),
    "TruncatedParams": lambda v: TruncatedParams(v, 5),
    "MechanismSpec": lambda v: MechanismSpec(v, (0, 1), (0, 1), PAIR.supports),
}
# each call that takes a window or a channel, with the value in its place
MECHANISMS = {
    "sample": lambda v: sample(v, 0, 1, 3),
    "sample_counts": lambda v: sample_counts(v, 0, 1, 3),
    "truncated_pmf": lambda v: truncated_pmf(v, 0),
}
# each call that takes only a window, and each that takes only a channel
WINDOWS = {
    "truncated_spec": lambda v: truncated_spec(v, [0]),
    "distortion_moments": lambda v: distortion_moments(v),
}
CHANNELS = {
    "ordered_defect": lambda v: ordered_defect(v, 0, 1, 1.0),
    "pure_ldp_epsilon": lambda v: pure_ldp_epsilon(v),
}
NOT_OBJECTS = (None, "laplace", 0.5, ("laplace", 0.5))


@pytest.mark.parametrize("name, value", [(name, v) for name in KERNELS for v in NOT_OBJECTS])
def test_kernel_argument_that_is_not_a_kernel_raises_spec_error(name, value):
    with pytest.raises(SpecError, match="kernel must be a Kernel"):
        KERNELS[name](value)


@pytest.mark.parametrize("name, value", [(name, v) for name in MECHANISMS for v in NOT_OBJECTS + (LAPLACE,)])
def test_mechanism_that_is_neither_a_spec_nor_a_window_raises_spec_error(name, value):
    with pytest.raises(SpecError, match="MechanismSpec or TruncatedParams"):
        MECHANISMS[name](value)


@pytest.mark.parametrize("name, value", [(name, v) for name in WINDOWS for v in NOT_OBJECTS + (PAIR,)])
def test_window_argument_that_is_not_a_window_raises_spec_error(name, value):
    with pytest.raises(SpecError, match="window must be a TruncatedParams"):
        WINDOWS[name](value)


@pytest.mark.parametrize("name, value", [(name, v) for name in CHANNELS for v in NOT_OBJECTS + (WINDOW,)])
def test_channel_argument_that_is_not_a_channel_raises_spec_error(name, value):
    with pytest.raises(SpecError, match="channel must be a MechanismSpec"):
        CHANNELS[name](value)


# a str path names a file, so a missing one is an OSError, which the CLI reports with exit 2
@pytest.mark.parametrize("path", [None, 0.5, ("spec.json",), LAPLACE], ids=["None", "float", "tuple", "kernel"])
def test_spec_path_that_is_not_a_path_raises_spec_error(path):
    with pytest.raises(SpecError, match="spec path"):
        load_spec(path)


def test_missing_spec_file_is_an_os_error(tmp_path):
    with pytest.raises(OSError):
        load_spec(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: brute_force_defect([0.5, 0.5], [0.5, 0.5], 800.0), 0.0),
        (lambda: exhaustive_event_defect([0.5, 0.5], [0.5, 0.5], 800.0), 0.0),
        (lambda: ordered_defect(PAIR, 0, 1, 1e308).total, 0.0),
        # 2 sigma^2 overflows, so every weight is 1 and the engine counts no positive term at any size
        (lambda: sufficient_support(Kernel.gaussian(1e200), 0.0, 1.0, 1), (3, 2**53 - 1)),
        (lambda: sufficient_support(Kernel.gaussian(1e300), 0.5, 0.5, 2), None),  # lo is past 2**53 - 1
        (lambda: sufficient_support(Kernel.gaussian(1.0), 1e308, 0.5, 1), (5, 2**53 - 1)),
        (lambda: sufficient_support(Kernel.gaussian(1.0), 1e24, 0.5, 2**40), (2199023255567, 2918501031321)),
        (lambda: sufficient_support(Kernel.laplace(1e-320), 1.0, 1.0, 1), (3, 2**53 - 1)),
        (lambda: min_feasible_support(Kernel.gaussian(1e200), 1.0, 0.1, 2).s_chosen, 21),
        (lambda: min_feasible_support(Kernel.laplace(1e-320), 1.0, 0.1, 2).s_chosen, 21),
        (lambda: min_feasible_support(Kernel.gaussian(1.0), 1e308, 0.5, 1).s_chosen, 3),
    ],
    ids=["brute eps 800", "events eps 800", "ordered eps 1e308", "window sigma 1e200", "window sigma 1e300",
         "window eps 1e308", "window range 2**40", "sufficient lam 1e-320", "design sigma 1e200", "design lam 1e-320",
         "design eps 1e308"],
)
def test_extreme_valid_values_are_answered(call, expected):
    assert call() == expected


class MyInt(int):
    pass


REAL_REQUIREMENT = "epsilon must be a nonnegative finite number, got "


@pytest.mark.parametrize(
    "value, expected",
    [
        (True, REAL_REQUIREMENT + "True"),
        (np.bool_(True), REAL_REQUIREMENT + repr(np.bool_(True))),
        (10**400, REAL_REQUIREMENT + "1" + "0" * 400),
        (-(10**400), REAL_REQUIREMENT + "-1" + "0" * 400),
        (Fraction(10**400), REAL_REQUIREMENT + f"Fraction({10**400}, 1)"),
        (np.float64(-1.0), REAL_REQUIREMENT + repr(np.float64(-1.0))),
        (-3, REAL_REQUIREMENT + "-3"),
        (math.nan, REAL_REQUIREMENT + "nan"),
        ("1", REAL_REQUIREMENT + "'1'"),
        (np.float64(0.5), 0.5),
        (np.int64(3), 3.0),
        (Fraction(1, 3), 1 / 3),
        (MyInt(7), 7.0),
        (7, 7.0),
        (2**1000, 2.0**1000),
        (0.25, 0.25),
    ],
    ids=["True", "np.bool_", "10**400", "-10**400", "Fraction 10**400", "np.float64 -1", "-3", "nan", "str",
         "np.float64 0.5", "np.int64", "Fraction 1/3", "int subclass", "7", "2**1000", "0.25"],
)
def test_real_check_keeps_its_answers_and_messages(value, expected):
    # exact float and int are taken before the numbers.Real check; every other value follows that rule
    if isinstance(expected, str):
        with pytest.raises(SpecError) as err:
            _check_real("epsilon", value, "be a nonnegative finite number")
        assert str(err.value) == expected
        with pytest.raises(SpecError) as err:
            worst_case_defect(LAPLACE, 7, value, 3)
        assert str(err.value) == expected
    else:
        got = _check_real("epsilon", value, "be a nonnegative finite number")
        assert type(got) is float and got == expected
        assert worst_case_defect(LAPLACE, 7, value, 3) == worst_case_defect(LAPLACE, 7, expected, 3)


def test_size_bound_past_float_range_is_a_spec_error():
    # (2 / lam) log(range / delta) is about 4.6e320
    with pytest.raises(SpecError, match="float range"):
        sufficient_support(Kernel.laplace(1e-320), 1.0, 0.1, 2)


def test_certified_size_past_2_to_53_answers_none():
    # (2 / lam) log(range / delta) is about 6e300: a finite size that no call accepts, so no size is certified
    assert sufficient_support(Kernel.laplace(1e-300), 1.0, 0.1, 2) is None


def test_default_scan_limit_reads_the_uncapped_tail_size():
    # the Laplace tail size is about 1.4e17 here, so the limit is the largest accepted size
    assert _default_scan_limit(Kernel.laplace(1e-14), 1.0, 1e-300, 1) == 2**53 - 1


@pytest.mark.parametrize(
    "mechanism, x",
    [
        (WINDOW, 2**63 - 1),
        (MechanismSpec(LAPLACE, (0,), (0, 10**22), {0: (0, 10**22)}), 0),
        (WINDOW, -(2**63)),
        (WINDOW, 10**22),
    ],
    ids=["window", "spec", "window-below", "window-far"],
)
def test_sample_rejects_symbols_outside_int64(mechanism, x):
    with pytest.raises(SpecError, match="64-bit"):
        sample(mechanism, x, 0, 2)
    masses = truncated_pmf(mechanism, x) if isinstance(mechanism, TruncatedParams) else mechanism.pmf(x)
    assert all(type(y) is int for y in masses) and (min(masses) < -(2**63) or max(masses) >= 2**63)


@pytest.mark.parametrize("seed", [None, True, 1.5, -1, np.int64(-1)])
def test_sample_rejects_seeds_that_are_not_nonnegative_integers(seed):
    with pytest.raises(SpecError, match="seed"):
        sample(WINDOW, 0, seed, 2)


def test_sample_accepts_any_nonnegative_integer_seed():
    for seed in (0, np.uint64(2**64 - 1), 2**70):
        draws = sample(WINDOW, 0, seed, 50)
        assert set(draws.tolist()) <= {-1, 0, 1}
        assert np.array_equal(draws, sample(WINDOW, 0, seed, 50))
