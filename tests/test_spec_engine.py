"""A spec's per-input log-weight rows against scalar evaluation.

`conftest.direct_pure_level` is the scalar loop over ordered triples
(x, x', y); the library reads every log-weight from rows a spec builds once.
Level and witness must agree bit for bit, `pmf` must be exp(lw) / sum
exactly when an input lies in its own support, and a support far from its
input must give answers, not underflow errors.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import direct_pure_level, distance, log_ratio, log_weights, random_common_support_spec, random_spec
from sparseldp import Kernel, MechanismSpec, SpecError, pure_ldp_epsilon, spec_from_dict
from sparseldp.cli import main

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# two inputs sharing a support about 2000 away: every weight underflows
FAR_PAIR = {
    "kernel": {"family": "laplace", "param": 1.0},
    "inputs": [0, 1],
    "outputs": [2000, 2001],
    "supports": {"0": [2000, 2001], "1": [2000, 2001]},
}


def with_matrix(spec, rng):
    """The same channel under a random distance matrix, 0 where an input meets itself."""
    m = rng.uniform(0.0, 4.0, size=(len(spec.inputs), len(spec.outputs)))
    for i, x in enumerate(spec.inputs):
        if x in spec.outputs:
            m[i][spec.outputs.index(x)] = 0.0
    return MechanismSpec(spec.kernel, spec.inputs, spec.outputs, spec.supports, tuple(map(tuple, m.tolist())))


@st.composite
def specs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = random_common_support_spec(rng) if draw(st.booleans()) else random_spec(rng, allow_matrix=False)
    return with_matrix(spec, rng) if draw(st.booleans()) else spec


@SETTINGS
@given(specs())
def test_level_and_witness_equal_the_scalar_loop(spec):
    res = pure_ldp_epsilon(spec)
    assert (res.finite, res.epsilon_star, res.witness) == direct_pure_level(spec)
    if res.finite and res.witness is not None:
        assert log_ratio(spec, *res.witness) == res.epsilon_star


@st.composite
def mismatched_specs(draw):
    """Specs whose supports are not all equal, with outputs declared out of order."""
    outputs = draw(st.lists(st.integers(-10, 10), min_size=2, max_size=12, unique=True))
    inputs = draw(st.lists(st.integers(-10, 10), min_size=2, max_size=6, unique=True))
    common = draw(st.sets(st.sampled_from(outputs), min_size=1))
    supports = {x: set(common) for x in inputs}
    for x in draw(st.lists(st.sampled_from(inputs), min_size=1, unique=True)):
        supports[x] = (supports[x] ^ {draw(st.sampled_from(outputs))}) or supports[x]
    assume(len({frozenset(sup) for sup in supports.values()}) > 1)
    kernel = draw(st.sampled_from([Kernel.laplace(0.7), Kernel.gaussian(1.5)]))
    return MechanismSpec(kernel, tuple(inputs), tuple(outputs), {x: tuple(sup) for x, sup in supports.items()})


@SETTINGS
@given(mismatched_specs())
def test_mismatch_witness_equals_the_scalar_loop(spec):
    res = pure_ldp_epsilon(spec)
    assert not res.finite
    assert (res.finite, res.epsilon_star, res.witness) == direct_pure_level(spec)


@SETTINGS
@given(specs())
def test_pmf_is_the_plain_quotient_when_self_supported(spec):
    for x in spec.inputs:
        sup = spec.support(x)
        p = spec.pmf(x)
        assert list(p) == list(sup)
        assert math.fsum(p.values()) == pytest.approx(1.0, abs=1e-15)
        if x in sup:
            w = np.exp(spec.kernel.log_weight(np.array([distance(spec, x, y) for y in sup])))
            assert p == dict(zip(sup, (w / w.sum()).tolist()))


def exact_level(spec):
    """Pure level at 50 digits from the log-weights, for far supports where floats underflow."""
    with mpmath.workdps(50):
        lw = {x: [mpmath.mpf(-spec.kernel.param) * distance(spec, x, y) for y in spec.support(x)]
              for x in spec.inputs}
        log_z = {x: mpmath.log(mpmath.fsum(mpmath.exp(v) for v in lw[x])) for x in spec.inputs}
        return float(max(a - b + log_z[xp] - log_z[x]
                         for x in spec.inputs for xp in spec.inputs for a, b in zip(lw[x], lw[xp])))


class TestFarSupport:
    def test_pmf_sums_to_one(self):
        spec = MechanismSpec(Kernel.laplace(1.0), (0,), (2000, 2001), {0: (2000, 2001)})
        p = spec.pmf(0)
        assert math.fsum(p.values()) == pytest.approx(1.0, abs=1e-15)
        assert p[2000] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-15)
        assert float(np.exp(log_weights(spec, 0)).sum()) == 0.0  # the unshifted sum underflows

    def test_shared_far_support_has_a_finite_level(self):
        # the pmfs of 0 and 1 coincide: the level is 0
        spec = spec_from_dict(FAR_PAIR)
        res = pure_ldp_epsilon(spec)
        assert res.finite
        assert res.epsilon_star == pytest.approx(0.0, abs=1e-12)
        if res.witness is not None:
            assert log_ratio(spec, *res.witness) == res.epsilon_star

    def test_matrix_far_support_level_and_witness(self):
        distance = ((2000.0, 2001.5, 2003.0), (2001.0, 2000.0, 2000.25))
        spec = MechanismSpec(Kernel.laplace(1.0), (0, 1), (10, 11, 12), {0: (10, 11, 12), 1: (10, 11, 12)}, distance)
        res = pure_ldp_epsilon(spec)
        assert res.finite and res.witness is not None
        assert log_ratio(spec, *res.witness) == res.epsilon_star
        assert res.epsilon_star == pytest.approx(exact_level(spec), abs=1e-12)

    def test_check_pure_exits_0(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(FAR_PAIR))
        assert main(["check-pure", "--spec", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["finite"] is True

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_log_weights_beyond_float_range_rejected(self):
        # d^2 overflows, so no float can carry the weight ratio
        with pytest.raises(SpecError, match="float range"):
            MechanismSpec(Kernel.gaussian(1.0), (0,), (10**200,), {0: (10**200,)})

    def test_symbols_beyond_float_range_rejected(self):
        # |x - y| has no float: SpecError, not OverflowError
        with pytest.raises(SpecError, match="too large for a float"):
            MechanismSpec(Kernel.laplace(1.0), (0,), (10**320,), {0: (10**320,)})
        # an output that no support holds needs no distance, so the channel is still answered
        spec = MechanismSpec(Kernel.laplace(1.0), (0,), (1, 10**320), {0: (1,)})
        assert spec.pmf(0) == {1: 1.0} and pure_ldp_epsilon(spec).epsilon_star == 0.0

    def test_check_pure_on_symbols_beyond_float_range_exits_2(self, capsys, tmp_path):
        doc = {"kernel": {"family": "laplace", "param": 1.0}, "inputs": [0], "outputs": [10**320],
               "supports": {"0": [10**320]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["check-pure", "--spec", str(path)]) == 2
        assert "too large for a float" in capsys.readouterr().err
