import math

import numpy as np
import pytest

from sparseldp import (
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    UnknownInputError,
    distortion_moments,
    feasibility_min_support,
    laplace_clean_bound,
    load_spec,
    min_feasible_support,
    sample,
    spec_from_dict,
    sweep_support,
    truncated_pmf,
    truncated_spec,
    window_normalizer,
    worst_case_defect,
)
from conftest import random_spec


def laplace_window(lam, t, inputs=(0,)):
    return truncated_spec(TruncatedParams(Kernel.laplace(lam), 2 * t + 1), inputs)


class TestKernelValidation:
    def test_bad_family(self):
        with pytest.raises(SpecError):
            Kernel("cauchy", 1.0)

    @pytest.mark.parametrize("param", [0.0, -1.0, float("nan"), float("inf"), True, False])
    def test_bad_param(self, param):
        with pytest.raises(SpecError):
            Kernel("laplace", param)
        with pytest.raises(SpecError):
            Kernel.laplace(param)
        with pytest.raises(SpecError):
            Kernel.gaussian(param)

    def test_sigma_whose_square_underflows_rejected(self):
        with pytest.raises(SpecError, match="underflows"):
            Kernel.gaussian(1e-200)
        assert Kernel.gaussian(1e-150).param == 1e-150
        assert Kernel.laplace(1e-200).param == 1e-200

    def test_integer_param_is_stored_as_float(self):
        assert Kernel.laplace(1).param == 1.0 and isinstance(Kernel.laplace(1).param, float)
        assert Kernel("gaussian", 2) == Kernel.gaussian(2.0)
        # numpy scalars are numbers too; numpy bools are not
        assert Kernel.laplace(np.float32(0.5)) == Kernel.laplace(0.5)
        assert type(Kernel("gaussian", np.int64(3)).param) is float
        with pytest.raises(SpecError):
            Kernel.laplace(np.bool_(True))

    @pytest.mark.parametrize("s", [0, 2, 4, -3])
    def test_even_or_nonpositive_support_size_rejected(self, s):
        with pytest.raises(SpecError):
            TruncatedParams(Kernel.laplace(1.0), s)

    def test_non_integer_support_size_rejected(self):
        with pytest.raises(SpecError):
            TruncatedParams(Kernel.laplace(1.0), 3.0)

    def test_negative_range_rejected(self):
        # the window family carries no range; each call that takes one checks it
        kernel = Kernel.laplace(1.0)
        calls = [
            lambda: worst_case_defect(kernel, 3, 1.0, -1),
            lambda: min_feasible_support(kernel, 1.0, 0.5, -1),
            lambda: sweep_support(kernel, 1.0, -1, [3]),
            lambda: laplace_clean_bound(1.0, 1.0, 3, -1),
            lambda: feasibility_min_support(-1),
        ]
        for call in calls:
            with pytest.raises(SpecError, match="privacy range"):
                call()


class TestNormalizer:
    def test_laplace_three_term(self):
        spec = laplace_window(0.5, 1)
        assert spec.normalizer(0) == pytest.approx(1.0 + 2.0 * math.exp(-0.5), abs=1e-15)

    def test_gaussian_three_term(self):
        spec = truncated_spec(TruncatedParams(Kernel.gaussian(2.0), 3), [0])
        assert spec.normalizer(0) == pytest.approx(1.0 + 2.0 * math.exp(-1.0 / 8.0), abs=1e-15)

    def test_singleton_support(self):
        k = Kernel.laplace(1.0)
        spec = MechanismSpec(k, (4,), (4,), {4: (4,)})
        assert spec.normalizer(4) == 1.0

    def test_unknown_input(self):
        spec = laplace_window(0.5, 1)
        with pytest.raises(UnknownInputError):
            spec.normalizer(99)

    def test_at_least_one_when_self_supported(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_spec(rng)
            for x in spec.inputs:
                if x in spec.support(x):
                    assert spec.normalizer(x) >= 1.0


class TestPmf:
    def test_direct_normalization(self):
        spec = laplace_window(0.5, 1)
        c = 1.0 + 2.0 * math.exp(-0.5)
        p = spec.pmf(0)
        assert p[0] == pytest.approx(1.0 / c, abs=1e-15)
        assert p[-1] == pytest.approx(math.exp(-0.5) / c, abs=1e-15)
        assert p[1] == p[-1]

    def test_degenerate_support(self):
        spec = MechanismSpec(Kernel.gaussian(1.0), (3,), (3,), {3: (3,)})
        assert spec.pmf(3) == {3: 1.0}

    def test_translation_invariance_exact(self):
        spec = truncated_spec(TruncatedParams(Kernel.gaussian(2.0), 3), [0, 5])
        base = spec.pmf(0)
        shifted = spec.pmf(5)
        for y, mass in base.items():
            assert shifted[y + 5] == mass  # identical floating-point expressions

    def test_sums_to_one_and_keys_are_support(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            spec = random_spec(rng)
            for x in spec.inputs:
                p = spec.pmf(x)
                assert tuple(sorted(p)) == spec.support(x)
                assert abs(sum(p.values()) - 1.0) <= 1e-12
                assert all(v > 0 for v in p.values())

    def test_unknown_input(self):
        spec = laplace_window(0.5, 1)
        with pytest.raises(UnknownInputError):
            spec.pmf(-17)


class TestTruncatedPmf:
    def test_laplace_values(self):
        p = truncated_pmf(TruncatedParams(Kernel.laplace(0.5), 3), 0)
        c = 1.0 + 2.0 * math.exp(-0.5)
        assert p[0] == pytest.approx(1.0 / c, abs=1e-15)
        assert p[-1] == pytest.approx(math.exp(-0.5) / c, abs=1e-15)
        assert p[0] == pytest.approx(0.45186, abs=1e-5)
        assert p[1] == pytest.approx(0.27406, abs=1e-5)

    def test_point_mass(self):
        assert truncated_pmf(TruncatedParams(Kernel.gaussian(1.0), 1), 9) == {9: 1.0}

    def test_gaussian_proportions(self):
        p = truncated_pmf(TruncatedParams(Kernel.gaussian(2.0), 3), 0)
        assert p[1] / p[0] == pytest.approx(math.exp(-1.0 / 8.0), abs=1e-15)

    @pytest.mark.parametrize("kernel", [Kernel.laplace(0.7), Kernel.gaussian(1.3)])
    def test_symmetry_exact(self, kernel):
        p = truncated_pmf(TruncatedParams(kernel, 9), 0)
        for k in range(1, 5):
            assert p[k] == p[-k]

    @pytest.mark.parametrize("kernel", [Kernel.laplace(0.5), Kernel.gaussian(2.0)])
    @pytest.mark.parametrize("s", [1, 3, 7])
    @pytest.mark.parametrize("x", [-4, 0, 11])
    def test_matches_materialized_spec(self, kernel, s, x):
        params = TruncatedParams(kernel, s)
        direct = truncated_pmf(params, x)
        via_spec = truncated_spec(params, [x]).pmf(x)
        assert direct == via_spec

    def test_translation_invariance_exact(self):
        params = TruncatedParams(Kernel.laplace(0.8), 7)
        base = truncated_pmf(params, 0)
        moved = truncated_pmf(params, 42)
        assert all(moved[k + 42] == base[k] for k in base)


class TestDistortionMoments:
    @pytest.mark.parametrize(
        "kernel", [Kernel.laplace(0.25), Kernel.laplace(1.0), Kernel.gaussian(1.0), Kernel.gaussian(2.0)]
    )
    @pytest.mark.parametrize("s", [1, 3, 5, 9, 15])
    def test_matches_brute_force_expectation(self, kernel, s):
        params = TruncatedParams(kernel, s)
        m = distortion_moments(params)
        p = truncated_pmf(params, 0)
        r1 = sum(abs(k) * v for k, v in p.items())
        r2 = sum(k * k * v for k, v in p.items())
        assert m.r1 == pytest.approx(r1, abs=1e-12)
        assert m.r2 == pytest.approx(r2, abs=1e-12)

    def test_point_mass_is_zero(self):
        m = distortion_moments(TruncatedParams(Kernel.gaussian(3.0), 1))
        assert (m.r1, m.r2) == (0.0, 0.0)

    def test_monotone_in_support_size(self):
        for kernel in (Kernel.laplace(0.5), Kernel.gaussian(1.5)):
            rows = [distortion_moments(TruncatedParams(kernel, s)) for s in range(1, 22, 2)]
            for a, b in zip(rows, rows[1:]):
                assert b.r1 >= a.r1 - 1e-15
                assert b.r2 >= a.r2 - 1e-15

    def test_first_moment_squared_below_second(self):
        for kernel in (Kernel.laplace(0.3), Kernel.gaussian(0.8)):
            for s in range(1, 30, 2):
                m = distortion_moments(TruncatedParams(kernel, s))
                assert m.r1 * m.r1 <= m.r2 + 1e-12


class TestSample:
    def test_degenerate(self):
        params = TruncatedParams(Kernel.laplace(0.5), 1)
        assert sample(params, 4, 123, 5).tolist() == [4, 4, 4, 4, 4]

    def test_deterministic_for_seed(self):
        params = TruncatedParams(Kernel.laplace(0.5), 5)
        a = sample(params, 0, 2024, 1000)
        b = sample(params, 0, 2024, 1000)
        assert np.array_equal(a, b)
        c = sample(params, 0, 2025, 1000)
        assert not np.array_equal(a, c)

    def test_draws_stay_in_support(self):
        params = TruncatedParams(Kernel.gaussian(1.0), 7)
        draws = sample(params, 10, 5, 500)
        assert set(draws.tolist()) <= set(range(7, 14))

    def test_spec_sampling(self):
        spec = laplace_window(0.5, 2, inputs=(0, 1))
        draws = sample(spec, 1, 9, 200)
        assert set(draws.tolist()) <= set(spec.support(1))

    def test_frequencies_approach_pmf(self):
        params = TruncatedParams(Kernel.laplace(0.5), 5)
        n = 40000
        draws = sample(params, 0, 77, n)
        p = truncated_pmf(params, 0)
        values, counts = np.unique(draws, return_counts=True)
        freq = dict(zip(values.tolist(), (counts / n).tolist()))
        assert max(abs(freq.get(k, 0.0) - v) for k, v in p.items()) < 0.02

    def test_zero_draws(self):
        assert sample(TruncatedParams(Kernel.laplace(1.0), 3), 0, 1, 0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(SpecError):
            sample(TruncatedParams(Kernel.laplace(1.0), 3), 0, 1, -1)

    def test_unknown_input_on_spec(self):
        spec = laplace_window(0.5, 1)
        with pytest.raises(UnknownInputError):
            sample(spec, 3, 0, 1)


class TestSpecValidation:
    def good(self):
        return dict(
            kernel=Kernel.laplace(1.0),
            inputs=(0, 1),
            outputs=(0, 1, 2),
            supports={0: (0, 1), 1: (1, 2)},
        )

    def test_empty_support(self):
        kw = self.good()
        kw["supports"] = {0: (), 1: (1,)}
        with pytest.raises(SpecError, match="empty"):
            MechanismSpec(**kw)

    def test_support_outside_outputs(self):
        kw = self.good()
        kw["supports"] = {0: (0, 9), 1: (1,)}
        with pytest.raises(SpecError, match="not an output"):
            MechanismSpec(**kw)

    def test_missing_support(self):
        kw = self.good()
        kw["supports"] = {0: (0, 1)}
        with pytest.raises(SpecError, match="no support"):
            MechanismSpec(**kw)

    def test_unknown_support_key(self):
        kw = self.good()
        kw["supports"] = {0: (0, 1), 1: (1,), 5: (2,)}
        with pytest.raises(SpecError, match="unknown input"):
            MechanismSpec(**kw)

    def test_duplicate_inputs(self):
        kw = self.good()
        kw["inputs"] = (0, 0, 1)
        with pytest.raises(SpecError, match="duplicates"):
            MechanismSpec(**kw)

    def test_matrix_shape(self):
        kw = self.good()
        kw["distance"] = ((0.0, 1.0), (1.0, 0.0))
        with pytest.raises(SpecError, match="distance matrix"):
            MechanismSpec(**kw)

    def test_matrix_negative_entry(self):
        kw = self.good()
        kw["distance"] = ((0.0, 1.0, -2.0), (1.0, 0.0, 1.0))
        with pytest.raises(SpecError, match=">= 0"):
            MechanismSpec(**kw)

    @pytest.mark.parametrize("entry", [False, True, "0", None])
    def test_matrix_entry_must_be_a_real_number(self, entry):
        kw = self.good()
        kw["distance"] = ((0.0, 1.0, entry), (1.0, 0.0, 1.0))
        with pytest.raises(SpecError, match=r"distance\[0\]\[2\]"):
            MechanismSpec(**kw)

    def test_matrix_nonzero_self_distance(self):
        kw = self.good()
        kw["distance"] = ((0.5, 1.0, 2.0), (1.0, 0.0, 1.0))
        with pytest.raises(SpecError, match="itself"):
            MechanismSpec(**kw)

    def test_matrix_distance_used_by_pmf(self):
        kw = self.good()
        kw["distance"] = ((0.0, 2.0, 3.0), (2.0, 0.0, 0.5))
        spec = MechanismSpec(**kw)
        p = spec.pmf(1)
        z = math.exp(0.0) + math.exp(-0.5)
        assert p[1] == pytest.approx(1.0 / z, abs=1e-15)
        assert p[2] == pytest.approx(math.exp(-0.5) / z, abs=1e-15)


class TestSpecJson:
    DOC = {
        "kernel": {"family": "laplace", "param": 0.5},
        "inputs": [0, 1],
        "outputs": [0, 1],
        "supports": {"0": [0, 1], "1": [0, 1]},
    }

    def test_parse_defaults_to_abs_distance(self):
        spec = spec_from_dict(self.DOC)
        assert spec.distance is None
        assert spec.kernel == Kernel.laplace(0.5)
        assert spec.support(1) == (0, 1)

    def test_parse_matrix_distance(self):
        doc = dict(self.DOC)
        doc["distance"] = {"type": "matrix", "values": [[0.0, 1.0], [1.5, 0.0]]}
        spec = spec_from_dict(doc)
        assert spec.dist(1, 0) == 1.5

    def test_load_round_trip(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.DOC))
        spec = load_spec(path)
        assert spec.inputs == (0, 1)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(kernel={"family": "cauchy", "param": 1.0}), "kernel family"),
            (lambda d: d.update(kernel={"family": "laplace"}), "kernel"),
            (lambda d: d.update(kernel={"family": "laplace", "param": -1.0}), "positive"),
            (lambda d: d.update(inputs="01"), "inputs"),
            (lambda d: d.update(inputs=[0, 1.5]), "integers"),
            (lambda d: d.pop("supports"), "supports"),
            (lambda d: d.update(supports={"zero": [0]}), "not an integer"),
            (lambda d: d.update(supports={"1": [0], "01": [0, 1]}), "canonical"),
            (lambda d: d.update(supports={"0": [0, 1], " 1": [0, 1]}), "canonical"),
            (lambda d: d.update(supports={"0": [0, 1], "+1": [0, 1]}), "canonical"),
            (lambda d: d.update(distance={"type": "matrix", "values": [["0", "1"], ["1", "0"]]}), "distance"),
            (lambda d: d.update(distance={"type": "matrix", "values": [[False, True], [True, False]]}), "distance"),
            (lambda d: d.update(distance={"type": "euclid"}), "distance type"),
            (lambda d: d.update(distance={"type": "matrix"}), "matrix"),
        ],
    )
    def test_first_violated_constraint_is_named(self, mutate, message):
        doc = {k: (dict(v) if isinstance(v, dict) else list(v)) for k, v in self.DOC.items()}
        mutate(doc)
        with pytest.raises(SpecError, match=message):
            spec_from_dict(doc)


def test_window_normalizer_matches_spec():
    for kernel in (Kernel.laplace(0.4), Kernel.gaussian(1.7)):
        for t in (0, 1, 4):
            spec = truncated_spec(TruncatedParams(kernel, 2 * t + 1), [0])
            assert window_normalizer(kernel, t) == spec.normalizer(0)
