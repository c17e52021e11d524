import ast
import inspect
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseldp import (
    DistortionMoments,
    Kernel,
    MechanismSpec,
    SpecError,
    TruncatedParams,
    UnknownInputError,
    clean_bound,
    distortion_moments,
    feasibility_min_support,
    load_spec,
    min_feasible_support,
    ordered_defect,
    sample,
    sample_counts,
    spec_from_dict,
    sweep_support,
    truncated_pmf,
    truncated_spec,
    window_weights,
    worst_case_defect,
)
import sparseldp
from sparseldp import calibration, mechanisms, privacy
from sparseldp.mechanisms import _SAMPLE_CHUNK
from conftest import DUPLICATE_KEY_SPECS, log_weights, one_shot_sample, random_spec


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

    @pytest.mark.parametrize("kernel, distance", [(Kernel.laplace(1e308), 2.0), (Kernel.gaussian(1e-160), 1.0)])
    def test_weights_past_float_range_are_zero_without_a_warning(self, kernel, distance):
        # the suite turns every RuntimeWarning into an error, numpy's overflow warning among them
        assert kernel.log_weight(distance) == -math.inf
        assert kernel.log_weight(np.array([0.0, distance])).tolist() == [0.0, -math.inf]
        window = TruncatedParams(kernel, 5)
        assert window_weights(kernel, 2).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert worst_case_defect(kernel, 5, 1.0, 3) == (1.0, 1)
        assert sample(window, 4, 1, 10).tolist() == [4] * 10
        assert distortion_moments(window) == DistortionMoments(0.0, 0.0)
        assert [row.delta_star for row in sweep_support(kernel, 1.0, 2, [3, 5])] == [1.0, 1.0]
        assert not min_feasible_support(kernel, 1.0, 0.1, 2).feasible
        with pytest.raises(SpecError, match="beyond float range"):  # a spec still refuses a weight of 0
            MechanismSpec(kernel, [0], [0, 2], {0: [0, 2]})

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
            lambda: clean_bound(kernel, 3, 1.0, -1),
            lambda: feasibility_min_support(-1),
        ]
        for call in calls:
            with pytest.raises(SpecError, match="privacy range"):
                call()


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(["laplace", "gaussian"]), st.floats(-100.0, 100.0), st.integers(0, 5000))
    def test_row_masses_are_the_window_weights_over_their_sum(self, family, log10_param, t):
        # the shared formula exp(lw - max lw) shifts a window by max lw = -0.0, which changes no float
        kernel = Kernel(family, 10.0**log10_param)
        w = window_weights(kernel, t)
        support, masses = mechanisms._row(TruncatedParams(kernel, 2 * t + 1), 0)
        assert support == range(-t, t + 1)
        assert masses.tobytes() == (w / w.sum()).tobytes()



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


# input 0 lies outside its own support, so its pmf is shifted by its largest log-weight
FAR_SPEC = MechanismSpec(Kernel.gaussian(1.5), (0, 1), (5, 6, 7, 9), {0: (5, 6, 7, 9), 1: (6, 9)})
C = _SAMPLE_CHUNK


class TestChunkedSampling:
    @pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 3 * C + 7])
    @pytest.mark.parametrize(
        "mechanism, x", [(TruncatedParams(Kernel.laplace(0.5), 41), 3), (FAR_SPEC, 0)], ids=["window", "far-spec"]
    )
    def test_draws_and_counts_equal_one_shot_draws(self, mechanism, x, n):
        draws = sample(mechanism, x, 2024, n)
        assert draws.dtype == np.int64
        assert np.array_equal(draws, one_shot_sample(mechanism, x, 2024, n))
        values, counts = sample_counts(mechanism, x, 2024, n)
        expected_values, expected_counts = np.unique(draws, return_counts=True)
        assert np.array_equal(values, expected_values) and np.array_equal(counts, expected_counts)

    @pytest.mark.parametrize("x", [-(2**63) + 20, 3, 2**63 - 21])
    def test_windows_draw_without_the_pmf_dict(self, monkeypatch, x):
        # the support and masses are arrays; the dict of `truncated_pmf` is the reference only
        params = TruncatedParams(Kernel.laplace(0.5), 41)
        expected = one_shot_sample(params, x, 2024, 3 * C + 7)

        def no_dict(*args):
            raise AssertionError("truncated_pmf was called")

        monkeypatch.setattr(mechanisms, "truncated_pmf", no_dict)
        assert np.array_equal(sample(params, x, 2024, 3 * C + 7), expected)
        values, counts = sample_counts(params, x, 2024, 3 * C + 7)
        assert values[0] >= x - 20 and values[-1] <= x + 20 and counts.sum() == 3 * C + 7

    def test_specs_draw_without_the_pmf_dict(self, monkeypatch):
        # sampling and `pmf_vector` read the row's arrays; `MechanismSpec.pmf` is a view for callers only
        expected = one_shot_sample(FAR_SPEC, 0, 2024, 3 * C + 7)
        expected_values, expected_counts = np.unique(expected, return_counts=True)
        expected_vector = np.array([FAR_SPEC.pmf(0).get(y, 0.0) for y in FAR_SPEC.outputs])

        def no_dict(*args):
            raise AssertionError("MechanismSpec.pmf was called")

        monkeypatch.setattr(MechanismSpec, "pmf", no_dict)
        assert np.array_equal(sample(FAR_SPEC, 0, 2024, 3 * C + 7), expected)
        values, counts = sample_counts(FAR_SPEC, 0, 2024, 3 * C + 7)
        assert np.array_equal(values, expected_values) and np.array_equal(counts, expected_counts)
        assert FAR_SPEC.pmf_vector(0).tobytes() == expected_vector.tobytes()

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_the_output_plus_one_chunk(self):
        # 10**6 draws are 8 MB of output; a one-shot draw holds about three such arrays at once
        params = TruncatedParams(Kernel.laplace(0.5), 41)
        assert self.traced_peak(lambda: sample(params, 0, 1, 10**6)) <= 9e6
        assert self.traced_peak(lambda: sample_counts(params, 0, 1, 10**6)) <= 1e6


ABS_SPEC = MechanismSpec(Kernel.laplace(0.5), (0, 1), (0, 1, 2), {0: (0, 1), 1: (1, 2)})
MATRIX_SPEC = MechanismSpec(
    Kernel.laplace(0.5), (0, 1), (0, 1, 2), {0: (0, 1), 1: (1, 2)}, ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))
)


class TestSymbolLookup:
    @pytest.mark.parametrize("x", [True, 1.0, np.bool_(True), np.float64(1.0), "1", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec, x: spec.support(x),
            lambda spec, x: spec.pmf(x),
            lambda spec, x: spec.pmf_vector(x),
            lambda spec, x: sample(spec, x, 0, 3),
            lambda spec, x: ordered_defect(spec, x, 0, 1.0),
            lambda spec, x: truncated_spec(TruncatedParams(spec.kernel, 3), [5, x]),
        ],
        ids=["support", "pmf", "pmf_vector", "sample", "ordered_defect", "truncated_spec inputs"],
    )
    def test_symbols_that_are_not_integers_rejected(self, call, x):
        # True and 1.0 hash like input 1, so a plain dict lookup would accept them
        with pytest.raises(SpecError, match="must be an integer"):
            call(ABS_SPEC, x)

    def test_numpy_integers_accepted(self):
        assert ABS_SPEC.pmf(np.int64(1)) == ABS_SPEC.pmf(1)
        assert np.array_equal(sample(ABS_SPEC, np.uint8(1), 0, 20), sample(ABS_SPEC, 1, 0, 20))
        assert MATRIX_SPEC.support(np.int32(1)) == (1, 2) and MATRIX_SPEC.pmf(np.int64(1)) == MATRIX_SPEC.pmf(1)

    @pytest.mark.parametrize(
        "inputs, expected",
        [([np.int64(3), np.uint8(7)], (3, 7)), ([2**70], (2**70,)), ((x for x in [0, 4]), (0, 4))],
        ids=["numpy", "past-int64", "generator"],
    )
    def test_truncated_spec_accepts_integer_inputs(self, inputs, expected):
        # each input is checked once into a tuple, so a one-shot iterable is read once
        params = TruncatedParams(Kernel.laplace(0.5), 3)
        spec = truncated_spec(params, inputs)
        assert spec.inputs == expected and all(type(x) is int for x in spec.inputs)
        assert all(spec.pmf(x) == truncated_pmf(params, x) for x in expected)


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

    @pytest.mark.parametrize("field, symbols", [("inputs", (0, 0, 1)), ("outputs", (0, 1, 2, 1))])
    def test_duplicate_inputs(self, field, symbols):
        kw = self.good()
        kw[field] = symbols
        with pytest.raises(SpecError, match=f"{field} contain duplicates"):
            MechanismSpec(**kw)

    @pytest.mark.parametrize("field", ["inputs", "outputs"])
    def test_empty_alphabet(self, field):
        kw = self.good()
        kw[field] = ()
        with pytest.raises(SpecError, match=f"{field} must be nonempty"):
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
        assert spec.distance == ((0.0, 1.0), (1.5, 0.0))

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
            (lambda d: d.update(supports={"0": 5, "1": [0, 1]}), "list of integers"),
            (lambda d: d.update(supports={"0": [0, 1.5], "1": [0, 1]}), "must contain integers"),
            (lambda d: d.update(distance="abs"), "distance must be"),
            (lambda d: d.update(distance=None), "distance must be"),
            (lambda d: d.update(distance={"type": "matrix", "values": [["0", "1"], ["1", "0"]]}), "distance"),
            (lambda d: d.update(distance={"type": "matrix", "values": [[False, True], [True, False]]}), "distance"),
            (lambda d: d.update(distance={"type": "euclid"}), "distance type"),
            (lambda d: d.update(distance={"type": "matrix"}), "matrix"),
            # keys the schema does not name: a misspelled "distance" would fall back to the absolute distance
            (lambda d: d.update(distnace={"type": "matrix", "values": [[0, 5], [5, 0]]}), "spec has .* 'distnace'"),
            (lambda d: d.update(kernel={"family": "laplace", "param": 0.5, "sigma": 1}), "kernel has .* 'sigma'"),
            (lambda d: d.update(distance={"type": "abs", "values": [[0, 1], [1, 0]]}), "distance has .* 'values'"),
            (lambda d: d.update(distance={"type": "matrix", "values": [[0, 1], [1, 0]], "scale": 2}), "'scale'"),
        ],
    )
    def test_first_violated_constraint_is_named(self, mutate, message):
        doc = {k: (dict(v) if isinstance(v, dict) else list(v)) for k, v in self.DOC.items()}
        mutate(doc)
        with pytest.raises(SpecError, match=message):
            spec_from_dict(doc)

    @pytest.mark.parametrize("where", sorted(DUPLICATE_KEY_SPECS))
    def test_duplicate_key_is_named(self, tmp_path, where):
        text, key = DUPLICATE_KEY_SPECS[where]
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(SpecError, match=f"duplicate key '{key}'"):
            load_spec(path)

    def test_document_must_be_an_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            spec_from_dict([])


def test_window_weights_sum_to_the_spec_normalizer():
    for kernel in (Kernel.laplace(0.4), Kernel.gaussian(1.7)):
        for t in (0, 1, 4):
            spec = truncated_spec(TruncatedParams(kernel, 2 * t + 1), [0])
            assert float(window_weights(kernel, t).sum()) == float(np.exp(log_weights(spec, 0)).sum())


def test_public_names_are_unique_and_bound_by_the_star_import():
    names = sparseldp.__all__
    assert len(names) == len(set(names))
    star = {}
    exec("from sparseldp import *", star)  # raises if an entry does not resolve
    del star["__builtins__"]
    assert sorted(star) == sorted(names)


def _top_level_names(module) -> set[str]:
    """Names a module's top-level def, class and assignment statements bind, read from its source."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", [calibration, mechanisms, privacy], ids=lambda m: m.__name__)
def test_each_module_lists_exactly_its_public_definitions_in_all(module):
    # a public call is named once, next to its definition; the package re-exports the three lists
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == {n for n in _top_level_names(module) if not n.startswith("_")}


def test_package_init_defines_nothing_public():
    # the package only re-exports the modules' names
    assert {n for n in _top_level_names(sparseldp) if not n.startswith("__")} == set()
    assert sparseldp.__all__ == calibration.__all__ + mechanisms.__all__ + privacy.__all__


ROOT = pathlib.Path(__file__).resolve().parent.parent
# what a user reads or runs: the README, the CLI, the demos and the benchmark
READERS = [ROOT / "README.md", ROOT / "src" / "sparseldp" / "cli.py"] + [
    path for top in ("demos", "bench") for path in sorted((ROOT / top).rglob("*")) if path.suffix in (".py", ".md")
]


def test_every_public_function_is_read_outside_the_tests():
    # classes and constants are exempt: calls return them
    text = "\n".join(path.read_text(encoding="utf-8") for path in READERS)
    functions = [n for n in sparseldp.__all__ if inspect.isfunction(getattr(sparseldp, n))]
    assert [n for n in functions if not re.search(rf"\b{n}\b", text)] == []


def test_no_public_function_is_named_for_one_kernel_family():
    # a call that serves both families takes a Kernel, so no public name picks one
    functions = [n for n in sparseldp.__all__ if inspect.isfunction(getattr(sparseldp, n))]
    assert [n for n in functions if n.startswith(("laplace_", "gaussian_"))] == []


PUBLIC_CODE = [n for n in sparseldp.__all__ if inspect.isclass(getattr(sparseldp, n))
               or inspect.isfunction(getattr(sparseldp, n))]


@pytest.mark.parametrize("name", PUBLIC_CODE)
def test_public_function_or_class_is_documented(name):
    # a dataclass without a docstring gets its signature as __doc__, so read the source
    assert ast.get_docstring(ast.parse(inspect.getsource(getattr(sparseldp, name))).body[0])
