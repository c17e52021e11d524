"""Sparse locally private channels on integer alphabets.

A channel assigns each input x a probability mass function supported on a
small admissible output set S(x), with mass proportional to a distance
kernel (discrete-Laplace or Gaussian).  Restricting every S(x) to the window
of radius t around x gives the translation-invariant truncated families,
which admit closed forms for normalizers and distortion moments.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

LAPLACE = "laplace"
GAUSSIAN = "gaussian"


class SpecError(ValueError):
    """A channel description or parameter violates a structural constraint."""


class UnknownInputError(SpecError):
    """Lookup of an input symbol the channel does not declare."""


@dataclass(frozen=True)
class Kernel:
    """Distance kernel: weight(d) = exp(-lam * d) or exp(-d^2 / (2 sigma^2)).

    `param` is the inverse temperature lam for the discrete-Laplace family
    and the scale sigma for the Gaussian family; it must be positive.
    """

    family: str
    param: float

    def __post_init__(self):
        if self.family not in (LAPLACE, GAUSSIAN):
            raise SpecError(f"kernel family must be {LAPLACE!r} or {GAUSSIAN!r}, got {self.family!r}")
        if isinstance(self.param, bool) or not (
            isinstance(self.param, numbers.Real) and math.isfinite(self.param) and self.param > 0
        ):
            raise SpecError(f"kernel parameter must be a positive finite number, got {self.param!r}")
        object.__setattr__(self, "param", float(self.param))
        if self.family == GAUSSIAN and 2.0 * self.param * self.param == 0.0:
            # log weights divide by 2 sigma^2, which must not underflow to zero
            raise SpecError(f"gaussian sigma {self.param!r} is too small: 2 sigma^2 underflows to 0")

    @classmethod
    def laplace(cls, lam: float) -> "Kernel":
        return cls(LAPLACE, lam)

    @classmethod
    def gaussian(cls, sigma: float) -> "Kernel":
        return cls(GAUSSIAN, sigma)

    def log_weight(self, distance):
        """Log kernel weight at nonnegative distance(s); accepts scalars or arrays."""
        d = np.asarray(distance, dtype=float)
        if self.family == LAPLACE:
            out = -self.param * d
        else:
            out = -(d * d) / (2.0 * self.param * self.param)
        return out if out.ndim else float(out)

    def weight(self, distance):
        w = np.exp(self.log_weight(distance))
        return w if isinstance(w, np.ndarray) else float(w)


def _check_int(name: str, value, minimum: int | None = None):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and not minimum <= value <= 2**53:  # a size or count; past 2^53 floats skip integers
        raise SpecError(f"{name} must be from {minimum} to 2**53, got {value}")
    return int(value)


def _check_epsilon(epsilon) -> float:
    if isinstance(epsilon, bool) or not (isinstance(epsilon, numbers.Real) and math.isfinite(epsilon) and epsilon >= 0):
        raise SpecError(f"epsilon must be a nonnegative finite number, got {epsilon!r}")
    return float(epsilon)


@dataclass(frozen=True, eq=False)
class MechanismSpec:
    """A sparse channel: kernel, finite alphabets, and per-input supports.

    `distance` is None for |x - y| on the integers, or a matrix of
    nonnegative reals indexed by (input position, output position) with
    zero diagonal wherever an input also appears as an output.  Validation
    also builds each input's log kernel weights over S(x), in support order,
    once; `normalizer`, `pmf` and the pure-level computations all read them.
    Instances are immutable after validation and safe to share across threads.
    """

    kernel: Kernel
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    supports: Mapping[int, tuple[int, ...]]
    distance: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(_check_int("input symbol", x) for x in self.inputs))
        object.__setattr__(self, "outputs", tuple(_check_int("output symbol", y) for y in self.outputs))
        if not self.inputs:
            raise SpecError("inputs must be nonempty")
        if not self.outputs:
            raise SpecError("outputs must be nonempty")
        if len(set(self.inputs)) != len(self.inputs):
            raise SpecError("inputs contain duplicates")
        index = {y: j for j, y in enumerate(self.outputs)}
        if len(index) != len(self.outputs):
            raise SpecError("outputs contain duplicates")
        supports, columns = {}, {}
        for x, sup in dict(self.supports).items():
            x = _check_int("support key", x)
            if x not in self.inputs:
                raise SpecError(f"supports declare unknown input {x}")
            sup = tuple(sorted({_check_int("support element", y) for y in sup}))
            if not sup:
                raise SpecError(f"support of input {x} is empty")
            cols = [index.get(y) for y in sup]
            if None in cols:
                raise SpecError(f"support of input {x} contains {sup[cols.index(None)]} which is not an output")
            supports[x], columns[x] = sup, cols
        missing = [x for x in self.inputs if x not in supports]
        if missing:
            raise SpecError(f"input {missing[0]} has no support set")
        object.__setattr__(self, "supports", supports)
        if self.distance is not None:
            rows = tuple(tuple(row) for row in self.distance)
            if len(rows) != len(self.inputs) or any(len(r) != len(self.outputs) for r in rows):
                raise SpecError(
                    f"distance matrix must be {len(self.inputs)} x {len(self.outputs)} (inputs x outputs)"
                )
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v) and v >= 0):
                        raise SpecError(f"distance[{i}][{j}] must be a finite number >= 0, got {v!r}")
            rows = tuple(tuple(float(v) for v in row) for row in rows)
            for i, x in enumerate(self.inputs):
                if x in index and rows[i][index[x]] != 0.0:
                    raise SpecError(f"distance from input {x} to itself must be 0")
            object.__setattr__(self, "distance", rows)
        log_weights = {}
        for i, x in enumerate(self.inputs):
            if self.distance is None:
                try:
                    d = np.abs(np.array(supports[x], dtype=object) - x).astype(float)
                except OverflowError:
                    raise SpecError(f"a distance from input {x} to its support is too large for a float") from None
            else:
                d = np.array(self.distance[i])[columns[x]]
            log_weights[x] = self.kernel.log_weight(d)
            if not np.isfinite(log_weights[x]).all():
                raise SpecError(f"kernel weights of input {x} are beyond float range: a distance is too large")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_log_weights", log_weights)

    def support(self, x: int) -> tuple[int, ...]:
        """Admissible outputs for input x, ascending."""
        try:
            return self.supports[x]
        except KeyError:
            raise UnknownInputError(f"input {x} is not declared by this channel") from None

    def dist(self, x: int, y: int) -> float:
        try:
            if self.distance is None:
                return float(abs(x - y))
            return self.distance[self.inputs.index(x)][self._index[y]]
        except OverflowError:
            raise SpecError(f"distance from {x} to {y} is too large for a float") from None
        except ValueError:
            raise UnknownInputError(f"input {x} is not declared by this channel") from None
        except KeyError:
            raise SpecError(f"output {y} is not declared by this channel") from None

    def normalizer(self, x: int) -> float:
        """Sum of kernel weights over S(x); at least 1 when x is in its own support."""
        self.support(x)
        return float(np.exp(self._log_weights[x]).sum())

    def pmf(self, x: int) -> dict[int, float]:
        """Output distribution for input x; keys are exactly S(x).

        The weights are exp(lw - max lw): the largest is exactly 1, so the sum
        cannot underflow however far S(x) lies from x.  When x is in S(x) the
        shift is 0 and the masses are exactly exp(lw) / sum.
        """
        sup = self.support(x)
        w = np.exp(self._log_weights[x] - self._log_weights[x].max())
        return dict(zip(sup, (w / w.sum()).tolist()))

    def pmf_vector(self, x: int) -> np.ndarray:
        """Masses aligned with `outputs`, zero off the support."""
        p = np.zeros(len(self.outputs))
        for y, mass in self.pmf(x).items():
            p[self._index[y]] = mass
        return p


@dataclass(frozen=True)
class TruncatedParams:
    """Translation-invariant window family with support {x - t, ..., x + t}.

    `s` is the odd support size, t = (s - 1) / 2 the window radius.
    """

    kernel: Kernel
    s: int

    def __post_init__(self):
        s = _check_int("support size", self.s, 1)
        if s % 2 == 0:
            raise SpecError(f"support size must be odd so the window radius is an integer, got {s}")
        object.__setattr__(self, "s", s)

    @property
    def t(self) -> int:
        """Window radius (s - 1) / 2."""
        return (self.s - 1) // 2


@dataclass(frozen=True)
class DistortionMoments:
    """Expected absolute and squared deviation of the output from the input."""

    r1: float
    r2: float


def window_weights(kernel: Kernel, radius: int) -> np.ndarray:
    """Kernel weights at offsets -radius..radius, ascending."""
    radius = _check_int("radius", radius, 0)
    k = np.abs(np.arange(-radius, radius + 1)).astype(float)
    return np.exp(kernel.log_weight(k))


def window_normalizer(kernel: Kernel, radius: int) -> float:
    return float(window_weights(kernel, radius).sum())


def truncated_pmf(params: TruncatedParams, x: int) -> dict[int, float]:
    """Output distribution of the window family at input x.

    Mass at offset k is weight(|k|) divided by the window normalizer, so the
    result at any x is the result at 0 shifted by x, with identical floats.
    """
    x = _check_int("input", x)
    t = params.t
    w = window_weights(params.kernel, t)
    c = float(w.sum())
    return {x + k: float(w[k + t] / c) for k in range(-t, t + 1)}


def truncated_spec(params: TruncatedParams, inputs: Sequence[int]) -> MechanismSpec:
    """Materialize the window family as an explicit finite spec on `inputs`."""
    t = params.t
    supports = {int(x): tuple(range(int(x) - t, int(x) + t + 1)) for x in inputs}
    outputs = tuple(sorted({y for sup in supports.values() for y in sup}))
    return MechanismSpec(params.kernel, tuple(int(x) for x in inputs), outputs, supports)


def distortion_moments(params: TruncatedParams) -> DistortionMoments:
    """Distortion moments r1 = 2 sum_j j W(j) / C_t and r2 = 2 sum_j j^2 W(j) / C_t over j = 1..t.

    C_t is `np.sum` over the full window; design searches and sweeps read the same floats from their table."""
    return _window_moments(np.exp(params.kernel.log_weight(np.arange(params.t + 1, dtype=float))))


def _window_moments(weights: np.ndarray) -> DistortionMoments:
    """The moments of `distortion_moments` from the kernel weights W(0..t)."""
    tail = weights[1:]
    c = float(np.concatenate((tail[::-1], weights)).sum())
    j = np.arange(1, weights.size, dtype=float)
    return DistortionMoments(float(2.0 * (j * tail).sum() / c), float(2.0 * (j * j * tail).sum() / c))


def sample(mechanism: Union[MechanismSpec, TruncatedParams], x: int, seed: int, n: int) -> np.ndarray:
    """Draw n outputs for input x, deterministic for a fixed seed.

    Inverse-CDF over the support in ascending output order; the cumulative
    boundary is inclusive on the left, so u == F(y_{i-1}) selects y_i.
    """
    n = _check_int("sample count", n, 0)
    if isinstance(mechanism, TruncatedParams):
        masses = truncated_pmf(mechanism, x)
    else:
        masses = mechanism.pmf(x)
    ys = np.array(sorted(masses), dtype=np.int64)
    p = np.array([masses[int(y)] for y in ys])
    cum = np.cumsum(p)
    u = np.random.default_rng(seed).random(n)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(ys) - 1)  # rounding in cum[-1] must not index past the top atom
    return ys[idx]


def spec_from_dict(doc: Mapping) -> MechanismSpec:
    """Build a MechanismSpec from its JSON document form.

    Schema::

        {
          "kernel":   {"family": "laplace" | "gaussian", "param": number},
          "inputs":   [int, ...],
          "outputs":  [int, ...],
          "supports": {"<input>": [int, ...], ...},
          "distance": {"type": "abs"} | {"type": "matrix", "values": [[number]]}
        }

    `distance` is optional and defaults to absolute difference.
    """
    if not isinstance(doc, Mapping):
        raise SpecError("spec document must be a JSON object")
    kernel_doc = doc.get("kernel")
    if not isinstance(kernel_doc, Mapping) or "family" not in kernel_doc or "param" not in kernel_doc:
        raise SpecError('spec needs "kernel": {"family": ..., "param": ...}')
    kernel = Kernel(kernel_doc["family"], kernel_doc["param"])

    for key in ("inputs", "outputs"):
        if not isinstance(doc.get(key), list):
            raise SpecError(f'spec needs "{key}": [int, ...]')
        for v in doc[key]:
            if isinstance(v, bool) or not isinstance(v, int):
                raise SpecError(f"{key} must contain integers, got {v!r}")
    supports_doc = doc.get("supports")
    if not isinstance(supports_doc, Mapping):
        raise SpecError('spec needs "supports": {"<input>": [int, ...]}')
    supports = {}
    for key, sup in supports_doc.items():
        try:
            x = int(key)
        except (TypeError, ValueError):
            x = None
        if x is None or str(x) != key:  # "01", " 1" and "+1" would collide with "1"
            raise SpecError(f"supports key {key!r} is not an integer written in canonical form")
        if not isinstance(sup, list):
            raise SpecError(f"support of input {x} must be a list of integers")
        for v in sup:
            if isinstance(v, bool) or not isinstance(v, int):
                raise SpecError(f"support of input {x} must contain integers, got {v!r}")
        supports[x] = tuple(sup)

    distance = None
    dist_doc = doc.get("distance")
    if dist_doc is not None:
        if not isinstance(dist_doc, Mapping) or "type" not in dist_doc:
            raise SpecError('distance must be {"type": "abs"} or {"type": "matrix", "values": [[number]]}')
        if dist_doc["type"] == "matrix":
            values = dist_doc.get("values")
            if not isinstance(values, list) or not all(isinstance(r, list) for r in values):
                raise SpecError("distance matrix needs numeric values as a list of rows")
            distance = values
        elif dist_doc["type"] != "abs":
            raise SpecError(f"distance type must be \"abs\" or \"matrix\", got {dist_doc['type']!r}")

    return MechanismSpec(kernel, tuple(doc["inputs"]), tuple(doc["outputs"]), supports, distance)


def load_spec(path) -> MechanismSpec:
    """Read and validate a MechanismSpec JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise SpecError(f"invalid JSON in {path}: {err}") from None
    return spec_from_dict(doc)
