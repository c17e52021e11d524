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
import os
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
    """Distance kernel: the weight at distance d is exp(-lam * d) or exp(-d^2 / (2 sigma^2)).

    `param` is the inverse temperature lam for the discrete-Laplace family
    and the scale sigma for the Gaussian family; it must be positive.
    """

    family: str
    param: float

    def __post_init__(self):
        if self.family not in (LAPLACE, GAUSSIAN):
            raise SpecError(f"kernel family must be {LAPLACE!r} or {GAUSSIAN!r}, got {self.family!r}")
        param = _check_real("kernel parameter", self.param, "be a positive finite number", lambda v: v > 0)
        if self.family == GAUSSIAN and 2.0 * param * param == 0.0:  # log weights divide by 2 sigma^2
            raise SpecError(f"gaussian sigma {param!r} is too small: 2 sigma^2 underflows to 0")
        object.__setattr__(self, "param", param)

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


def _check_int(name: str, value, minimum: int | None = None):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and not minimum <= value <= 2**53:  # a size or count; past 2^53 floats skip integers
        raise SpecError(f"{name} must be from {minimum} to 2**53, got {value}")
    return int(value)


def _check_list(name: str, values, of: str = "integers") -> tuple:
    """`values` as a tuple; SpecError if it is not a collection or, when `of` is "integers", holds a non-int or bool."""
    try:
        items = tuple(values)  # a string passes here, and every item check rejects its characters
    except TypeError:  # None, a number or another value that cannot be iterated
        raise SpecError(f"{name} must be a list of {of}, got {values!r}") from None
    for v in items if of == "integers" else ():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise SpecError(f"{name} must contain integers, got {v!r}")
    return tuple(map(int, items)) if of == "integers" else items


def _check_real(name: str, value, requirement: str, accept=lambda v: v >= 0, where=()) -> float:
    """`value` as a float if it is a real number, not a bool, whose float is finite and passes `accept` (>= 0)."""
    exact = type(value) is float or type(value) is int  # before the ABC check, which is slow and runs per call
    try:
        real = float(value) if exact or isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer or fraction past float range
        real = math.nan
    if math.isfinite(real) and accept(real):
        return real
    raise SpecError(f"{name.format(*where)} must {requirement}, got {value!r}")  # `where` is formatted only on failure


def _check_epsilon(epsilon) -> float:
    return _check_real("epsilon", epsilon, "be a nonnegative finite number")


def _check_delta(delta) -> float:
    return _check_real("target delta", delta, "lie in (0, 1]", lambda v: 0 < v <= 1)


def _check_instance(name: str, value, cls: type):
    """`value` itself if it is a `cls` (a kernel, window or channel), which checked its fields when it was built."""
    if not isinstance(value, cls):
        raise SpecError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class MechanismSpec:
    """A sparse channel: kernel, finite alphabets, and per-input supports.

    `distance` is None for |x - y| on the integers, or a matrix of nonnegative
    reals indexed by (input position, output position) with zero diagonal
    wherever an input also appears as an output.  Validation checks every symbol
    and shape, for `spec_from_dict` too, and raises SpecError on any violation.
    It also keeps each input's output columns and log kernel weights over S(x),
    in support order, once; every pmf, sampling and the pure level read them.
    Instances are immutable after validation and safe to share across threads.
    """

    kernel: Kernel
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    supports: Mapping[int, tuple[int, ...]]
    distance: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        _check_instance("kernel", self.kernel, Kernel)
        for field in ("inputs", "outputs"):
            symbols = _check_list(field, getattr(self, field))
            if not symbols:
                raise SpecError(f"{field} must be nonempty")
            if len(set(symbols)) != len(symbols):
                raise SpecError(f"{field} contain duplicates")
            object.__setattr__(self, field, symbols)
        index = {y: j for j, y in enumerate(self.outputs)}
        try:
            declared = dict(self.supports)
        except (TypeError, ValueError):  # neither a mapping nor (input, support) pairs
            raise SpecError(f"supports must map each input to a list of integers, got {self.supports!r}") from None
        supports, columns = {}, {}
        for x, sup in declared.items():
            x = _check_int("support key", x)
            if x not in self.inputs:
                raise SpecError(f"supports declare unknown input {x}")
            sup = tuple(sorted(set(_check_list(f"support of input {x}", sup))))
            if not sup:
                raise SpecError(f"support of input {x} is empty")
            cols = [index.get(y) for y in sup]
            if None in cols:
                raise SpecError(f"support of input {x} contains {sup[cols.index(None)]} which is not an output")
            supports[x], columns[x] = sup, np.array(cols)
        missing = [x for x in self.inputs if x not in supports]
        if missing:
            raise SpecError(f"input {missing[0]} has no support set")
        object.__setattr__(self, "supports", supports)
        if self.distance is not None:
            rows = tuple(
                tuple(
                    _check_real("distance[{}][{}]", v, "be a finite number >= 0", where=(i, j))
                    for j, v in enumerate(_check_list(f"distance[{i}]", r, "numbers"))
                )
                for i, r in enumerate(_check_list("distance", self.distance, "rows"))
            )
            if len(rows) != len(self.inputs) or any(len(r) != len(self.outputs) for r in rows):
                raise SpecError(f"distance matrix must be {len(self.inputs)} x {len(self.outputs)} (inputs x outputs)")
            for i, x in enumerate(self.inputs):
                if x in index and rows[i][index[x]] != 0.0:
                    raise SpecError(f"distance from input {x} to itself must be 0")
            object.__setattr__(self, "distance", rows)
        input_rows = {}  # input -> (output columns of S(x), log kernel weights over S(x))
        for i, x in enumerate(self.inputs):
            if self.distance is None:
                try:
                    d = np.abs(np.array(supports[x], dtype=object) - x).astype(float)
                except OverflowError:
                    raise SpecError(f"a distance from input {x} to its support is too large for a float") from None
            else:
                d = np.array(self.distance[i])[columns[x]]
            input_rows[x] = columns[x], self.kernel.log_weight(d)
            if not np.isfinite(input_rows[x][1]).all():
                raise SpecError(f"kernel weights of input {x} are beyond float range: a distance is too large")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rows", input_rows)

    def support(self, x: int) -> tuple[int, ...]:
        """Admissible outputs for input x, ascending; x must be a declared integer input (not a bool)."""
        try:
            return self.supports[_check_int("input symbol", x)]
        except KeyError:
            raise UnknownInputError(f"input {x} is not declared by this channel") from None

    def pmf(self, x: int) -> dict[int, float]:
        """Output distribution for input x; keys are exactly S(x), masses those of `_row`."""
        support, masses = _row(self, x)
        return dict(zip(support, masses.tolist()))

    def pmf_vector(self, x: int) -> np.ndarray:
        """Masses aligned with `outputs`, zero off the support."""
        p = np.zeros(len(self.outputs))
        p[self._rows[int(x)][0]] = _row(self, x)[1]  # the right side runs first, so it checks x before int(x)
        return p


@dataclass(frozen=True)
class TruncatedParams:
    """Translation-invariant window family with support {x - t, ..., x + t}.

    `s` is the odd support size, t = (s - 1) / 2 the window radius.
    """

    kernel: Kernel
    s: int

    def __post_init__(self):
        _check_instance("kernel", self.kernel, Kernel)
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
    return np.exp(_check_instance("kernel", kernel, Kernel).log_weight(k))


def truncated_pmf(params: TruncatedParams, x: int) -> dict[int, float]:
    """Output distribution of the window family at input x.

    Mass at offset k is weight(|k|) divided by the window normalizer, so the
    result at any x is the result at 0 shifted by x, with identical floats.
    """
    support, masses = _row(params, x)
    return dict(zip(support, masses.tolist()))


def _row(mechanism: Union[MechanismSpec, TruncatedParams], x: int) -> tuple[Sequence[int], np.ndarray]:
    """Input x's ascending support (a `range` for a window) and its masses w / w.sum(), one float array.

    w = exp(lw - max lw) peaks at exactly 1, so the sum cannot underflow however far S(x) lies from x.  When x
    is in S(x), as in every window, max lw is -0.0 and w is exp(lw): for a window, `window_weights` bit for bit.
    """
    if isinstance(mechanism, TruncatedParams):
        x, t = _check_int("input", x), mechanism.t
        support, lw = range(x - t, x + t + 1), mechanism.kernel.log_weight(np.abs(np.arange(-t, t + 1, dtype=float)))
    elif isinstance(mechanism, MechanismSpec):
        support, lw = mechanism.support(x), mechanism._rows[int(x)][1]
    else:
        raise SpecError(f"mechanism must be a MechanismSpec or TruncatedParams, got {mechanism!r}")
    w = lw - lw.max()
    np.exp(w, out=w)  # in place, as a window's row can hold millions of masses
    return support, np.divide(w, w.sum(), out=w)


def truncated_spec(params: TruncatedParams, inputs: Sequence[int]) -> MechanismSpec:
    """Materialize the window family as an explicit finite spec on `inputs`."""
    t = _check_instance("window", params, TruncatedParams).t
    inputs = tuple(_check_int("input symbol", x) for x in _check_list("inputs", inputs, "input symbols"))
    supports = {x: tuple(range(x - t, x + t + 1)) for x in inputs}
    outputs = tuple(sorted({y for sup in supports.values() for y in sup}))
    return MechanismSpec(params.kernel, inputs, outputs, supports)


def distortion_moments(params: TruncatedParams) -> DistortionMoments:
    """Distortion moments r1 = 2 sum_j j W(j) / C_t and r2 = 2 sum_j j^2 W(j) / C_t over j = 1..t.

    C_t is `np.sum` over the full window; design searches and sweeps read the same floats from their table."""
    t = _check_instance("window", params, TruncatedParams).t
    return _window_moments(np.exp(params.kernel.log_weight(np.abs(np.arange(-t, t + 1, dtype=float)))))


def _window_moments(window: np.ndarray) -> DistortionMoments:
    """The moments of `distortion_moments` from the window's kernel weights W(t), ..., W(1), W(0), ..., W(t)."""
    tail = window[window.size // 2 + 1 :]
    c = float(window.sum())
    j = np.arange(1, tail.size + 1, dtype=float)
    return DistortionMoments(float(2.0 * (j * tail).sum() / c), float(2.0 * (j * j * tail).sum() / c))


# uniforms drawn per step of `sample` and `sample_counts`; `Generator.random`
# continues one stream across calls, so the draws do not depend on it
_SAMPLE_CHUNK = 2**14


def _index_chunks(mechanism: Union[MechanismSpec, TruncatedParams], x: int, seed: int, n: int):
    """Validate, then (n, ascending int64 support, iterator of (offset, support indices of the next draws))."""
    n = _check_int("sample count", n, 0)
    if _check_int("seed", seed) < 0:
        raise SpecError(f"seed must be an integer >= 0, got {seed}")
    support, masses = _row(mechanism, x)  # the same support and masses every pmf reads
    if support[0] < -(2**63) or support[-1] >= 2**63:  # ascending, so the ends bound every symbol
        raise SpecError(f"the support of input {x} has symbols outside the 64-bit integer range")
    if isinstance(support, range):  # `arange`, not `np.array`, which reads a range one symbol at a time
        ys = np.arange(support.start, support.stop, dtype=np.int64)
    else:
        ys = np.array(support, dtype=np.int64)
    cum = masses.cumsum(out=masses)  # in place: `_row` returns a new array on every call
    rng = np.random.default_rng(seed)

    def chunks():
        for start in range(0, n, _SAMPLE_CHUNK):
            idx = np.searchsorted(cum, rng.random(min(_SAMPLE_CHUNK, n - start)), side="right")
            yield start, np.minimum(idx, ys.size - 1, out=idx)  # rounding in cum[-1] must not index past the top atom

    return n, ys, chunks()


def sample(mechanism: Union[MechanismSpec, TruncatedParams], x: int, seed: int, n: int) -> np.ndarray:
    """Draw n outputs for input x as an int64 array, deterministic for a fixed seed.

    The seed must be an integer >= 0 (not a bool), of any size; the same
    seed gives the same draws.  Every support symbol must fit a 64-bit
    integer.  Inverse-CDF over the support in ascending output order; the
    cumulative boundary is inclusive on the left, so u == F(y_{i-1})
    selects y_i.  The uniforms are drawn in fixed chunks into an output
    allocated first, so memory is 8 bytes per draw plus one chunk, and a
    count too large for memory fails before any draw.
    """
    n, ys, chunks = _index_chunks(mechanism, x, seed, n)
    out = np.empty(n, dtype=np.int64)
    for start, idx in chunks:
        np.take(ys, idx, out=out[start : start + idx.size])
    return out


def sample_counts(
    mechanism: Union[MechanismSpec, TruncatedParams], x: int, seed: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The histogram of `sample(mechanism, x, seed, n)` without storing the draws.

    Returns (values, counts) as `np.unique(draws, return_counts=True)`
    would: the drawn support symbols ascending, each with its count > 0.
    Memory grows with the support size, not with n; time grows linearly
    with n.
    """
    n, ys, chunks = _index_chunks(mechanism, x, seed, n)
    counts = np.zeros(ys.size, dtype=np.int64)
    for _, idx in chunks:
        counts += np.bincount(idx, minlength=ys.size)
    drawn = counts > 0
    return ys[drawn], counts[drawn]


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

    `distance` is optional and defaults to absolute difference.  This checks only
    the JSON form: the document and kernel objects, canonical keys in `supports`
    and the distance document, none with a key the schema does not name;
    `MechanismSpec` checks every value it passes on.
    """
    if not isinstance(doc, Mapping):
        raise SpecError("spec document must be a JSON object")
    _check_keys("spec", doc, ("kernel", "inputs", "outputs", "supports", "distance"))
    kernel_doc = doc.get("kernel")
    if not isinstance(kernel_doc, Mapping) or "family" not in kernel_doc or "param" not in kernel_doc:
        raise SpecError('spec needs "kernel": {"family": ..., "param": ...}')
    _check_keys("kernel", kernel_doc, ("family", "param"))
    kernel = Kernel(kernel_doc["family"], kernel_doc["param"])
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
        supports[x] = sup

    distance = None
    dist_doc = doc.get("distance")
    if dist_doc is not None:
        if not isinstance(dist_doc, Mapping) or "type" not in dist_doc:
            raise SpecError('distance must be {"type": "abs"} or {"type": "matrix", "values": [[number]]}')
        if dist_doc["type"] == "matrix":
            distance = dist_doc.get("values")
            if distance is None:  # the constructor would read None as the absolute difference
                raise SpecError("distance matrix needs numeric values as a list of rows")
        elif dist_doc["type"] != "abs":
            raise SpecError(f"distance type must be \"abs\" or \"matrix\", got {dist_doc['type']!r}")
        _check_keys("distance", dist_doc, ("type", "values") if distance is not None else ("type",))

    return MechanismSpec(kernel, doc.get("inputs"), doc.get("outputs"), supports, distance)


def _check_keys(name: str, doc: Mapping, allowed: tuple) -> None:
    """Refuse a key `allowed` does not name: a misspelled optional key would otherwise be ignored."""
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise SpecError(f"{name} has unknown key {unknown[0]!r}; allowed keys are {', '.join(allowed)}")


def _unique_keys(pairs: list) -> dict:
    """`json.load`'s object hook: a key given twice would otherwise keep only its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SpecError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_spec(path) -> MechanismSpec:
    """Read and validate a MechanismSpec JSON file; a path that is not a str, bytes or os.PathLike is a SpecError."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise SpecError(f"spec path must be a str, bytes or os.PathLike, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:  # undecodable bytes, bad syntax, too-deep nesting, too many digits
        raise SpecError(f"invalid JSON in {path}: {err}") from None
    return spec_from_dict(doc)
