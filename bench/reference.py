"""Independent reference answers, from the paper's closed forms in plain numpy.

Nothing here imports sparseldp.  The checker recomputes every answer after
the measured run, outside every timed region, and compares:

- integers (s, argmax h, s_scanned_max bounds, feasibility, finiteness,
  histogram counts) exactly;
- floats to 1e-12 absolute, relative for magnitudes above 1 (moments and
  pure levels can run into the thousands);
- a pure-level witness must attain the level, and a mismatch witness must be
  a genuine support mismatch; neither has to equal the reference's own.

Each disagreement gets a class.  `scan-limit` is the one class the seed is
known to produce: a design reported infeasible although the certified
sufficient size (Laplace tail bound, or the Gaussian support window) is
feasible by exact evaluation.  Any other class means the program, or the
benchmark, is broken.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

LAPLACE = "laplace"
KNOWN_CLASSES = ("scan-limit",)


class Mismatch(Exception):
    """An answer disagrees with the reference; `kind` names the class."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def close(a, b) -> bool:
    return a is not None and abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _expect(ok: bool, detail: str, kind: str = "mismatch") -> None:
    if not ok:
        raise Mismatch(kind, detail)


def log_weight(family: str, param: float, d):
    """log w(d): -lam d (discrete Laplace) or -d^2 / (2 sigma^2) (Gaussian)."""
    d = np.asarray(d, dtype=float)
    return -param * d if family == LAPLACE else -(d * d) / (2.0 * param * param)


class Window:
    """Weights of the radius-t window family and the sums its closed forms use."""

    def __init__(self, family: str, param: float, t: int):
        self.t = t
        self.log_w = log_weight(family, param, np.abs(np.arange(-t, t + 1)))
        self.w = np.exp(self.log_w)
        self.c = float(self.w.sum())
        self.prefix = np.cumsum(self.w)

    def defects(self, eps: float, hs) -> list[tuple[float, float]]:
        """(leakage, overlap excess) at each separation h, two-sum closed form.

        Leakage is the low tail w[0:h] / C; the excess is
        sum_k [w[h+k] - e^eps w[k]]_+ / C, compared in log domain so a term
        that is exactly zero stays zero.  Disjoint windows (h > 2t) leak all.
        """
        n = 2 * self.t + 1
        shifted = np.exp(eps + self.log_w)
        out = []
        for h in hs:
            if h > 2 * self.t:
                out.append((1.0, 0.0))
                continue
            leak = float(self.prefix[h - 1]) / self.c if h else 0.0
            excess = float(np.maximum(self.w[h:] - shifted[: n - h], 0.0).sum()) / self.c
            out.append((leak, excess))
        return out

    def worst(self, eps: float, r: int) -> tuple[float, int]:
        """Max over separations 1..r of leakage + excess; ties go to the smallest h."""
        best, best_h = 0.0, 0
        for h, (leak, excess) in enumerate(self.defects(eps, range(1, r + 1)), start=1):
            if leak + excess > best:
                best, best_h = leak + excess, h
        return best, best_h

    def moments(self) -> tuple[float, float]:
        j = np.arange(1, self.t + 1, dtype=float)
        upper = self.w[self.t + 1:]
        return 2.0 * float(np.sum(j * upper)) / self.c, 2.0 * float(np.sum(j * j * upper)) / self.c


def _window(q: dict, s: int, param: float | None = None) -> Window:
    return Window(q["family"], q["param"] if param is None else param, (s - 1) // 2)


def _next_odd(x: float) -> int:
    n = math.ceil(x)
    return n if n % 2 else n + 1


def certified_size(q: dict) -> int | None:
    """A size the paper's tail bounds certify as feasible, where they apply."""
    eps, delta, r, p = q["eps"], q["delta"], q["range"], q["param"]
    if r < 1:
        return None
    if q["family"] == LAPLACE:
        if p * r > eps:
            return None
        return max(_next_odd(2 * r - 1 + (2.0 / p) * math.log(r / delta)), 2 * r + 1)
    lo = max(2 * r - 1 + 2.0 * math.sqrt(2.0 * p * p * max(0.0, math.log(r / delta))), 2 * r + 1)
    hi = math.floor(r + 1 + 2.0 * p * p * eps / r)
    s_lo, s_hi = _next_odd(lo), hi if hi % 2 else hi - 1
    return s_lo if s_lo <= s_hi else None


# -- window-family answers ---------------------------------------------------

def check_worst(q: dict, ans: dict) -> None:
    ref, ref_h = _window(q, q["s"]).worst(q["eps"], q["range"])
    _expect(ans["argmax_h"] == ref_h, f"argmax h {ans['argmax_h']} != {ref_h}")
    _expect(close(ans["delta_star"], ref), f"delta* {ans['delta_star']!r} != {ref!r}")


def check_per_h(q: dict, ans: dict) -> None:
    r = q["range"]
    rows = ans["rows"]
    _expect([row[0] for row in rows] == list(range(r + 1)), "per-h rows are not h = 0..range")
    for (h, total, leak, excess), (ref_leak, ref_excess) in zip(rows, _window(q, q["s"]).defects(q["eps"], range(r + 1))):
        _expect(close(leak, ref_leak) and close(excess, ref_excess) and close(total, ref_leak + ref_excess),
                f"h={h}: ({leak!r}, {excess!r}) != ({ref_leak!r}, {ref_excess!r})")


def check_design(q: dict, ans: dict) -> None:
    eps, delta, r, s_max = q["eps"], q["delta"], q["range"], q["s_max"]
    start = 1 if delta >= 1 else (r + 1 if r % 2 == 0 else r + 2)

    def feasible(s: int) -> bool:
        return _window(q, s).worst(eps, r)[0] <= delta

    if ans["feasible"]:
        s = ans["s"]
        _expect(isinstance(s, int) and s >= start and s % 2 == 1, f"chosen size {s!r} is not an odd size >= {start}")
        for smaller in range(start, s, 2):
            _expect(not feasible(smaller), f"size {smaller} below the chosen {s} is feasible", "not-minimal")
        win = _window(q, s)
        ref, _ = win.worst(eps, r)
        _expect(ref <= delta, f"chosen size {s} has delta* {ref!r} > {delta!r}")
        r1, r2 = win.moments()
        _expect(close(ans["delta_star"], ref) and close(ans["r1"], r1) and close(ans["r2"], r2),
                f"s={s}: (delta*, r1, r2) = ({ans['delta_star']!r}, {ans['r1']!r}, {ans['r2']!r}) "
                f"!= ({ref!r}, {r1!r}, {r2!r})")
        return
    last = ans["s_scanned_max"]
    _expect(s_max is None or last <= s_max, f"scanned to {last} past the limit {s_max}")
    for s in range(start, last + 1, 2):
        _expect(not feasible(s), f"reported infeasible but size {s} within the scan is feasible", "missed")
    if s_max is None:
        cert = certified_size(q)
        if cert is not None and cert > last and feasible(cert):
            raise Mismatch("scan-limit", f"reported infeasible after scanning to {last}, "
                                         f"but the certified size {cert} is feasible")


def check_sweep(q: dict, ans: dict) -> None:
    rows = ans["rows"]
    if q["op"] == "sweep_support":
        cases = [(float(s), _window(q, s)) for s in q["s_list"]]
    else:
        cases = [(float(p), _window(q, q["s"], p)) for p in q["param_list"]]
    _expect(len(rows) == len(cases), f"{len(rows)} sweep rows for {len(cases)} values")
    for (varied, delta_star, r1, r2), (ref_varied, win) in zip(rows, cases):
        ref, _ = win.worst(q["eps"], q["range"])
        ref_r1, ref_r2 = win.moments()
        _expect(varied == ref_varied, f"varied {varied!r} != {ref_varied!r}")
        _expect(close(delta_star, ref) and close(r1, ref_r1) and close(r2, ref_r2),
                f"varied={varied}: ({delta_star!r}, {r1!r}, {r2!r}) != ({ref!r}, {ref_r1!r}, {ref_r2!r})")


def check_histogram(q: dict, ans: dict) -> None:
    """Seeded inverse-CDF draws over the window at x, ascending, left-inclusive."""
    win = _window(q, q["s"])
    cum = np.cumsum(win.w / win.c)
    u = np.random.default_rng(q["seed"]).random(q["n"])
    idx = np.minimum(np.searchsorted(cum, u, side="right"), q["s"] - 1)
    counts = np.bincount(idx, minlength=q["s"])
    values = [q["x"] - win.t + i for i in range(q["s"]) if counts[i]]
    _expect(ans["values"] == values and ans["counts"] == [int(c) for c in counts if c],
            "histogram differs from the seeded inverse-CDF draws")


# -- general channels --------------------------------------------------------

class Channel:
    """Dense arrays of a spec document: log weights, supports, row masses."""

    def __init__(self, doc: dict):
        self.inputs = list(doc["inputs"])
        self.outputs = list(doc["outputs"])
        col = {y: j for j, y in enumerate(self.outputs)}
        self.mask = np.zeros((len(self.inputs), len(self.outputs)), dtype=bool)
        for i, x in enumerate(self.inputs):
            self.mask[i, [col[y] for y in doc["supports"][str(x)]]] = True
        dist = doc.get("distance")
        if dist is not None and dist["type"] == "matrix":
            d = np.array(dist["values"], dtype=float)
        else:
            d = np.abs(np.subtract.outer(np.array(self.inputs, float), np.array(self.outputs, float)))
        kernel = doc["kernel"]
        lw = log_weight(kernel["family"], kernel["param"], d)
        peak = np.max(np.where(self.mask, lw, -np.inf), axis=1, keepdims=True)
        log_z = peak + np.log(np.sum(np.where(self.mask, np.exp(lw - peak), 0.0), axis=1, keepdims=True))
        self.log_p = np.where(self.mask, lw - log_z, -np.inf)  # log W - log Z on the support
        self.p = np.where(self.mask, np.exp(lw - log_z), 0.0)

    def index(self, x) -> int:
        return self.inputs.index(x)

    def shared(self) -> bool:
        return bool(np.all(self.mask == self.mask[0]))

    def pure_level(self) -> float:
        """max over y of (max_x - min_x) of log W - log Z, on the shared support."""
        cols = self.log_p[:, self.mask[0]]
        return float(np.max(cols.max(axis=0) - cols.min(axis=0)))

    def pair_defects(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Support leakage and overlap excess for every ordered pair (x, x')."""
        p, q = self.p[:, None, :], self.p[None, :, :]
        both = self.mask[:, None, :] & self.mask[None, :, :]
        leak = np.sum(np.where(self.mask[:, None, :] & ~both, p, 0.0), axis=2)
        gap = np.where(q > 0.0, p - math.exp(eps) * q, p)
        excess = np.sum(np.where(both, np.maximum(gap, 0.0), 0.0), axis=2)
        return leak, excess


def _check_pure(ch: Channel, ans: dict) -> None:
    finite = ch.shared()
    _expect(ans["finite"] == finite, f"finite={ans['finite']} but supports {'' if finite else 'do not '}coincide")
    w = ans["witness"]
    if not finite:
        x, x_prime, y = w
        j = ch.outputs.index(y)
        _expect(bool(ch.mask[ch.index(x), j] and not ch.mask[ch.index(x_prime), j]),
                f"witness {w} is not a support mismatch")
        return
    level = ch.pure_level()
    _expect(close(ans["epsilon_star"], level), f"pure level {ans['epsilon_star']!r} != {level!r}")
    if w is None:
        _expect(close(0.0, level) or len(ch.inputs) == 1, "no witness for a positive level")
    else:
        x, x_prime, y = w
        j = ch.outputs.index(y)
        attained = float(ch.log_p[ch.index(x), j] - ch.log_p[ch.index(x_prime), j])
        _expect(close(attained, level), f"witness {w} attains {attained!r}, not the level {level!r}")


def check_audit(q: dict, ans: dict) -> None:
    ch = Channel(q["doc"])
    _check_pure(ch, ans)
    if q["eps"] is None:
        return
    leak, excess = ch.pair_defects(q["eps"])
    total = leak + excess
    np.fill_diagonal(total, -np.inf)
    ref = float(total.max())
    best = ans["max_defect"]
    i, k = ch.index(best["pair"][0]), ch.index(best["pair"][1])
    _expect(close(best["total"], ref), f"max pair defect {best['total']!r} != {ref!r}")
    _expect(close(best["leakage"], float(leak[i, k])) and close(best["overlap"], float(excess[i, k])),
            f"pair {best['pair']}: ({best['leakage']!r}, {best['overlap']!r}) "
            f"!= ({float(leak[i, k])!r}, {float(excess[i, k])!r})")


# -- CLI output --------------------------------------------------------------

def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _csv(stdout: str) -> tuple[list[str], list[list]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    return rows[0], [[_cell(v) for v in row] for row in rows[1:]]


def parse_cli(q: dict, stdout: str) -> dict:
    """The CLI's csv or json output, as the in-process answer of the same query."""
    op, fmt = q["op"], q["format"]
    if fmt == "json":
        doc = json.loads(stdout)
        if op == "per_h":
            return {"rows": [[r["h"], r["delta_h"], r["leakage"], r["overlap"]] for r in doc]}
        if op in ("sweep_support", "sweep_param"):
            return {"rows": [[r["varied"], r["delta_star"], r["r1"], r["r2"]] for r in doc]}
        if op == "histogram":
            return {"values": [r["value"] for r in doc], "counts": [r["count"] for r in doc]}
        return doc
    header, rows = _csv(stdout)
    if op in ("per_h", "sweep_support", "sweep_param"):
        return {"rows": rows}
    if op == "histogram":
        return {"values": [r[0] for r in rows], "counts": [r[1] for r in rows]}
    if op == "audit":
        finite, eps_star, *w = rows[0]
        return {"finite": finite, "epsilon_star": eps_star, "witness": None if w[0] is None else w}
    return dict(zip(header, rows[0]))


def expected_exit(op: str, ans: dict) -> int:
    if op == "design":
        return 0 if ans["feasible"] else 1
    if op == "audit":
        return 0 if ans["finite"] else 1
    return 0


CHECKS = {"worst": check_worst, "per_h": check_per_h, "design": check_design, "sweep_support": check_sweep,
          "sweep_param": check_sweep, "audit": check_audit, "histogram": check_histogram}


def check(q: dict, ans: dict) -> tuple[str, str] | None:
    """None if the answer agrees with the reference, else (failure class, detail)."""
    if "error" in ans:
        return "error", ans["error"]
    try:
        if "exit" in ans:
            if ans["exit"] not in (0, 1):
                return "exit-code", f"{ans['exit']}: {ans['stderr'].strip()[-300:]}"
            parsed = parse_cli(q, ans["stdout"])
            if ans["exit"] != expected_exit(q["op"], parsed):
                return "exit-code", f"{ans['exit']} for {parsed}"
            ans = parsed
        CHECKS[q["op"]](q, ans)
    except Mismatch as exc:
        return exc.kind, exc.detail
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return "malformed", f"{type(exc).__name__}: {exc}"
    return None
