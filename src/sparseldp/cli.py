"""Command-line front end.

Subcommands: defect | design | sweep | check-pure | sample.  Every run is a
pure function of its flags; results go to stdout or --out as csv, json, or a
4-decimal human-readable table.  Exit codes: 0 success, 1 well-formed
negative result (infeasible design, not pure), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .calibration import min_feasible_support, sweep_param, sweep_support
from .mechanisms import Kernel, SpecError, TruncatedParams, load_spec, sample
from .privacy import pure_ldp_epsilon, separation_profile, worst_case_defect

FORMATS = ("csv", "json", "table")


def _fmt4(x: float) -> str:
    # half-away-from-zero on the exact binary value
    return str(Decimal(x).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def _table_cell(v) -> str:
    if v is None:
        return ""
    return _fmt4(v) if isinstance(v, float) else str(v)


def _render(header: list[str], rows: list[list], fmt: str, *, record: bool = False, table_formats=None) -> str:
    """Format result rows as csv, json or an aligned table.

    csv: full-precision repr, empty cells for None, lowercase bools.
    json: one object per row, as an array; a `record` (one-row result) prints
    its bare object.  table: floats to 4 decimals, None blank, left-aligned
    columns; `table_formats` maps a column name to its own cell formatter.
    """
    if fmt == "json":
        docs = [dict(zip(header, row)) for row in rows]
        return json.dumps(docs[0] if record else docs, indent=2) + "\n"
    if fmt == "csv":
        cells = [header] + [[_csv_cell(v) for v in row] for row in rows]
        return "\n".join(",".join(r) for r in cells) + "\n"
    formats = [(table_formats or {}).get(name, _table_cell) for name in header]
    cells = [header] + [[f(v) for f, v in zip(formats, row)] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells) + "\n"


def _parse_list(text: str, flag: str, convert) -> list:
    items = [v for v in text.split(",") if v.strip()]
    if not items:
        raise SpecError(f"{flag} needs at least one value")
    try:
        return [convert(v) for v in items]
    except ValueError:
        kind = "integers" if convert is int else "numbers"
        raise SpecError(f"{flag} must be a comma-separated list of {kind}") from None


def cmd_defect(args) -> tuple[str, int]:
    kernel = Kernel(args.family, args.param)
    if args.per_h:
        leakage, excess = separation_profile(kernel, args.s, args.eps, args.range)
        rows = [[h, lk + ex, lk, ex] for h, (lk, ex) in enumerate(zip(leakage.tolist(), excess.tolist()))]
        text = _render(["h", "delta_h", "leakage", "overlap"], rows, args.format)
    else:
        delta_star, argmax_h = worst_case_defect(kernel, args.s, args.eps, args.range)
        text = _render(["delta_star", "argmax_h"], [[delta_star, argmax_h]], args.format, record=True)
    return text, 0


def cmd_design(args) -> tuple[str, int]:
    kernel = Kernel(args.family, args.param)
    res = min_feasible_support(kernel, args.eps, args.delta, args.range, args.s_max)
    m = res.moments
    r1, r2 = (m.r1, m.r2) if m else (None, None)
    row = [res.feasible, res.s_chosen, res.achieved_delta_star, r1, r2, res.s_scanned_max]
    header = ["feasible", "s", "delta_star", "r1", "r2", "s_scanned_max"]
    return _render(header, [row], args.format, record=True), 0 if res.feasible else 1


def cmd_sweep(args) -> tuple[str, int]:
    if args.kind == "support":
        if args.s_list is None or args.param is None:
            raise SpecError("support sweep needs --param (fixed kernel) and --s-list (varied sizes)")
        kernel = Kernel(args.family, args.param)
        rows = sweep_support(kernel, args.eps, args.range, _parse_list(args.s_list, "--s-list", int))
    else:
        if args.param_list is None or args.s is None:
            raise SpecError("param sweep needs --s (fixed size) and --param-list (varied kernel values)")
        params = _parse_list(args.param_list, "--param-list", float)
        rows = sweep_param(args.family, params, args.eps, args.range, args.s)
    text = _render(
        ["varied", "delta_star", "r1", "r2"],
        [[r.varied, r.delta_star, r.r1, r.r2] for r in rows],
        args.format,
        table_formats={"varied": "{:g}".format},
    )
    return text, 0


def cmd_check_pure(args) -> tuple[str, int]:
    res = pure_ldp_epsilon(load_spec(args.spec))
    witness = list(res.witness) if res.witness is not None else None
    if args.format == "json":
        header = ["finite", "epsilon_star", "witness"]
        text = _render(header, [[res.finite, res.epsilon_star, witness]], "json", record=True)
    elif args.format == "csv":
        header = ["finite", "epsilon_star", "witness_x", "witness_x_prime", "witness_y"]
        text = _render(header, [[res.finite, res.epsilon_star, *(witness or [None] * 3)]], "csv")
    elif res.finite:
        text = f"pure level: {_fmt4(res.epsilon_star)}\nwitness: {witness}\n"
    else:
        text = f"not pure for any finite level\nsupport mismatch witness: {witness}\n"
    return text, 0 if res.finite else 1


def cmd_sample(args) -> tuple[str, int]:
    params = TruncatedParams(Kernel(args.family, args.param), args.s)
    draws = sample(params, args.x, args.seed, args.n)
    if args.histogram:
        values, counts = np.unique(draws, return_counts=True)
        rows = [[int(v), int(c)] for v, c in zip(values, counts)]
        text = _render(["value", "count"], rows, args.format)
    elif args.format == "json":
        text = _render(["samples"], [[[int(v) for v in draws]]], "json", record=True)
    elif args.format == "csv":
        text = _render(["sample"], [[int(v)] for v in draws], "csv")
    else:
        # a raw table is the bare draws, one per line, without a header
        text = "".join(f"{int(v)}\n" for v in draws)
    return text, 0


def _add_common(p: argparse.ArgumentParser, *, family=True) -> None:
    if family:
        p.add_argument("--family", choices=("laplace", "gaussian"), required=True)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseldp",
        description="Exact privacy guarantees and support-size design for sparse local randomizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("defect", help="worst-case defect of a window family over a privacy range")
    _add_common(p)
    p.add_argument("--param", type=float, required=True, help="kernel parameter (lam or sigma)")
    p.add_argument("--s", type=int, required=True, help="odd support size")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--range", type=int, required=True, help="privacy range (max input separation)")
    p.add_argument("--per-h", dest="per_h", action="store_true", help="one row per separation with the leakage/overlap split")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("design", help="smallest support size meeting a defect target")
    _add_common(p)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--range", type=int, required=True)
    p.add_argument("--s-max", dest="s_max", type=int, default=None, help="odd scan limit (defaults to a generous bound)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sweep", help="tabulate defect and distortion over sizes or kernel parameters")
    _add_common(p)
    p.add_argument("--kind", choices=("support", "param"), required=True)
    p.add_argument("--param", type=float, default=None, help="fixed kernel parameter (support sweep)")
    p.add_argument("--s", type=int, default=None, help="fixed support size (param sweep)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--range", type=int, required=True)
    p.add_argument("--s-list", dest="s_list", default=None, help="comma-separated odd sizes to sweep")
    p.add_argument("--param-list", dest="param_list", default=None, help="comma-separated kernel parameters to sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-pure", help="exact pure level of a channel spec, or its mismatch witness")
    _add_common(p, family=False)
    p.add_argument("--spec", required=True, help="path to a MechanismSpec JSON file")
    p.set_defaults(func=cmd_check_pure)

    p = sub.add_parser("sample", help="seeded draws from a window family")
    _add_common(p)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--histogram", action="store_true", help="emit value/count pairs instead of raw draws")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (SpecError, OSError, MemoryError) as err:  # sizes up to 2^53 pass validation, then fail here
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
