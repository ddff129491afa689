"""Command line front end.

Subcommands mirror the library surface: plan parameters, build point
sets, certify the independence bound, evaluate lower bounds, locate the
first winning dimension, extract the asymptotic base, tabulate the
simplex partition upper bound, and optimise the polynomial class exactly.

Exit codes: 0 on success, 1 when a mathematical check evaluates false
(a bound that does not pass, a failed certificate), 2 on usage or
computational errors.  Output is deterministic for a fixed invocation:
exact integers are serialized as decimal strings, rationals as
"num/den", the log of a count ratio (a FixedLog) as
{"ln": its 25 significant digits, "sign": "1"}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2

def _jsonable(obj: Any) -> Any:
    """Recursively convert library objects to JSON-stable values."""
    from .exactnum import FixedLog

    if obj is None or isinstance(obj, (str, float, bool)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, FixedLog):  # the log of a positive count ratio
        return {"ln": obj.nstr(), "sign": "1"}
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError("no JSON form for %s" % type(obj).__name__)


def _finite_float(text: str) -> float:
    """argparse type of the float options: inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("invalid finite float value: %r" % text)
    return value


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _emit(payload: Any, args: argparse.Namespace) -> None:
    fmt = args.format
    rows: List[Dict[str, Any]]
    if isinstance(payload, list):
        rows = payload
    else:
        rows = [payload]

    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row.get(h)) for h in header])
        text = buf.getvalue()
    else:  # text
        lines = []
        for row in rows:
            for key, value in row.items():
                lines.append("%s: %s" % (key, _csv_cell(value)))
            lines.append("")
        text = "\n".join(lines)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_unread(args: argparse.Namespace, raw: Optional[str] = None) -> None:
    """ValueError (exit 2) on a planner option the selected mode leaves
    unread; raw names the raw-count options when they select the mode."""
    if raw and args.shrinking:
        raise ValueError("--shrinking does not apply with %s" % raw)
    if args.r is not None and (raw or args.shrinking):
        raise ValueError("--r does not apply with %s" % (raw or "--shrinking"))
    if args.c_phi is not None and not args.shrinking:
        raise ValueError("--c-phi applies only with --shrinking")


def _shrinking_args(args: argparse.Namespace):
    """(d, c_phi) for the shrinking-radius chain; c_phi defaults to 6."""
    _refuse_unread(args)
    if args.d is None:
        raise ValueError("--d is required")
    return args.d, 6.0 if args.c_phi is None else args.c_phi


def _resolve_params(args: argparse.Namespace):
    from . import params

    if args.shrinking:
        return params.plan_shrinking(*_shrinking_args(args))
    _refuse_unread(args)
    if args.r is None or args.d is None:
        raise ValueError("--r and --d are required unless --shrinking is given")
    return params.plan_fixed(args.r, args.d)


def cmd_plan(args: argparse.Namespace) -> int:
    ps = _resolve_params(args)
    _emit(_jsonable(ps), args)
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    from . import construction

    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be non-negative, got %d" % args.limit)
    ps = _resolve_params(args)
    geo = construction.geometry(ps)
    # refuse before Sigma is built or any output exists, so a failed
    # build enumerates and writes nothing
    construction.check_dimension(ps)
    rows = construction.sigma_matrix(ps.n)[: args.limit]
    if args.out:
        with open(args.out, "w") as fh:
            construction.export_points(fh, ps, geo, rows)
    else:
        construction.export_points(sys.stdout, ps, geo, rows)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    from . import algebra

    if args.n is not None or args.p is not None or args.a is not None:
        _refuse_unread(args, "--n/--p/--a")
        if None in (args.n, args.p, args.a) or args.d is not None:
            raise ValueError("--n, --p, --a must be given together, without --d")
        n, p, a = args.n, args.p, args.a
    else:
        ps = _resolve_params(args)
        n, p, a = ps.n, ps.p, ps.a
    cert = algebra.certify_bound(n, p, a, seeds=args.seeds)
    if not cert.family_sizes:
        sys.stderr.write("note: Sigma(%d) not enumerated (n > %d): greedy "
                         "families, exact MIS and rank skipped; the verdict "
                         "rests on the exact property count\n"
                         % (n, algebra.ENUMERATION_CAP))
    _emit(_jsonable(cert), args)
    return EXIT_OK if cert.verdict else EXIT_CHECK_FAILED


def cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds

    if args.n is not None or args.p is not None:
        _refuse_unread(args, "--n/--p")
        if None in (args.n, args.p, args.d):
            raise ValueError("raw mode needs --n, --p and --d together")
        if args.d < 1:
            raise ValueError("--d must be at least 1, got %d" % args.d)
        cb = bounds.count_bound(args.n, args.p, args.d + 1)
        _emit({"bound": _jsonable(cb)}, args)
        return EXIT_OK if cb.passes else EXIT_CHECK_FAILED
    if args.shrinking:
        report = bounds.shrinking_radius_check(*_shrinking_args(args))
        _emit(_jsonable(report), args)
        return EXIT_OK if report.passes else EXIT_CHECK_FAILED
    ps = _resolve_params(args)
    cb = bounds.lower_bound(ps)
    _emit({"params": _jsonable(ps), "bound": _jsonable(cb)}, args)
    return EXIT_OK if cb.passes else EXIT_CHECK_FAILED


def cmd_find_d0(args: argparse.Namespace) -> int:
    from . import bounds

    result = bounds.find_d0(args.r)
    _emit(_jsonable(result), args)
    return EXIT_OK


def cmd_asymptotic(args: argparse.Namespace) -> int:
    from . import bounds

    ps = _resolve_params(args)
    base = bounds.asymptotic_base(ps, cert_sizes=tuple(args.cert_sizes))
    exponent = bounds.growth_exponent(ps)
    payload = {
        "params": _jsonable(ps),
        "base": _jsonable(base),
        "growth_exponent": exponent,
    }
    _emit(payload, args)
    return EXIT_OK if base.monotone else EXIT_CHECK_FAILED


def cmd_upper(args: argparse.Namespace) -> int:
    from . import upper

    if args.d_min < upper.MIN_DIMENSION:
        raise ValueError("--d-min below %d" % upper.MIN_DIMENSION)
    if args.d_max < args.d_min:
        raise ValueError("--d-max below --d-min")
    reports = upper.partition_table(
        list(range(args.d_min, args.d_max + 1)), c_r=args.c_r
    )
    rows = [
        {
            "d": str(rep.d),
            "r": rep.r,
            "piece_diam": rep.piece_diam,
            "pass": rep.passes,
        }
        for rep in reports
    ]
    _emit(rows, args)
    return EXIT_OK if all(rep.passes for rep in reports) else EXIT_CHECK_FAILED


def cmd_optimal_poly(args: argparse.Namespace) -> int:
    from . import optimality

    result = optimality.search_optimum(args.m, args.n)
    exact = optimality.ratio(optimality.extremal_polynomial(args.m - args.m % 2, args.n))
    row = {
        "m": str(args.m),
        "n": str(args.n),
        "best_ratio": _jsonable(result.best_ratio),
        "corner": _jsonable(result.corner),
        "exact_bound": _jsonable(exact.value),
        "gap": float(result.best_ratio - exact.value),
    }
    ok = result.best_ratio == exact.value
    if args.a_grid:
        try:
            grid = [Fraction(x) for x in args.a_grid.split(",")]
        except ZeroDivisionError:
            raise ValueError("--a-grid offset with zero denominator: %s"
                             % args.a_grid) from None
        report = optimality.offset_reduction_check(args.m, args.n, grid)
        row["offset_check"] = _jsonable(report)
        ok = ok and report.passed
    _emit(row, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by later ones.

    parse_args keeps no state between calls: each gets a fresh Namespace,
    errors and help resolve sys.stdout/sys.stderr when they print, and no
    command mutates a default (--cert-sizes is read through tuple()).
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    # every command but build, whose output is the point file
    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )

    planner = argparse.ArgumentParser(add_help=False)
    planner.add_argument("--r", type=_finite_float, default=None, help="sphere radius")
    planner.add_argument("--d", type=int, default=None, help="ambient dimension")
    planner.add_argument(
        "--shrinking", action="store_true",
        help="use the shrinking-radius planner (radius from d)",
    )
    planner.add_argument(
        "--c-phi", type=_finite_float, default=None, dest="c_phi",
        help="drift constant for the shrinking-radius regime (default 6)",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="accepted and ignored: nothing is sampled")

    parser = argparse.ArgumentParser(
        prog="borsuk",
        description="Counterexamples to Borsuk's conjecture on spheres of "
        "radius above one half",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[report, planner],
                       help="solve construction parameters for (r, d)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("build", parents=[common, planner],
                       help="export the embedded point set")
    p.add_argument("--limit", type=int, default=None,
                   help="export at most this many points")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certify", parents=[report, planner],
                       help="certificate for the independence bound")
    p.add_argument("--n", type=int, default=None, help="override: base length")
    p.add_argument("--p", type=int, default=None, help="override: prime")
    p.add_argument("--a", type=int, default=None, help="override: offset")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of greedy families to verify")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bound", parents=[report, planner],
                       help="exact lower bound on the partition number")
    p.add_argument("--n", type=int, default=None,
                   help="raw mode: base length (bypasses the planner)")
    p.add_argument("--p", type=int, default=None, help="raw mode: prime")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("find-d0", parents=[report],
                       help="least dimension where the bound beats d+1")
    p.add_argument("--r", type=_finite_float, required=True, help="sphere radius")
    p.set_defaults(func=cmd_find_d0)

    p = sub.add_parser("asymptotic", parents=[report, planner],
                       help="asymptotic growth base of the bound")
    p.add_argument("--cert-sizes", type=int, nargs="+",
                   default=[400, 800, 1600], dest="cert_sizes",
                   help="base lengths for the certification table")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("upper", parents=[report, seeded],
                       help="simplex partition upper bound table")
    p.add_argument("--d-min", type=int, default=2, dest="d_min")
    p.add_argument("--d-max", type=int, default=12, dest="d_max")
    p.add_argument("--c-r", type=_finite_float, default=0.01, dest="c_r",
                   help="radius margin constant; r = 1/2 + c_r/d")
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("optimal-poly", parents=[report, seeded],
                       help="exact best quotient in the polynomial class")
    p.add_argument("--m", type=int, required=True, help="polynomial degree")
    p.add_argument("--n", type=int, required=True, help="interval endpoint")
    p.add_argument("--a-grid", default=None, dest="a_grid",
                   help="comma separated offsets in (0, n], strictly increasing "
                   "(decimals or p/q): exact optimum at each")
    p.set_defaults(func=cmd_optimal_poly)

    # no prefix matching: certify --seed must not turn into --seeds
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        from .params import CheckFailed

        try:
            return args.func(args)
        except CheckFailed as exc:
            sys.stderr.write("check failed: %s\n" % exc)
            return EXIT_CHECK_FAILED
    except (ValueError, OverflowError, RuntimeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
