"""Command line front end.

Subcommands mirror the library surface: plan parameters, build point
sets, certify the independence bound, evaluate lower bounds, locate the
first winning dimension, extract the asymptotic base, tabulate the
simplex partition upper bound, and search the polynomial class.

Exit codes: 0 on success, 1 when a mathematical check evaluates false
(a bound that does not pass, a failed certificate), 2 on usage or
computational errors.  Output is deterministic for a fixed invocation:
exact integers are serialized as decimal strings, rationals as
"num/den", log-scale reals as {"ln": ..., "sign": ...}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _configure_threads(threads: Optional[int]) -> None:
    """Cap BLAS worker pools; must run before numpy is first imported."""
    if threads is None:
        env = os.environ.get("BORSUK_THREADS")
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValueError("BORSUK_THREADS must be an integer") from None
    if threads is None:
        return
    if threads < 1:
        raise ValueError("thread count must be positive")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def _jsonable(obj: Any) -> Any:
    """Recursively convert library objects to JSON-stable values."""
    from .exactnum import LogReal, mp

    if obj is None or isinstance(obj, (str, float, bool)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, LogReal):
        return {"ln": mp.nstr(obj.log_abs, 25), "sign": str(obj.sign)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonable(obj.item())
    return str(obj)


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _emit(payload: Any, args: argparse.Namespace) -> None:
    fmt = getattr(args, "format", "json")
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

    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_params(args: argparse.Namespace):
    from . import params

    if getattr(args, "shrinking", False):
        if args.d is None:
            raise ValueError("--d is required")
        return params.plan_shrinking(args.d, c_phi=args.c_phi, tol=args.tol)
    if args.r is None or args.d is None:
        raise ValueError("--r and --d are required unless --shrinking is given")
    return params.plan_fixed(args.r, args.d, tol=args.tol)


def cmd_plan(args: argparse.Namespace) -> int:
    ps = _resolve_params(args)
    _emit(_jsonable(ps), args)
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    from . import construction

    ps = _resolve_params(args)
    geo = construction.geometry(ps)
    vectors = construction.sign_vectors(ps.n)
    if args.limit is not None:
        vectors = vectors[: args.limit]
    images = [construction.TensorImage(base=x, k=ps.k, a=ps.a) for x in vectors]
    if args.out:
        with open(args.out, "w") as fh:
            construction.export_points(fh, ps, geo, images)
    else:
        construction.export_points(sys.stdout, ps, geo, images)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    from . import algebra

    if args.n is not None or args.p is not None or args.a is not None:
        if None in (args.n, args.p, args.a):
            raise ValueError("--n, --p, --a must be given together")
        n, p, a = args.n, args.p, args.a
    else:
        ps = _resolve_params(args)
        n, p, a = ps.n, ps.p, ps.a
    cert = algebra.certify_bound(n, p, a, seeds=args.seeds)
    _emit(_jsonable(cert), args)
    return EXIT_OK if cert.verdict else EXIT_CHECK_FAILED


def cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds

    if args.shrinking:
        if args.d is None:
            raise ValueError("--d is required")
        report = bounds.shrinking_radius_check(args.d, c_phi=args.c_phi)
        _emit(_jsonable(report), args)
        return EXIT_OK if report.passes else EXIT_CHECK_FAILED
    if args.n is not None or args.p is not None:
        if None in (args.n, args.p, args.d):
            raise ValueError("raw mode needs --n, --p and --d together")
        cb = bounds.count_bound(args.n, args.p, args.d + 1)
        _emit({"bound": _jsonable(cb)}, args)
        return EXIT_OK if cb.passes else EXIT_CHECK_FAILED
    ps = _resolve_params(args)
    cb = bounds.lower_bound(ps)
    _emit({"params": _jsonable(ps), "bound": _jsonable(cb)}, args)
    return EXIT_OK if cb.passes else EXIT_CHECK_FAILED


def cmd_find_d0(args: argparse.Namespace) -> int:
    from . import bounds

    result = bounds.find_d0(args.r, tol=args.tol)
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

    result = optimality.search_optimum(
        args.m, args.n, samples=args.samples, seed=args.seed
    )
    ref_degree = args.m if args.m % 2 == 0 else args.m - 1
    exact = optimality.ratio(optimality.extremal_polynomial(ref_degree, args.n))
    gap = result.best_ratio - float(exact.value)
    row = {
        "m": str(args.m),
        "n": str(args.n),
        "best_ratio": result.best_ratio,
        "exact_bound": _jsonable(exact.value),
        "gap": gap,
    }
    ok = gap >= -1e-9
    if args.a_grid:
        grid = [float(x) for x in args.a_grid.split(",")]
        report = optimality.offset_reduction_check(
            args.m, args.n, grid, samples=args.offset_samples, seed=args.seed
        )
        row["offset_check"] = _jsonable(report)
        ok = ok and report.passed
    _emit(row, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument(
        "--threads", type=int, default=None,
        help="cap worker threads (also via BORSUK_THREADS); results do not "
        "depend on it",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized work")
    common.add_argument(
        "--tol", type=float, default=1e-12, help="tolerance for parameter solving"
    )

    plan_like = argparse.ArgumentParser(add_help=False)
    plan_like.add_argument("--r", type=float, default=None, help="sphere radius")
    plan_like.add_argument("--d", type=int, default=None, help="ambient dimension")
    plan_like.add_argument(
        "--shrinking", action="store_true",
        help="use the shrinking-radius planner (radius from d)",
    )
    plan_like.add_argument(
        "--c-phi", type=float, default=6.0, dest="c_phi",
        help="drift constant for the shrinking-radius regime",
    )

    parser = argparse.ArgumentParser(
        prog="borsuk",
        description="Counterexamples to Borsuk's conjecture on spheres of "
        "radius above one half",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[common, plan_like],
                       help="solve construction parameters for (r, d)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("build", parents=[common, plan_like],
                       help="export the embedded point set")
    p.add_argument("--limit", type=int, default=None,
                   help="export at most this many points")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certify", parents=[common, plan_like],
                       help="certificate for the independence bound")
    p.add_argument("--n", type=int, default=None, help="override: base length")
    p.add_argument("--p", type=int, default=None, help="override: prime")
    p.add_argument("--a", type=int, default=None, help="override: offset")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of greedy families to verify")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bound", parents=[common, plan_like],
                       help="exact lower bound on the partition number")
    p.add_argument("--n", type=int, default=None,
                   help="raw mode: base length (bypasses the planner)")
    p.add_argument("--p", type=int, default=None, help="raw mode: prime")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("find-d0", parents=[common],
                       help="least dimension where the bound beats d+1")
    p.add_argument("--r", type=float, required=True, help="sphere radius")
    p.set_defaults(func=cmd_find_d0)

    p = sub.add_parser("asymptotic", parents=[common, plan_like],
                       help="asymptotic growth base of the bound")
    p.add_argument("--cert-sizes", type=int, nargs="+",
                   default=[400, 800, 1600], dest="cert_sizes",
                   help="base lengths for the certification table")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("upper", parents=[common],
                       help="simplex partition upper bound table")
    p.add_argument("--d-min", type=int, default=2, dest="d_min")
    p.add_argument("--d-max", type=int, default=12, dest="d_max")
    p.add_argument("--c-r", type=float, default=0.01, dest="c_r",
                   help="radius margin constant; r = 1/2 + c_r/d")
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("optimal-poly", parents=[common],
                       help="search the polynomial class for the best quotient")
    p.add_argument("--m", type=int, required=True, help="polynomial degree")
    p.add_argument("--n", type=int, required=True, help="interval endpoint")
    p.add_argument("--samples", type=int, default=10 ** 4,
                   help="random candidates to draw (minimum 10^3)")
    p.add_argument("--a-grid", default=None, dest="a_grid",
                   help="comma separated offsets for the reduction check")
    p.add_argument("--offset-samples", type=int, default=2000,
                   dest="offset_samples",
                   help="samples per offset in the reduction check")
    p.set_defaults(func=cmd_optimal_poly)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_threads(args.threads)
        from .params import CheckFailed

        try:
            return args.func(args)
        except CheckFailed as exc:
            sys.stderr.write("check failed: %s\n" % exc)
            return EXIT_CHECK_FAILED
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
