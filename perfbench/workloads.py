"""The benchmark workloads: operations on borsuk and the checks on them.

An operation is one CLI argv run through `borsuk.cli.main` or one public
library call.  It fails on a wrong exit code, a wrong checked value or an
unexpected exception.  Checks compare named fields of the JSON output and
exit codes, never bytes, so a documented change of output layout does not
count as a failure.  Expected values are the outputs of the seed package.

Only `upper` and `optimal-poly` take a seed; their checks are invariants
that hold for every seed, so the workload seed is passed straight through.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, List, Tuple

from borsuk import algebra, cli

NONZERO = "nonzero"

Op = Tuple[str, Callable[["Context"], None]]


class Mismatch(Exception):
    """A checked value or exit code differs from the expectation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Context:
    """State one iteration's operations share.

    poison makes the first CLI operation expect the wrong exit code, so a
    run with it shows that a wrong expectation is counted as a failure.
    """

    def __init__(self, seed: int, scratch: str, poison: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.poison = poison
        self.stdout_bytes = 0

    def cli(self, argv: List[str], exit_code=0):
        """Run one command in-process; return its parsed JSON output."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        if self.poison:
            self.poison = False
            exit_code = 1 if exit_code == 0 else 0
        ok = code != 0 if exit_code == NONZERO else code == exit_code
        expect(ok, "exit %r, expected %r; stderr: %s"
               % (code, exit_code, err.getvalue().strip()[-300:]))
        return json.loads(text) if text else None


def _field(payload, path: str):
    for key in path.split("."):
        payload = payload[key]
    return payload


def expect_fields(payload, expected: dict) -> None:
    """Compare named fields; a dotted name reaches into sub-objects."""
    for path, want in expected.items():
        got = _field(payload, path)
        expect(got == want, "%s = %r, expected %r" % (path, got, want))


def expect_ln(payload, path: str, want: float) -> None:
    got = float(_field(payload, path)["ln"])
    expect(math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12),
           "%s.ln = %r, expected %r" % (path, got, want))


# ---------------------------------------------------------------------------
# certify-n16: the full-family GF(5) certificate at n = 16


def _certify_n16(ctx: Context) -> None:
    cert = ctx.cli(["certify", "--n", "16", "--p", "5", "--a", "4"])
    expect_fields(cert, {"bound": "2517", "sigma_size": "6435", "rank": "1365",
                        "verdict": True, "rank_full_family": True})
    sizes = [int(s) for s in cert["family_sizes"]]
    expect(len(sizes) == 20, "%d families, expected 20" % len(sizes))
    expect(max(sizes) <= 2517, "family of size %d above 2517" % max(sizes))


def _property_n16(ctx: Context) -> None:
    bad = algebra.property_check_exhaustive(16, 5, 4)
    expect(bad == 0, "%d property violations" % bad)


def certify_n16() -> List[Op]:
    return [
        ("certify --n 16 --p 5 --a 4", _certify_n16),
        ("property_check_exhaustive(16, 5, 4)", _property_n16),
    ]


# ---------------------------------------------------------------------------
# d0-table: the counting layers, no matrices

D0 = {
    "0.59": 17514409198944257,
    "0.61": 313547198365697,
    "0.63": 30735937,
    "0.65": 1032257,
    "0.67": 138385,
    "0.69": 33857,
    "0.71": 327185,
}

# (argv, exit code, fields: k, n, a, p, passes, ln of the ratio)
BOUNDS = [
    (["bound", "--r", "0.71", "--d", "327185"], 0,
     ("1", "572", "320", "223", True, 12.74393173444029765787815)),
    (["bound", "--r", "0.71", "--d", str(10 ** 15)], 0,
     ("1", "31622776", "17295172", "12229487", True, 818527.2023314797844160699)),
    (["bound", "--r", "0.6", "--d", str(10 ** 20)], 0,
     ("2", "99996", "78592", "44647", True, 571.6589462978836522785578)),
]

# exponent -> (exit code, n, p, ln of the final ratio)
SHRINKING = {
    6: (1, "996", "431", 7.227042982352298525895127),
    9: (1, "176", "79", -0.9278500983410866098282315),
    12: (1, "996", "457", 1.088964568744995612542138),
    15: (1, "5620", "2609", 11.85839788540074329607487),
    18: (0, "31620", "14747", 68.90086924307528476922424),
}


def _find_d0(r: str) -> Callable[[Context], None]:
    def op(ctx: Context) -> None:
        res = ctx.cli(["find-d0", "--r", r])
        expect_fields(res, {"d0": str(D0[r]), "previous_passes": False})
    return op


def _plan(ctx: Context) -> None:
    ps = ctx.cli(["plan", "--r", "0.9", "--d", "256"])
    expect_fields(ps, {"k": "1", "n": "12", "a": "8", "p": "5", "d": "256",
                      "mode": "fixed"})


def _bound(argv, code, fields) -> Callable[[Context], None]:
    k, n, a, p, passes, ln = fields

    def op(ctx: Context) -> None:
        res = ctx.cli(argv, code)
        expect_fields(res, {"params.k": k, "params.n": n, "params.a": a,
                            "params.p": p, "bound.passes": passes})
        expect_ln(res, "bound.ratio_log", ln)
    return op


def _raw_bound(ctx: Context) -> None:
    res = ctx.cli(["bound", "--n", "8", "--p", "5", "--d", "65"], 1)
    expect_fields(res, {"bound.numerator": "35", "bound.denominator": "163",
                        "bound.passes": False})


def _asymptotic(ctx: Context) -> None:
    res = ctx.cli(["asymptotic", "--r", "0.9", "--d", str(10 ** 6)])
    expect_fields(res, {"params.n": "996", "params.p": "389",
                        "base.monotone": True})
    expect(abs(res["base"]["c"] - 1.0262224263358661) <= 1e-12,
           "base.c = %r" % res["base"]["c"])


def _shrinking(e: int) -> Callable[[Context], None]:
    code, n, p, ln = SHRINKING[e]

    def op(ctx: Context) -> None:
        res = ctx.cli(["bound", "--shrinking", "--d", str(10 ** e)], code)
        expect_fields(res, {"n": n, "p": p, "passes": code == 0})
        expect_ln(res, "final_ratio_log", ln)
    return op


def d0_table() -> List[Op]:
    ops: List[Op] = [("find-d0 --r %s" % r, _find_d0(r)) for r in D0]
    ops.append(("plan --r 0.9 --d 256", _plan))
    ops += [(" ".join(argv), _bound(argv, code, f)) for argv, code, f in BOUNDS]
    ops.append(("bound --n 8 --p 5 --d 65", _raw_bound))
    ops.append(("asymptotic --r 0.9 --d 10^6", _asymptotic))
    ops += [("bound --shrinking --d 10^%d" % e, _shrinking(e)) for e in SHRINKING]
    return ops


# ---------------------------------------------------------------------------
# desk-checks: many small instances, export, upper and optimality numerics

# (n, p, a) -> (exact MIS, rank or None); a = 4p - n, prime p < 50, 4 <= a <= 3n
DESK = {
    (4, 2, 4): (3, "1"),
    (4, 3, 8): (3, "3"),
    (8, 3, 4): (15, "21"),
    (8, 5, 12): (35, "35"),
    (8, 7, 20): (35, "35"),
    (12, 5, 8): (210, "330"),
    (12, 7, 16): (462, "462"),
    (12, 11, 32): (462, None),
}


def _certify_desk(n: int, p: int, a: int) -> Callable[[Context], None]:
    mis, rank = DESK[(n, p, a)]

    def op(ctx: Context) -> None:
        argv = ["certify", "--n", str(n), "--p", str(p), "--a", str(a)]
        # p = 2 is even: the congruence argument does not apply
        cert = ctx.cli(argv, NONZERO if p == 2 else 0)
        expect_fields(cert, {"mis_exact": str(mis), "rank": rank, "verdict": p != 2})
        if p != 2:
            expect(mis <= int(cert["bound"]), "mis_exact above bound")
            expect(max(int(s) for s in cert["family_sizes"]) <= int(cert["bound"]),
                   "greedy family above bound")
    return op


def _build(d: int, points: int, r: float = 0.9) -> Callable[[Context], None]:
    def op(ctx: Context) -> None:
        path = os.path.join(ctx.scratch, "points-%d.txt" % d)
        try:
            ctx.cli(["build", "--r", repr(r), "--d", str(d), "--out", path])
            with open(path) as fh:
                header = fh.readline()
                rows = [line.split() for line in fh]
        finally:
            if os.path.exists(path):
                os.remove(path)
        expect(header.startswith("# borsuk-omega d=%d " % d), "header %r" % header)
        expect(len(rows) == points, "%d points, expected %d" % (len(rows), points))
        expect(all(len(row) == d for row in rows), "a point without %d coordinates" % d)
        for row in (rows[0], rows[-1]):
            norm = math.sqrt(sum(float(x) ** 2 for x in row))
            expect(abs(norm - r) <= 1e-9, "point norm %r, expected %r" % (norm, r))
    return op


def _upper(ctx: Context) -> None:
    rows = ctx.cli(["upper", "--d-min", "2", "--d-max", "12",
                    "--seed", str(ctx.seed)])
    expect([int(row["d"]) for row in rows] == list(range(2, 13)), "upper rows")
    failed = [row["d"] for row in rows if row["pass"] is not True]
    expect(not failed, "upper rows failing at d = %s" % failed)


def _optimal_poly(m: int, n: int, exact: str, grid=None) -> Callable[[Context], None]:
    def op(ctx: Context) -> None:
        argv = ["optimal-poly", "--m", str(m), "--n", str(n), "--seed", str(ctx.seed)]
        if grid:
            argv += ["--a-grid", grid]
        res = ctx.cli(argv)
        expect_fields(res, {"exact_bound": exact})
        expect(res["gap"] >= -1e-9, "gap %r below -1e-9" % res["gap"])
        if grid:
            expect_fields(res, {"offset_check.passed": True})
    return op


def desk_checks() -> List[Op]:
    ops: List[Op] = [
        ("certify --n %d --p %d --a %d" % t, _certify_desk(*t)) for t in DESK
    ]
    ops.append(("build --r 0.9 --d 256", _build(256, 462)))
    ops.append(("build --r 0.9 --d 400", _build(400, 6435)))
    ops.append(("upper --d-min 2 --d-max 12", _upper))
    ops.append(("optimal-poly --m 6 --n 3", _optimal_poly(6, 3, "7/24")))
    ops.append(("optimal-poly --m 8 --n 2", _optimal_poly(8, 2, "9/32")))
    ops.append(("optimal-poly --m 4 --n 2 --a-grid 0.5,1,1.5,2",
                _optimal_poly(4, 2, "5/16", "0.5,1,1.5,2")))
    return ops


WORKLOADS = {
    "certify-n16": certify_n16,
    "d0-table": d0_table,
    "desk-checks": desk_checks,
}
