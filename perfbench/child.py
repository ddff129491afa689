"""One benchmark iteration in a fresh interpreter.

Imports borsuk and every submodule first, so that the moment they are all
loaded marks the end of set-up; then runs one workload's operations in a
closed loop (one call at a time), checks each result, and prints one JSON
report line on stdout.  run.py launches it; it is not meant to be run by
hand, but `python3 perfbench/child.py --workload d0-table` works from the
repository root with PYTHONPATH=src.
"""

import time

import borsuk
from borsuk import (  # noqa: F401  (import cost is part of set-up)
    algebra,
    bounds,
    cli,
    construction,
    exactnum,
    optimality,
    params,
    upper,
)

T_READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _versions():
    import mpmath
    import numpy

    blas = None
    config = getattr(numpy.__config__, "CONFIG", None)
    if config:
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = "%s %s" % (info.get("name"), info.get("version"))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scratch", default=".")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--expect-wrong", action="store_true")
    args = ap.parse_args()
    report = {"t_ready": T_READY}
    if args.setup_only:
        report["versions"] = _versions()
        print(json.dumps(report))
        return 0

    from tracing import Tracer
    from workloads import WORKLOADS, Context, Mismatch

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(borsuk)
    ctx = Context(args.seed, args.scratch, poison=args.expect_wrong)
    failures = []
    op_s = {}
    ops = WORKLOADS[args.workload]()
    for label, op in ops:
        t0 = time.monotonic()
        try:
            op(ctx)
        except Mismatch as exc:
            failures.append("%s: %s" % (label, exc))
        except Exception:  # an unexpected exception fails the operation
            failures.append("%s: %s" % (label, traceback.format_exc(limit=3)))
        op_s[label] = time.monotonic() - t0
    report["wall_s"] = time.monotonic() - T_READY
    report["attempted"] = len(ops)
    report["failed"] = len(failures)
    report["failures"] = failures
    report["op_s"] = op_s
    if tracer is not None:
        layers = tracer.summary()
        layers["counts"]["cli.stdout_bytes"] = ctx.stdout_bytes
        report["layers"] = layers
        tracer.write_spans(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
