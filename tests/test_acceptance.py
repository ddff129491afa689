"""Acceptance gate: twelve criteria, one pass/fail line each.

Each test prints its verdict on the real stdout (past pytest capture) so
the gate reads as a checklist even on a quiet run.  Criterion 8 asserts
the full shrinking-radius chain at d = 10^12 including the final count
inequality; the recorded margin there is -26.54 nats, so that test is
expected to fail until a construction with a stronger counting step
exists.  Everything it can check structurally is checked first, and the
log-space count verdict, whose log is within a proven 2.5 units of
2^-120 with an exact fallback inside, is replayed on exact integers as
an independent check.  The margin at d = 10^18, where the chain closes,
is printed as a measurement only: with k = ceil(1/phi) the chain fails
again after each step up in k (see the README).
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import conftest
import search_oracle
from diameter_oracle import image_gram
from mis_oracle import max_avoiding_search
from test_algebra import property_check_float32
from test_exactnum import as_mpf
from test_upper import covering_log_upper

from borsuk import algebra, bounds, construction, optimality, params, upper
from borsuk.cli import main as cli_main
from borsuk.exactnum import PRECISION_BITS, binomial, binomial_tail_sum, is_prime

_PRIMES_TO_50 = [p for p in range(2, 50) if is_prime(p)]


def _report(num, ok, label, detail=""):
    line = "[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", label)
    if detail:
        line += "  (%s)" % detail
    # immediate line for -s runs, registry for the end-of-run summary
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_01_scalar_product_identity():
    t0 = time.time()
    ok = True
    worst = 0.0
    for n, k in [(4, 1), (4, 2), (8, 1)]:
        a = 4
        X = construction.sigma_matrix(n).astype(np.int64)
        H = image_gram(X @ X.T, k, a)
        mats = construction.materialize(X, k, a)
        want = mats @ mats.T
        for i, j in itertools.product(range(X.shape[0]), repeat=2):
            got = H[i, j]
            # float route within 1e-9 relative
            err = abs(got - want[i, j]) / max(1.0, abs(want[i, j]))
            if err > 1e-9:
                ok = False
            worst = max(worst, err)
            # exact integer route with zero tolerance
            x, y = X[i], X[j]
            wx, wy = x, y
            for _ in range(2 * k - 1):
                wx = np.multiply.outer(wx, x).reshape(-1)
                wy = np.multiply.outer(wy, y).reshape(-1)
            exact = int(wx @ wy) + 2 * k * a ** (2 * k - 1) * int(x @ y)
            if got != exact:
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    _report(1, ok, "scalar-product identity, float and exact routes",
            "worst rel err %.2e, %.1fs" % (worst, elapsed))
    assert ok


def test_criterion_02_inner_product_divisibility():
    t0 = time.time()
    ok = True
    for n in (4, 8, 12):
        G = algebra.sigma_gram(n)
        if (G % 4 != 0).any():
            ok = False
        if (G <= -n).any() or (G > n).any():
            ok = False
        diag_only = (G == n) == np.eye(G.shape[0], dtype=bool)
        if not diag_only.all():
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    _report(2, ok, "inner products multiples of 4 in (-n, n], n on diagonal only",
            "%.1fs" % elapsed)
    assert ok


def test_criterion_03_property_equivalence_exhaustive():
    # the library's exact Krawtchouk count and the all-pairs float32
    # evaluation oracle must both read 0
    t0 = time.time()
    bad = [count(n, p, a)
           for count in (algebra.property_check_exhaustive, property_check_float32)
           for n, p, a in ((12, 5, 8), (16, 5, 4))]
    elapsed = time.time() - t0
    ok = not any(bad) and elapsed < 300
    _report(3, ok, "congruence iff nonzero evaluation, all pairs (12,5,8) and (16,5,4)",
            "violations %d+%d exact, %d+%d all-pairs oracle, %.1fs" % (*bad, elapsed))
    assert ok


def test_criterion_04_rank_bound_and_certified_families():
    t0 = time.time()
    cert = algebra.certify_bound(16, 5, 4, seeds=100)
    ok = cert.rank is not None and cert.rank <= 2517
    ok = ok and cert.verdict and cert.rank_full_family
    ok = ok and len(cert.family_sizes) == 100
    ok = ok and max(cert.family_sizes) <= cert.bound
    # explicit full-rank check on the coefficient rows of two families
    for seed in (0, 17):
        fam = algebra.greedy_avoiding_family(
            construction.sigma_matrix(16), -4, seed=seed)
        M = algebra.coefficient_matrix(fam, 5, 4)
        if algebra.rank_mod_p(M, 5) != len(fam):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _report(4, ok, "GF(5) rank of the full family <= 2517, 100 certified families",
            "rank %s, sizes %d..%d, %.1fs"
            % (cert.rank, min(cert.family_sizes), max(cert.family_sizes), elapsed))
    assert ok


def test_criterion_05_lemma_bound_every_desk_triple():
    t0 = time.time()
    triples = []
    for n in (4, 8, 12):
        for p in _PRIMES_TO_50:
            a = 4 * p - n
            if 4 <= a <= 3 * n:
                triples.append((n, p, a))
    assert len(triples) >= 8
    ok = True
    rows = []
    for n, p, a in triples:
        mis = algebra.max_avoiding_exact(n, -a)
        bound = algebra.dimension_bound(n, p)
        rows.append((n, p, a, mis, bound))
        # every desk triple has a closed form, and the branch and bound agrees
        if mis is None or mis > bound:
            ok = False
        elif mis != max_avoiding_search(construction.sigma_matrix(n), -a):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _report(5, ok, "exact MIS (closed form = branch and bound) <= dimension bound "
            "on every feasible desk triple",
            "%d triples, %.1fs" % (len(rows), elapsed))
    assert ok


def test_criterion_06_counting_identities():
    t0 = time.time()
    ok = True
    for n in (4, 8, 12, 16):
        if construction.sigma_matrix(n).shape[0] != binomial(n - 1, n // 2 - 1):
            ok = False
    for n in range(4, 65, 4):
        if 2 * binomial(n - 1, n // 2 - 1) != binomial(n, n // 2):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report(6, ok, "|Sigma(n)| enumeration and half-central-binomial identity",
            "%.1fs" % elapsed)
    assert ok


def test_criterion_07_polynomial_quotient_optimality():
    t0 = time.time()
    ok = True
    gaps = []
    for m in (2, 4, 6, 8):
        r = optimality.ratio(optimality.extremal_polynomial(m, 2))
        if r.objective != Fraction(m - 1, m + 1):
            ok = False
        if r.value != Fraction(m + 1, 4 * m):
            ok = False
        # the exact optimum over the extreme rays is the extremal quotient
        exact = optimality.search_optimum(m, 2)
        if exact.best_ratio != r.value or exact.corner != (m, 1):
            ok = False
        res = search_oracle.random_search(m, 2, samples=10 ** 4, seed=0)
        gap = res.best_objective - float(exact.best_objective)
        gaps.append(gap)
        if gap > 1e-9:
            ok = False
        # split inequality on sampled members, equality at the extremal
        for h in search_oracle.sample_members(m, 2, 50, seed=m):
            s = search_oracle.odd_even_split_check(h)
            if not s.passed:
                ok = False
        s_star = search_oracle.odd_even_split_check(optimality.extremal_polynomial(m, 2))
        if s_star.odd_sum != s_star.factor * s_star.even_sum:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _report(7, ok, "extremal quotient exact and optimal, search never beats it, "
            "split inequality",
            "max search gap %.1e, %.1fs" % (max(gaps), elapsed))
    assert ok


_STRUCTURAL = ("power_margin", "compression", "offset_below_n", "prime_window")


def _chain_verdicts(d):
    """Run the chain at d; return structural, log-space and exact verdicts."""
    rep = bounds.shrinking_radius_check(d, c_phi=6.0)
    status = {c.name: c.passed for c in rep.checks}
    count = next(c for c in rep.checks if c.name == "count_ratio")
    # the log-space verdict has a proven error of 2.5 units of 2^-120 and
    # falls back to exact integers inside it; the count ratio is replayed
    # on exact integers all the same, as an independent check:
    # C(n-1, n/2-1) > (d+2) * sum_{i<p} C(n, i)
    n, p = rep.n, rep.p
    exact = binomial(n - 1, n // 2 - 1) > (d + 2) * binomial_tail_sum(n, p)
    structural = all(status[name] for name in _STRUCTURAL)
    return rep, structural, status["count_ratio"], exact, count.lhs - count.rhs


def test_criterion_08_shrinking_radius_chain():
    t0 = time.time()
    rep_small = bounds.shrinking_radius_check(100)
    named_failures = [c.name for c in rep_small.checks if not c.passed]
    ok_small = (not rep_small.passes) and len(named_failures) >= 1

    rep, structural, count_ok, exact, margin = _chain_verdicts(10 ** 12)
    # a recorded measurement past the first closure, not a gate: with
    # k = ceil(1/phi) the chain fails again from about d = 10^20
    _, _, far_count_ok, far_exact, far_margin = _chain_verdicts(10 ** 18)
    elapsed = time.time() - t0
    ok = ok_small and structural and count_ok and rep.passes
    ok = ok and elapsed < 10
    _report(8, ok, "full inequality chain at d=10^12 including the count ratio",
            "d=100 fails %s; ratio margin %.2f at d=10^12, %.2f at d=10^18; "
            "exact ratio holds %s, %s; %.1fs"
            % (",".join(named_failures), margin, far_margin, exact, far_exact,
               elapsed))
    # the four structural inequalities do hold at d = 10^12
    assert ok_small and structural and elapsed < 10
    # the log-space count verdicts agree with the exact integers
    assert count_ok == exact and far_count_ok == far_exact
    # and this is the open gap: the pigeonhole ratio with these counts
    # moves like exp(c*d^(1/2k)) only after d0, which sits far above 10^12
    assert ok


def test_criterion_09_simplex_partition_numerics():
    t0 = time.time()
    ok = True
    for d in range(2, 11):
        r = 0.5 + 0.01 / d
        diam = upper.piece_diameter(d, r)
        if not diam < 1:
            ok = False
        if d == 2 and abs(diam - r * math.sqrt(3)) > 1e-6:
            ok = False
    gaps = []
    for d in range(4, 13):
        r = 0.5 + 0.01 / d
        gaps.append((2 * r - upper.piece_diameter(d, r)) * d)
    spread = max(gaps) / min(gaps)
    if spread > 2:
        ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report(9, ok, "piece diameters below 1, triangle closed form, gap scaling",
            "gap*d spread %.2f, %.1fs" % (spread, elapsed))
    assert ok


def test_criterion_10_bound_route_consistency():
    t0 = time.time()
    ok = True
    for r, d in [(0.71, 10 ** 6), (0.9, 10 ** 8), (0.58, 10 ** 8)]:
        ps = params.plan_fixed(r, d)
        cb = bounds.lower_bound(ps)
        assert cb.numerator is not None
        exact_log = math.log(cb.numerator) - math.log(cb.denominator)
        if abs(float(cb.ratio_log) - exact_log) > 1e-9 * max(1.0, abs(exact_log)):
            ok = False
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        r = float(rng.uniform(0.52, 0.99))
        k = params.solve_k(Fraction(r) ** 2)
        d = int(4 * rng.integers(2, 40)) ** (2 * k) + 1
        cb = bounds.lower_bound(params.plan_fixed(r, d))
        cover = covering_log_upper(r, d)
        with mp.workprec(PRECISION_BITS):
            below = as_mpf(cb.ratio_log) < cover
        if not below:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report(10, ok, "exact and log routes agree, lower stays below covering upper",
            "%.1fs" % elapsed)
    assert ok


def test_criterion_11_first_winning_dimension():
    t0 = time.time()
    res = bounds.find_d0(0.71)
    ok = res.bound.passes
    ok = ok and res.previous_d == res.d0 - 1 and not res.previous_passes
    ok = ok and bounds.lower_bound(params.plan_fixed(0.71, res.d0)).passes
    ok = ok and not bounds.lower_bound(params.plan_fixed(0.71, res.d0 - 1)).passes
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report(11, ok, "find_d0(0.71) passes at d0 and fails just below",
            "d0 %d, %.1fs" % (res.d0, elapsed))
    assert ok


def test_criterion_12_cli_determinism(capsys):
    t0 = time.time()
    invocations = [
        ["plan", "--r", "0.9", "--d", "256"],
        ["plan", "--shrinking", "--d", str(10 ** 12)],
        ["certify", "--n", "12", "--p", "5", "--a", "8", "--seeds", "6"],
        ["bound", "--n", "8", "--p", "5", "--d", "65"],
        ["find-d0", "--r", "0.71"],
        ["upper", "--d-min", "2", "--d-max", "5", "--seed", "3",
         "--format", "csv"],
        ["optimal-poly", "--m", "4", "--n", "2", "--seed", "11"],
    ]
    ok = True
    for argv in invocations:
        cli_main(argv)
        first = capsys.readouterr().out
        cli_main(argv)
        second = capsys.readouterr().out
        if first != second or not first:
            ok = False
    # fresh interpreters: guards against per-process hash or thread state
    cmd = [sys.executable, "-m", "borsuk", "optimal-poly", "--m", "4", "--n", "2",
           "--seed", "11"]
    env = conftest.child_env()
    run1 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    run2 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    # two runs that fail alike (say, on import) would compare equal
    # without testing anything, so each must also succeed with output
    for run in (run1, run2):
        if run.returncode != 0 or not run.stdout:
            ok = False
    if run1.stdout != run2.stdout:
        ok = False
    elapsed = time.time() - t0
    _report(12, ok, "repeated invocations byte-identical, in and out of process",
            "%.1fs" % elapsed)
    assert ok
