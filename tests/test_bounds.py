"""Pigeonhole counting: exact vs log routes, thresholds, asymptotics."""

import dataclasses
import math
from fractions import Fraction

import pytest
from mpmath import mp

from borsuk.bounds import (
    asymptotic_base,
    binary_entropy,
    count_bound,
    find_d0,
    growth_exponent,
    lower_bound,
    shrinking_radius_check,
)
from borsuk.exactnum import binomial, binomial_tail_sum
from borsuk.params import CheckFailed, plan_fixed, plan_shrinking, shrinking_chain


def test_count_bound_frozen_small_case():
    # n=8, p=5: 35 sign vectors against a 163-dimensional bound
    cb = count_bound(8, 5, 66)
    assert (cb.numerator, cb.denominator) == (35, 163)
    assert not cb.passes
    assert cb.ratio_log.to_float() == pytest.approx(35 / 163, rel=1e-12)


def test_count_bound_p1_denominator():
    cb = count_bound(8, 1, 1)
    assert cb.denominator == 1
    assert cb.numerator == 35
    assert cb.passes  # 35 > 1


def test_count_bound_input_checks():
    with pytest.raises(ValueError, match="multiple of 4"):
        count_bound(10, 3, 5)
    with pytest.raises(ValueError, match="p must be positive"):
        count_bound(8, 0, 5)


def test_exact_and_log_routes_agree():
    for n, p in [(96, 29), (96, 5), (1000, 251), (9996, 2503)]:
        cb = count_bound(n, p, 10)
        exact_ratio = Fraction(cb.numerator, cb.denominator)
        with mp.workprec(120):
            want = mp.log(mp.mpf(exact_ratio.numerator)) - mp.log(
                mp.mpf(exact_ratio.denominator)
            )
            err = abs(float(cb.ratio_log.log_abs - want))
        assert err <= 1e-9 * max(1.0, abs(float(want)))


def test_ratio_monotone_nonincreasing_in_p():
    for n in (16, 32, 64):
        vals = []
        for p in range(2, n // 2 + 1):
            cb = count_bound(n, p, 1)
            vals.append(Fraction(cb.numerator, cb.denominator))
        assert all(u >= v for u, v in zip(vals, vals[1:]))


def test_half_central_binomial_identity():
    for n in range(4, 65, 4):
        assert binomial(n - 1, n // 2 - 1) * 2 == binomial(n, n // 2)


def test_central_ratio_quadratic_approximation():
    # ln[C(n,n/2)/C(n,n/2-x)] = 2x^2/n + O(x^3/n^2)
    for n in (400, 1600, 6400):
        for phi in (0.3, 1.0):
            x = int(phi * n / 20)
            lhs = math.log(binomial(n, n // 2)) - math.log(binomial(n, n // 2 - x))
            assert abs(lhs - 2 * x * x / n) <= 1.0 * x ** 3 / n ** 2


def test_lower_bound_on_planned_construction():
    ps = plan_fixed(0.64, 65)
    lb = lower_bound(ps)
    assert (lb.numerator, lb.denominator, lb.threshold) == (35, 163, 66)
    assert not lb.passes


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0) == 0.0 and binary_entropy(1) == 0.0
    assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.811278124459, abs=1e-9)
    with pytest.raises(ValueError, match="entropy argument"):
        binary_entropy(1.5)


def test_entropy_closed_form_at_quarter_density():
    # the limiting density 1/4 gives base 2**H(1/4) and growth 2/that
    c_prime = 2.0 ** binary_entropy(Fraction(1, 4))
    assert c_prime == pytest.approx(1.7548, abs=5e-5)
    assert 2.0 / c_prime == pytest.approx(1.1398, abs=5e-5)


def test_asymptotic_base_frozen():
    ps = plan_fixed(0.9, 10 ** 6)
    ab = asymptotic_base(ps)
    assert ab.c_prime == pytest.approx(1.9489, abs=5e-5)
    assert ab.c == pytest.approx(1.0262, abs=5e-5)
    assert ab.monotone
    roots = {m: root for m, root, _ in ab.certification}
    assert roots[400] == pytest.approx(1.9364, abs=5e-5)
    assert roots[1600] == pytest.approx(1.9449, abs=5e-5)
    # the 1600-point root certifies the closed form within 0.01
    assert abs(roots[1600] - ab.c_prime) < 0.01


def test_asymptotic_base_p0_guard():
    ps = plan_fixed(0.9, 10 ** 6)
    bad = dataclasses.replace(ps, a0=Fraction(0))
    with pytest.raises(ValueError, match="p0 out of range"):
        asymptotic_base(bad)


def test_growth_exponent_converges_from_below():
    ps_big = plan_fixed(0.71, 10 ** 6)
    ln_c = math.log(asymptotic_base(ps_big).c)
    errs = []
    for n in (1200, 2400, 9600):
        g = growth_exponent(plan_fixed(0.71, n * n + 1))
        rel = (g - ln_c) / ln_c
        assert abs(rel) < 0.10
        errs.append(abs(rel))
    assert errs[0] > errs[1] > errs[2]


def test_growth_exponent_negative_at_tiny_d():
    assert growth_exponent(plan_fixed(0.71, 257)) < 0


def test_find_d0_frozen_at_071():
    res = find_d0(0.71)
    assert res.d0 == 327185
    assert (res.params.n, res.params.p) == (572, 223)
    assert res.bound.passes
    assert res.previous_d == 327184
    assert not res.previous_passes
    # witness recomputed from scratch
    assert lower_bound(plan_fixed(0.71, res.d0)).passes
    assert not lower_bound(plan_fixed(0.71, res.d0 - 1)).passes


def test_find_d0_solves_a0_once(monkeypatch):
    from borsuk import params

    calls = []
    solve = params.solve_a0

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(params, "solve_a0", counted)
    assert find_d0(0.65).d0 == 1032257
    assert len(calls) == 1


def test_find_d0_smaller_radius_needs_more_dimensions():
    res06 = find_d0(0.6)
    assert res06.d0 == 1802703502561537
    assert res06.params.k == 2
    assert res06.d0 > find_d0(0.71).d0


def test_shrinking_check_small_d_names_failures():
    rep = shrinking_radius_check(100)
    status = {c.name: c.passed for c in rep.checks}
    assert status["power_margin"] and status["compression"]
    assert not status["offset_below_n"]
    assert not status["prime_window"]
    assert not status["count_ratio"]
    assert not rep.passes


def test_shrinking_check_large_d_fails_only_count_ratio():
    rep = shrinking_radius_check(10 ** 12)
    status = {c.name: c.passed for c in rep.checks}
    assert status["power_margin"]
    assert status["compression"]
    assert status["offset_below_n"]
    assert status["prime_window"]
    assert not status["count_ratio"]
    assert not rep.passes
    assert (rep.n, rep.a, rep.p) == (996, 832, 457)
    assert float(rep.final_ratio_log.log_abs) == pytest.approx(1.0890, abs=1e-3)


def test_shrinking_check_margin_grows_with_c_phi():
    margins = []
    for c_phi in (6.0, 7.0, 8.0):
        rep = shrinking_radius_check(10 ** 12, c_phi)
        assert rep.n == 996  # same dimension window, easier radius
        cr = next(c for c in rep.checks if c.name == "count_ratio")
        margins.append(cr.lhs - cr.rhs)
    assert margins[0] < margins[1] < margins[2]


def test_shrinking_check_agrees_with_planner():
    ps = plan_shrinking(10 ** 12)
    rep = shrinking_radius_check(10 ** 12)
    assert (rep.n, rep.a, rep.p, rep.k) == (ps.n, ps.a, ps.p, ps.k)
    with pytest.raises(CheckFailed):
        plan_shrinking(100)
    # the report is the planner's chain plus the count ratio
    for d in (100, 10 ** 12):
        ch = shrinking_chain(d)
        rep = shrinking_radius_check(d)
        assert rep.checks[:-1] == ch.checks
        assert rep.checks[-1].name == "count_ratio"
