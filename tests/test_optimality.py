"""The reduced polynomial class: exact extremal quotient and optimum.

The library enumerates the extreme rays in Fractions; search_oracle's
seeded random search is the independent numeric check.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borsuk.optimality import (
    CandidatePolynomial,
    extremal_polynomial,
    offset_reduction_check,
    ratio,
    search_optimum,
)
from search_oracle import (
    derivative_at,
    in_reduced_class,
    odd_even_split_check,
    random_search,
    sample_members,
    sampled_offset_maxima,
    validate,
)


def test_extremal_polynomial_shape():
    h = extremal_polynomial(6, 3)
    assert h.m == 6
    assert h.a == 3 and h.n == 3
    assert h.coefficients[6] == 1
    assert h.coefficients[1] == 6 * 3 ** 5
    assert all(c == 0 for j, c in enumerate(h.coefficients) if j not in (1, 6))
    validate(h)
    assert in_reduced_class(h)
    with pytest.raises(ValueError, match="degree must be even"):
        extremal_polynomial(5, 3)
    with pytest.raises(ValueError, match="degree must be even"):
        extremal_polynomial(0, 3)


def test_candidate_polynomial_evaluation():
    h = CandidatePolynomial(coefficients=(0, 2, 1), a=2, n=2)
    assert h(3) == 15  # 3^2 + 2*3
    assert h(-2) == 0
    assert derivative_at(h, -2) == -2
    h2 = extremal_polynomial(2, 5)
    assert h2(-5) == 25 - 2 * 5 * 5 * 1  # t^2 + 2*5*t at t=-5
    assert derivative_at(h2, -5) == 0


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_exact_extremal_ratio(m):
    h = extremal_polynomial(m, 3)
    r = ratio(h)
    assert isinstance(r.value, Fraction)
    assert r.value == Fraction(m + 1, 4 * m)
    assert r.objective == Fraction(m - 1, m + 1)
    assert h(h.n) > 0 and h(-h.a) < 0


def test_ratio_rejects_non_members():
    h = CandidatePolynomial(coefficients=(1, 0, 1), a=2, n=2)  # h(-2) = 5 > 0
    with pytest.raises(ValueError, match="not in reduced class"):
        ratio(h)


def test_validate_catches_tampering():
    h = extremal_polynomial(4, 3)
    bad = dataclasses.replace(h, coefficients=(0, -1, 0, 0, 1))
    with pytest.raises(ValueError, match="negative coefficient"):
        validate(bad)
    # derivative no longer vanishes at -a
    bad = dataclasses.replace(h, coefficients=(0, 5, 0, 0, 1))
    with pytest.raises(ValueError, match="derivative"):
        validate(bad)
    with pytest.raises(ValueError, match="offset"):
        validate(dataclasses.replace(h, a=0))


def test_odd_even_split_equality_at_extremal():
    for m in (2, 4, 6):
        s = odd_even_split_check(extremal_polynomial(m, 4))
        assert s.passed
        assert s.factor == m
        assert s.odd_sum == s.factor * s.even_sum  # tight exactly here


def test_odd_even_split_input_checks():
    h = CandidatePolynomial(coefficients=(1, 8, 1), a=2, n=2)
    with pytest.raises(ValueError, match="constant term must vanish"):
        odd_even_split_check(h)
    g = CandidatePolynomial(coefficients=(0, 2, 1), a=1, n=2)
    with pytest.raises(ValueError, match="offset a = n"):
        odd_even_split_check(g)


def test_odd_even_split_on_sampled_members():
    for h in sample_members(4, 3, 60, seed=5):
        s = odd_even_split_check(h)
        assert s.passed
        assert s.odd_sum <= s.factor * s.even_sum + 1e-9


def test_sample_members_are_valid_and_stable():
    ms = sample_members(6, 2, 25, seed=9)
    assert len(ms) == 25
    for h in ms:
        validate(h)
        assert in_reduced_class(h)
    again = sample_members(6, 2, 25, seed=9)
    assert [h.coefficients for h in again] == [h.coefficients for h in ms]


def test_search_hits_extremal_quotient_exactly():
    res = search_optimum(2, 1)
    assert res.best_ratio == Fraction(3, 8)
    assert res.best_objective == Fraction(1, 3)
    res4 = search_optimum(4, 2)
    assert res4.best_ratio == Fraction(5, 16)
    assert res4.evaluated == 4 and res4.resampled == 0
    # the reported polynomial is the extremal one, scaled to h(n) = 1
    h = res4.best
    validate(h)
    assert h(2) == 1
    assert ratio(h).objective == res4.best_objective
    star = extremal_polynomial(4, 2)
    assert [c * star(2) for c in h.coefficients] == list(star.coefficients)


@pytest.mark.parametrize("m", range(2, 13))
def test_corner_optimum_is_the_extremal_quotient(m):
    for n in range(1, 6):
        res = search_optimum(m, n)
        ref = ratio(extremal_polynomial(m if m % 2 == 0 else m - 1, n))
        assert res.best_objective == ref.objective
        assert res.best_ratio == ref.value
        assert res.corner == ((m, 1) if m % 2 == 0 else (m - 1, 1))


def test_search_never_beats_extremal():
    for m in (2, 4, 6):
        exact = search_optimum(m, 2).best_objective
        res = random_search(m, 2, samples=1000, seed=2)
        assert res.best_objective <= exact + 1e-9
        validate(res.best)


def test_search_monotone_in_samples():
    lo = random_search(4, 2, samples=1000, seed=4)
    hi = random_search(4, 2, samples=2000, seed=4)
    assert hi.best_objective >= lo.best_objective - 1e-15


def test_search_odd_degree_matches_even_optimum():
    res = search_optimum(3, 2)
    assert res.best_objective == Fraction(1, 3)
    assert res.best_ratio == Fraction(3, 8)
    assert res.corner == (2, 1)
    assert random_search(3, 2, samples=1000).best_objective == pytest.approx(
        1 / 3, abs=1e-9
    )


def test_search_input_checks():
    for m in (-1, 0, 1):
        with pytest.raises(ValueError, match="degree must be at least 2"):
            search_optimum(m, 1)
    with pytest.raises(ValueError, match="endpoint must be positive"):
        search_optimum(2, 0)
    for a in (0, Fraction(-1, 2), Fraction(5, 2)):
        with pytest.raises(ValueError, match="outside"):
            search_optimum(2, 2, a)
    with pytest.raises(ValueError, match="search floor"):
        random_search(2, 1, samples=10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_construction_polynomial_is_class_member(k):
    # t^(2k) + 2k a^(2k-1) t, the polynomial behind the diameter formula
    n = 8
    for a in (4, 8):
        coeffs = [0] * (2 * k + 1)
        coeffs[2 * k] = 1
        coeffs[1] = 2 * k * a ** (2 * k - 1)
        h = CandidatePolynomial(coefficients=tuple(coeffs), a=a, n=n)
        validate(h)
        assert in_reduced_class(h)
        assert derivative_at(h, -a) == 0


def test_offset_reduction_monotone_to_n():
    rep = offset_reduction_check(2, 4, a_grid=[1, 2, 3, 4])
    assert rep.passed
    assert rep.reference == Fraction(1, 3) == rep.objectives[-1]
    objs = list(rep.objectives)
    assert all(u < v for u, v in zip(objs, objs[1:]))
    # a grid short of n must still climb to the value at n
    short = offset_reduction_check(6, 3, [Fraction(k, 4) for k in range(1, 12)])
    assert short.passed and short.objectives[-1] < short.reference
    # the sampled search finds every exact per-offset optimum, and never more
    sampled = sampled_offset_maxima(2, 4, [1.0, 2.0, 3.0, 4.0], samples=1000)
    for got, want in zip(sampled, objs):
        assert got == pytest.approx(float(want), abs=1e-9)


def test_offset_grid_refusals():
    for grid in ([3, 1], [1, 1], []):
        with pytest.raises(ValueError, match="strictly increasing|empty"):
            offset_reduction_check(2, 4, grid)
    for grid in ([0, 1], [1, Fraction(9, 2)], [-1]):
        with pytest.raises(ValueError, match=r"\(0, n\]"):
            offset_reduction_check(2, 4, grid)
    with pytest.raises(ValueError, match="degree must be at least 2"):
        offset_reduction_check(1, 4, [1, 2])


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, 12),
    n=st.integers(1, 6),
    lo=st.fractions(min_value=0, max_value=1, max_denominator=64),
    hi=st.fractions(min_value=0, max_value=1, max_denominator=64),
)
def test_exact_optimum_strictly_increases_in_offset(m, n, lo, hi):
    lo, hi = sorted((lo, hi))
    assume(0 < lo < hi)
    a, b = lo * n, hi * n  # 0 < a < b <= n
    assert search_optimum(m, n, a).best_objective < search_optimum(m, n, b).best_objective
    assert offset_reduction_check(m, n, [a, b]).passed
