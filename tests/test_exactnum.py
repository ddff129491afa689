"""Exact arithmetic oracles: Pascal's rule, trial division, brute sums."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp

from borsuk import exactnum
from borsuk.bounds import (
    _enclose,
    _robbins_terms,
    _tail_lower_terms,
    _tail_ratio_lower,
)
from borsuk.exactnum import (
    PRECISION_BITS,
    FixedLog,
    binomial,
    binomial_tail_sum,
    is_prime,
    log_binomial,
    log_binomial_tail_sum,
)


def as_mpf(x):
    """A FixedLog as an mpmath float, rounded to the working precision."""
    return mp.mpf(x.numerator) / x.denominator


def enclose_lower(terms):
    """The lower end of _enclose's enclosure: its upper end, negated, of
    the negated terms."""
    return -_enclose([-t for t in terms])


def log_binomial_tail_lower(n, p):
    """Oracle: the float lower bound on ln sum_{i<p} C(n, i) whose terms
    bounds.find_d0's reject sums, summed on their own."""
    return enclose_lower(_tail_lower_terms(n, p))


def robbins_bounds(n, k):
    """Oracle: (lo, hi) around ln C(n, k) from the Robbins terms that
    find_d0's rejects sum, each side summed on its own."""
    k = min(k, n - k)
    return (enclose_lower(_robbins_terms(n, k, False)),
            _enclose(_robbins_terms(n, k, True)))


def interval_log_tail_sum(n, p):
    """Oracle independent of exactnum: ln sum_{i<p} C(n, i) in mpmath.iv at
    the current iv.prec, for 2(p - 1) < n.

    iv.loggamma for C(n, p - 1), then the term ratios to it summed downward
    in intervals until the rest, at most t rho/(1 - rho) for the current
    term t and step ratio rho, is below 2^-(iv.prec - 20) of the sum.
    """
    assert 2 * (p - 1) < n
    top = p - 1
    total, term, i = iv.mpf(1), iv.mpf(1), top
    cut = iv.mpf(2) ** (20 - iv.prec)
    while i:
        rho = iv.mpf(i) / (n - i + 1)
        rest = term * rho / (1 - rho)
        if rest.b < total.a * cut:
            total += iv.mpf([0, rest.b])
            break
        term *= rho
        total += term
        i -= 1
    return (iv.loggamma(n + 1) - iv.loggamma(top + 1) - iv.loggamma(n - top + 1)
            + iv.log(total))


def _pascal_table(rows):
    tab = [[1]]
    for n in range(1, rows):
        prev = tab[-1]
        tab.append(
            [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
        )
    return tab


def test_binomial_against_pascal_recurrence():
    tab = _pascal_table(41)
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == tab[n][k]


def test_binomial_edge_and_errors():
    assert binomial(0, 0) == 1
    assert binomial(64, 32) == 1832624140942590534
    for n, k in [(-1, 0), (3, -1), (3, 4)]:
        with pytest.raises(ValueError, match="invalid binomial"):
            binomial(n, k)


def _trial_division(m):
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def test_is_prime_against_trial_division():
    for m in range(-3, 5000):
        assert is_prime(m) == _trial_division(m), m


def test_is_prime_known_hard_cases():
    # Carmichael numbers and near-prime products
    for m in (561, 1105, 1729, 2465, 2821, 6601, 1000003 * 1000033):
        assert not is_prime(m)
    assert is_prime(2 ** 61 - 1)
    assert is_prime(1000003)
    # odd and free of small factors, so the domain guard is what fires
    with pytest.raises(ValueError, match="primality domain exceeded"):
        is_prime((1 << 64) + 1)


def test_binomial_tail_sum_brute():
    for n in (0, 1, 4, 8, 12, 16, 31):
        for p in range(1, n + 4):
            assert binomial_tail_sum(n, p) == sum(
                math.comb(n, i) for i in range(min(p, n + 1))
            )
    with pytest.raises(ValueError, match="invalid binomial tail"):
        binomial_tail_sum(8, 0)
    with pytest.raises(ValueError, match="invalid binomial tail"):
        binomial_tail_sum(-1, 2)


@pytest.mark.parametrize("n,k", [(96, 48), (96, 13), (400, 100), (10 ** 6, 10 ** 5)])
def test_log_binomial_matches_exact(n, k):
    got = log_binomial(n, k)
    with mp.workprec(120):
        want = mp.log(mp.mpf(math.comb(n, k)))
        err = abs(float(as_mpf(got) - want))
    assert err <= 1e-15 * max(1.0, abs(float(want)))


@pytest.mark.parametrize("n,k", [(10 ** 40, 1), (10 ** 40, 5), (2 ** 200, 3)])
def test_log_binomial_keeps_its_digits_at_huge_n(n, k):
    # the loggammas are ~n ln n, far larger than ln C(n, k)
    got = log_binomial(n, k)
    with mp.workprec(300):
        want = mp.log(mp.mpf(math.comb(n, k)))
        assert abs(as_mpf(got) - want) <= mp.mpf(2) ** -100 * want


@st.composite
def _tail_args(draw):
    n = draw(st.integers(0, 3000))
    return n, draw(st.integers(1, n + 1))


@settings(max_examples=150, deadline=None)
@given(_tail_args())
@example((0, 1))
@example((3000, 1))
@example((3000, 3001))  # the whole row, 2^3000
@example((3000, 2900))  # p-1 > n/2: terms grow as i falls, then shrink
@example((2999, 1500))  # p-1 = (n-1)/2: the step ratio reaches 1
def test_log_binomial_tail_sum_matches_exact(args):
    n, p = args
    got = log_binomial_tail_sum(n, p)
    with mp.workprec(200):
        want = mp.log(mp.mpf(binomial_tail_sum(n, p)))
        assert abs(as_mpf(got) - want) <= mp.mpf(2) ** -100 * max(1, abs(want))


def test_log_binomial_tail_sum_renormalised():
    # p-1 far above n/2: the term grows by ~2^10616 before it peaks at
    # i = n/2, so the sum is shifted right many times.  The exact oracle
    # is the complement, 2^n minus the short tail sum_{i <= n-p} C(n, i).
    n, p = 20000, 18000
    exact = (1 << n) - binomial_tail_sum(n, n - p + 1)
    got = log_binomial_tail_sum(n, p)
    with mp.workprec(200):
        want = mp.log(mp.mpf(exact))
        assert abs(as_mpf(got) - want) <= mp.mpf(2) ** -100 * abs(want)


def test_log_binomial_tail_sum_huge_argument():
    # far beyond anything a materialized integer should be asked to hold
    big = log_binomial_tail_sum(10 ** 7, 10 ** 6)
    assert isinstance(big, FixedLog)
    assert float(big) > 10 ** 6


def _dyadic(x):
    """An mpmath float's exact value as a FixedLog."""
    man, exp = x.man_exp  # man is unsigned
    return FixedLog(int(mp.sign(x)) * man * Fraction(2) ** exp)


def test_nstr_working_bits_use_libm_log2_10():
    # the literal is the float mpmath's to_str computes as math.log(10, 2)
    assert exactnum._LOG2_10 == math.log(10, 2)


def test_nstr_matches_mpmath_on_floats():
    # 10,000 log-uniform floats from 1e-30 to 1e40, both signs
    rng = random.Random(20261020)
    for _ in range(10000):
        x = rng.choice((-1, 1)) * 10 ** rng.uniform(-30, 40)
        assert FixedLog(x).nstr() == mp.nstr(mp.mpf(x), 25), x


def test_nstr_matches_mpmath_on_wide_dyadics():
    # 200-bit mantissas: every digit mpmath's to_str reads is significant
    rng = random.Random(20261021)
    with mp.workprec(200):
        for _ in range(3000):
            x = mp.mpf(rng.getrandbits(200)) * mp.mpf(2) ** rng.randint(-330, 70)
            assert _dyadic(x).nstr() == mp.nstr(x, 25), x


def test_nstr_rounding_edges():
    # the 26th digit a 4 followed by 9s, a 5 followed by 0s, 9s carried
    # into a new leading digit, and the ends of fixed notation
    rng = random.Random(20261022)
    heads = ["1234567890123456789012345", "9999999999999999999999999",
             "1000000000000000000000000", "5000000000000000000000000"]
    heads += ["".join(rng.choice("0123456789") for _ in range(24)) + d
              for d in "0123456789"]
    values = [mp.mpf(0), mp.mpf(1), mp.mpf(-1), mp.mpf(10) ** 25, mp.mpf(10) ** -8]
    with mp.workprec(300):
        for head in heads:
            for tail in ("4999999", "5", "5000000", "5000001", "49", "9999999"):
                for exponent in (-40, -9, -8, -7, -1, 0, 1, 23, 24, 25, 26, 60):
                    for sign in "-", "":
                        text = "%s0.%s%se%d" % (sign, head, tail, exponent)
                        values.append(mp.mpf(text))
        # exact ties: 26-digit integers ending in 5
        values += [mp.mpf(int(head + "5")) for head in heads]
        for x in values:
            assert _dyadic(x).nstr() == mp.nstr(x, 25), x


def _loggamma_route(n, k):
    """ln C(n, k) the way mpmath's loggamma gives it: three loggammas at
    120 + b + bitlen(b) + 8 bits, b = bitlen(n + 1), rounded to 120."""
    b = (n + 1).bit_length()
    with mp.workprec(120 + b + b.bit_length() + 8):
        val = mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
    with mp.workprec(120):
        return +val


def _sampled_binomials(seed, count, top):
    rng = random.Random(seed)
    pairs = [(n, k) for n in (1, 2, 63, 64, 65, 100, 256, 257, 1023, 1024, 1025)
             for k in (0, 1, n // 3, n // 2, n)]
    for _ in range(count):
        n = int(10 ** rng.uniform(0, top))
        k = rng.choice((rng.randint(0, n), rng.randint(0, min(n, 2000))))
        pairs.append((n, k))
    return pairs


def test_log_binomial_prints_as_loggamma():
    # 25 printed digits, the same as mpmath's loggamma route, up to 10^15
    for n, k in _sampled_binomials(20261023, 400, 15):
        got = log_binomial(n, k).nstr()
        assert got == mp.nstr(_loggamma_route(n, k), 25), (n, k)


def test_log_binomial_within_stated_error():
    # within 2^-(120 + 2b) of ln C(n, k), b = bitlen(n + 1), against
    # loggamma at enough bits for the cancellation to cost nothing
    for n, k in _sampled_binomials(20261024, 150, 40):
        b = (n + 1).bit_length()
        with mp.workprec(3 * b + 200):
            want = mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
            err = abs(as_mpf(log_binomial(n, k)) - want)
            assert err < mp.mpf(2) ** -(120 + 2 * b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 600), st.integers(1, 2 ** 600),
       st.sampled_from((64, 120, 256, 700)))
@example(1, 1, 120)
@example(2, 1, 64)
@example(2 ** 600, 2 ** 600 - 1, 256)  # ln of a ratio just above 1
def test_fixed_point_ln_within_stated_error(a, b, bits):
    got = exactnum._ln(a, b, bits)
    with mp.workprec(bits + 1300):
        want = mp.log(mp.mpf(a) / b) * mp.mpf(2) ** bits
        assert abs(got - want) < 1.5


def test_fixed_point_constants():
    for bits in (64, 192, 1024):
        ln2, table = exactnum._constants(bits)
        with mp.workprec(bits + 64):
            unit = mp.mpf(2) ** bits
            assert abs(ln2 - mp.log(2) * unit) < 1.01
            for j, t in enumerate(table, 1):
                assert abs(t - mp.log1p(mp.mpf(2) ** -j) * unit) < 1.01
            half_ln_2pi = mp.log(2 * mp.pi) / 2
            assert abs(exactnum._half_ln_2pi(bits) - half_ln_2pi * unit) < 2
    assert [exactnum._bernoulli(m) for m in (2, 4, 6, 8, 10, 12)] == [
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730)]


@st.composite
def _binomial_args(draw):
    n = draw(st.integers(2, 10 ** 12))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=300, deadline=None)
@given(_binomial_args())
@example((2, 1))
@example((10 ** 12, 1))
@example((10 ** 12, 5 * 10 ** 11))
@example((10 ** 12, 10 ** 12 - 1))
@example((573, 286))  # the walk's numerator at d0(0.71)
def test_log_binomial_bounds_enclose_log_binomial(args):
    n, k = args
    lo, hi = robbins_bounds(n, k)
    assert lo <= log_binomial(n, k) <= hi
    # Robbins' theta gap and the float margin only
    assert hi - lo <= 2.0 ** -42 * (hi + math.log(n) + 10) + 1 / (48 * min(k, n - k) ** 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_log_binomial_bounds_enclose_exact(args):
    n, k = args
    lo, hi = robbins_bounds(n, k)
    with mp.workprec(200):
        assert lo <= mp.log(mp.mpf(binomial(n, k))) <= hi


def test_log_binomial_bounds_edges():
    assert robbins_bounds(0, 0) == (0.0, 0.0)
    assert robbins_bounds(7, 7) == (0.0, 0.0)
    for n, k in [(-1, 0), (3, -1), (3, 4)]:
        with pytest.raises(ValueError, match="invalid binomial"):
            log_binomial(n, k)
    with pytest.raises(ValueError, match="2\\^1000"):
        robbins_bounds(1 << 1000, 5)
    with pytest.raises(ValueError, match="2\\^1000"):
        log_binomial_tail_lower(1 << 1000, 5)
    assert robbins_bounds(1 << 1000, 0) == (0.0, 0.0)
    assert log_binomial_tail_lower(1 << 1000, 1) == 0.0


@st.composite
def _huge_binomial_args(draw):
    n = draw(st.integers(2 ** 53, 2 ** 200))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=200, deadline=None)
@given(_huge_binomial_args())
@example((2 ** 53, 1))
@example((2 ** 53 + 1, 2 ** 52))
@example((99999999999999995, 49999999999999997))  # bound --r 0.9 --d 10^34
@example((2 ** 200, 2 ** 199))
def test_log_binomial_bounds_above_2_53(args):
    # n, k and n - k no longer convert to float exactly; the reference
    # is loggamma at 500 bits, accurate to ~2^-290 nats at n <= 2^200
    n, k = args
    lo, hi = robbins_bounds(n, k)
    with mp.workprec(500):
        want = mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
        assert lo <= want <= hi
    assert hi - lo <= 2.0 ** -42 * (hi + math.log(n) + 10) + 1 / (48 * min(k, n - k) ** 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(2 ** 53, 2 ** 4000), st.floats(min_value=-4.0, max_value=4.0))
@example(2 ** 53 + 1, 1.5)
@example(10 ** 34 + 1, -0.5)  # bound --r 0.9 --d 10^34: its threshold
@example(2 ** 1000 - 1, 1.0)
@example(2 ** 1024 + 1, 1.0)  # past the float range
def test_int_conversion_and_log_of_int(m, y):
    # the enclosures take an int converted to float (also in int * float)
    # to be rounded to nearest, and math.log of an int m >= 1 to be within
    # 2^-49 (ln m + 1) of ln m, thresholds included; sample both
    with mp.workprec(4100):
        exact = mp.log(m)
    assert abs(math.log(m) - exact) <= 2.0 ** -49 * (exact + 1)
    if m < 2 ** 1000:
        with mp.workprec(53):
            nearest = float(mp.mpf(m))
        assert float(m) == nearest
        assert m * y == nearest * y


@st.composite
def _tail_lower_args(draw):
    # beyond 30000, p-1 <= 0.45n keeps the fixed-point oracle's loop short
    n = draw(st.integers(0, 10 ** 9))
    if n <= 30000:
        return n, draw(st.integers(1, n + 2))
    return n, draw(st.integers(1, int(0.45 * n)))


@settings(max_examples=200, deadline=None)
@given(_tail_lower_args())
@example((0, 1))
@example((3000, 1))
@example((3000, 2))  # S = n + 1, bounded by its top term C(n, 1) = n
@example((3000, 3001))
@example((3000, 2900))  # top past n/2: the bound is C(n, top) alone
@example((2999, 1500))
@example((11504, 5273))  # the walk's denominator at d0(0.59)
def test_log_binomial_tail_lower_below_tail_sum(args):
    n, p = args
    assert log_binomial_tail_lower(n, p) <= log_binomial_tail_sum(n, p)


def _robbins_reals(n, k, upper):
    """The reals that _robbins_terms(n, k, upper) approximates, in mpmath
    at the current precision."""
    if not k:
        return []
    m, x, e = n - k, mp.mpf(k) / n, 1 if upper else 0
    return [-k * mp.log(x), -m * mp.log1p(-x), -mp.log(k) / 2, -mp.log1p(-x) / 2,
            -mp.log(2 * mp.pi) / 2,
            mp.mpf(1) / (12 * n + 1 - e), -mp.mpf(1) / (12 * k + e),
            -mp.mpf(1) / (12 * m + e)]


def _tail_lower_reals(n, p):
    """The reals that _tail_lower_terms(n, p) approximates, in mpmath: the
    Robbins reals of ln C(n, top) and the logs of _tail_ratio_lower's
    integer bound on S/C(n, top)."""
    top = min(p - 1, n)
    reals = _robbins_reals(n, min(top, n - top), False)
    gn, gd = _tail_ratio_lower(top, n - top + 1, 1)
    if (gn, gd) == (1, 1):
        return reals
    return reals + [mp.log(gn), -mp.log(gd)]


@settings(max_examples=200, deadline=None)
@given(_tail_lower_args())
@example((0, 1))
@example((3000, 2))
@example((3000, 2900))
@example((573, 286))  # the walk's numerator at d0(0.71)
@example((11504, 5273))  # the walk's denominator at d0(0.59)
def test_enclose_one_end_contract(args):
    # _enclose returns the upper end only; the lower end is its negation
    # on the negated terms, s - margin bit for bit.  Both ends hold the
    # reals the Robbins and tail terms approximate (mpmath at 300 bits),
    # and the floats' own exact sum (Fractions)
    n, c = args
    k = min(c, n - c) if c <= n else 0
    with mp.workprec(300):
        cases = [(_robbins_terms(n, k, upper), mp.fsum(_robbins_reals(n, k, upper)))
                 for upper in (False, True)]
        cases.append((_tail_lower_terms(n, c), mp.fsum(_tail_lower_reals(n, c))))
    for terms, real in cases:
        lo, hi = enclose_lower(terms), _enclose(terms)
        margin = 2.0 ** -44 * (math.fsum(map(abs, terms)) + len(terms))
        assert lo == math.fsum(terms) - margin
        assert lo <= real <= hi
        assert lo <= sum(map(Fraction, terms)) <= hi


@st.composite
def _tail_replay_args(draw):
    # beyond 3000, exact sums are out of reach: p - 1 <= 0.45n keeps the
    # interval replay short
    n = draw(st.integers(0, 10 ** 17))
    if n <= 3000:
        return n, draw(st.integers(1, n + 2))
    return n, draw(st.integers(1, int(0.45 * n)))


@settings(max_examples=100, deadline=None)
@given(_tail_replay_args())
@example((0, 1))
@example((3000, 1))
@example((3000, 3001))  # the whole row, 2^3000
@example((3000, 2900))  # p-1 > n/2: the sum is shifted on the way
@example((2999, 1500))
@example((11504, 5273))  # count_bound at d0(0.59)
@example((31622776, 12229487))  # bound --r 0.71 --d 10^15
@example((10 ** 17, 45 * 10 ** 15))
def test_log_binomial_tail_sum_within_interval_replay(args):
    # the count verdicts read this log: it is within 2^-(PRECISION_BITS+1)
    # of the exact sum's log where that exists, else of an interval replay
    # at 200 bits, whose width is far below that
    n, p = args
    got = log_binomial_tail_sum(n, p)
    error = Fraction(1, 2 << PRECISION_BITS)
    with mp.workprec(400):
        if n <= 3000:
            want = mp.log(mp.mpf(binomial_tail_sum(n, p)))
            assert abs(as_mpf(got) - want) <= as_mpf(error)
            return
        prec, iv.prec = iv.prec, 200
        try:
            want = interval_log_tail_sum(n, p)
        finally:
            iv.prec = prec
        lo, hi = mp.mpf(want.a), mp.mpf(want.b)
        assert hi - lo < as_mpf(error) / 1000
        assert lo - as_mpf(error) <= as_mpf(got) <= hi + as_mpf(error)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=2.0 ** -60, max_value=2.0 ** 53),
       st.floats(min_value=0.0, max_value=0.5))
@example(1.0, 0.5)
def test_libm_within_assumed_error(x, w):
    # find_d0's walk rejects, the only float enclosures left, take
    # math.log and log1p to be within 2^-50 relative error of the exact
    # value; sample it against mpmath
    with mp.workprec(200):
        for got, want in [(math.log(x), mp.log(x)), (math.log1p(-w), mp.log1p(-w))]:
            assert abs(got - want) <= mp.mpf(2) ** -50 * abs(want)
