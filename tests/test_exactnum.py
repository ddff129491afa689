"""Exact arithmetic oracles: Pascal's rule, trial division, brute sums."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp

from borsuk import bounds, exactnum
from borsuk.bounds import _tail_ratio_lower
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


def gap_upper_reference(n, c, k):
    """Oracle: an upper bound on the gap
    G = ln C(n-1, n/2-1) - ln S - ln(n^(2k) + 2), S = sum_{i<c} C(n, i),
    that bounds._gap_bound bounds, as an mpmath float at the current
    precision (at least 400 bits).

    For n <= 3000 it is the upper end of an interval log of the exact
    integers.  Above that it is log_binomial minus log_binomial_tail_sum,
    whose errors add up to less than 2^-120, minus the threshold's log,
    taken at a margin of 2^-119: within 2^-118 of G.  Where the tail
    sum's loop would be long (c - 1 > 0.45n above n = 30000), ln S is
    replaced by its lower bound ln C(n, top) + ln(gn/gd), (gn, gd) =
    _tail_ratio_lower at the corner (n, top + 1), whose proof
    test_block_rate_growth_facts checks against exact sums.
    """
    threshold = n ** (2 * k) + 2
    if n <= 3000:
        prec, iv.prec = iv.prec, 300
        try:
            gap = (iv.log(iv.mpf(binomial(n - 1, n // 2 - 1)))
                   - iv.log(iv.mpf(binomial_tail_sum(n, c) * threshold)))
        finally:
            iv.prec = prec
        return mp.mpf(gap.b)
    top = min(c - 1, n)
    if n <= 30000 or 20 * top <= 9 * n:
        ln_s = as_mpf(log_binomial_tail_sum(n, c))
    else:
        gn, gd = _tail_ratio_lower(top, n - top + 1, 1)
        ln_s = as_mpf(log_binomial(n, top)) + mp.log(mp.mpf(gn) / gd)
    return (as_mpf(log_binomial(n - 1, n // 2 - 1)) - ln_s - mp.log(threshold)
            + mp.mpf(2) ** -119)


def as_units(upper):
    """_gap_bound's M, in units of 2^-_RATE_BITS, as an mpmath float."""
    return mp.mpf(upper) / 2 ** bounds._RATE_BITS


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
    # strong pseudoprimes to every prime base up to 19, and up to 31
    # (OEIS A014233): only the later bases of the witness set expose them
    for m in (341550071728321, 3825123056546413051):
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


def test_tail_pass_block_edges():
    # S(n, p) and C(n, n/2) against math.comb at every n <= 200 and every
    # p up to n + 2 (p - 1 past n/2 and past n included), so p - 1 and
    # n/2 fall on and next to the block edges 63, 64, 65 and 128; the n
    # from 255 to 260 put n/2 at 127..130
    for n in list(range(201)) + list(range(255, 261)):
        sums = [0]
        for i in range(n + 1):
            sums.append(sums[-1] + math.comb(n, i))
        central = math.comb(n, n // 2)
        ps = range(1, n + 3) if n <= 200 else (1, 63, 64, 65, 66, 128, 129, 130, n, n + 2)
        for p in ps:
            assert exactnum._tail_pass(n, p, n // 2) == (sums[min(p, n + 1)], central), (n, p)
            assert binomial_tail_sum(n, p) == sums[min(p, n + 1)], (n, p)


@pytest.mark.parametrize("n,p", [(572, 223), (4208, 1831), (11504, 5273)])
def test_tail_pass_matches_term_loop(n, p):
    # the per-term loop the pass replaced, at printed d0-table cases
    total = term = 1
    for i in range(1, p):
        term = term * (n - i + 1) // i
        total += term
    assert exactnum._tail_pass(n, p, n // 2) == (total, math.comb(n, n // 2))


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
@example((3000, 2900))  # p-1 > n/2: terms at i in [101, 1500) count twice
@example((2999, 1500))  # p-1 = (n-1)/2: up to the middle, none counted twice
@example((2999, 1501))  # p-1 = (n+1)/2: only the middle term counts twice
@example((3000, 1502))  # p-1 = n/2 + 1: i = n/2 - 1 counts twice, n/2 once
@example((3000, 3000))  # p-1 = n-1: i in [1, n/2) count twice
@example((1, 2))  # n = 1: the one term, at i = 0, counts twice
def test_log_binomial_tail_sum_matches_exact(args):
    n, p = args
    got = log_binomial_tail_sum(n, p)
    with mp.workprec(200):
        want = mp.log(mp.mpf(binomial_tail_sum(n, p)))
        assert abs(as_mpf(got) - want) <= mp.mpf(2) ** -100 * max(1, abs(want))


def test_log_binomial_tail_sum_mirrored_terms():
    # p-1 far above n/2: C(n, p-1) is ~2^-10616 of the middle term, where
    # the walk starts, and each i in [n-p+1, n/2) counts twice, for its
    # mirror in (n/2, p-1].  The exact oracle is the complement, 2^n minus
    # the short tail sum_{i <= n-p} C(n, i).
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


@st.composite
def _tail_lower_args(draw):
    # beyond 30000, p-1 <= 0.45n keeps the fixed-point oracle's loop short
    n = draw(st.integers(0, 10 ** 9))
    if n <= 30000:
        return n, draw(st.integers(1, n + 2))
    return n, draw(st.integers(1, int(0.45 * n)))


def _top_at(args):
    """(n, k) as the corner (n, c) of a tail whose top term is C(n, k)."""
    return args[0], args[1] + 1


def robbins_reference(n, top, k):
    """Oracle: (want, slack) with want <= M 2^-64 <= want + slack for
    M = bounds._gap_bound(n, top + 1, k), even n >= 2, 0 <= top <= n.

    want is ln C(n-1, n/2-1) - ln C(n, top) - ln(gn/gd) - ln(n^(2k) + 2)
    from loggamma at the current precision, (gn, gd) = _tail_ratio_lower
    at the corner (n, top + 1): ln S's lower bound, taken exactly.  slack
    is Robbins' theta gap, 1/(144 j^2) with j = min(top, n - top) (none at
    j = 0) plus 3/n^2 for the central theta and ln(n^(2k) + 2) - 2k ln n,
    and the 10n + 6k + 20 units of the logs' errors, margin and rounding.
    """
    j = min(top, n - top)
    gn, gd = _tail_ratio_lower(top, n - top + 1, 1)
    want = (mp.loggamma(n) - mp.loggamma(n // 2) - mp.loggamma(n // 2 + 1)
            - mp.loggamma(n + 1) + mp.loggamma(top + 1) + mp.loggamma(n - top + 1)
            - mp.log(mp.mpf(gn) / gd) - mp.log(n ** (2 * k) + 2))
    slack = mp.mpf(3) / n ** 2 + (10 * n + 6 * k + 20) * as_units(1)
    if j:
        slack += mp.mpf(1) / (144 * j * j)
    return want, slack


def gap_closed_form(n, c, k):
    """Oracle: the real that _gap_bound's docstring bounds G by, before
    any rounding (exact logs, exact 1/x terms), in mpmath at the current
    precision."""
    top = min(c - 1, n)
    j = min(top, n - top)
    m = n - j
    gn, gd = _tail_ratio_lower(top, n - top + 1, 1)
    form = (n * mp.log(2) - mp.log(mp.mpf(gn) / gd) + mp.mpf(1) / (12 * n)
            - mp.mpf(2) / (6 * n + 1))
    if not j:
        return form - (mp.mpf(1) / 2 + 2 * k) * mp.log(n) - mp.log(2 * mp.pi) / 2
    return (form - (n + 1 + 2 * k) * mp.log(n) + (j + mp.mpf(1) / 2) * mp.log(j)
            + (m + mp.mpf(1) / 2) * mp.log(m) - mp.mpf(1) / (12 * n + 1)
            + mp.mpf(1) / (12 * j) + mp.mpf(1) / (12 * m))


def _even(n):
    """n rounded up to the even n >= 2 that _gap_bound takes."""
    return max(2, n + n % 2)


@settings(max_examples=300, deadline=None)
@given(_binomial_args(), st.integers(1, 3))
@example((2, 1), 1)
@example((10 ** 12, 1), 1)
@example((10 ** 12, 5 * 10 ** 11), 1)  # top = n/2
@example((10 ** 12, 10 ** 12 - 1), 2)
@example((573, 286), 1)  # the walk's numerator at d0(0.71)
def test_log_binomial_bounds_enclose_log_binomial(args, k):
    # the integer bound at a tail whose top term is C(n, k), n <= 10^12:
    # M 2^-64 is at least the gap (log_binomial and log_binomial_tail_sum,
    # 2^-119 above), and within Robbins' theta gap and the logs' errors
    # and margin above the gap with ln S at its proven lower bound
    n, c = _top_at(args)
    n = _even(n)
    upper = bounds._gap_bound(n, c, k)
    assert isinstance(upper, int)
    with mp.workprec(400):
        assert gap_upper_reference(n, c, k) <= as_units(upper)
        want, slack = robbins_reference(n, c - 1, k)
        assert want <= as_units(upper) <= want + slack


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(1, 3))
@example((0, 0), 1)  # S = 1 at the least even n, 2
@example((2999, 1499), 3)
def test_log_binomial_bounds_enclose_exact(args, k):
    # n <= 3000, top term C(n, k): M 2^-64 is at least the gap from exact
    # integers (an interval log), and within the stated slack above it
    n, c = _top_at(args)
    n = _even(n)
    upper = bounds._gap_bound(n, c, k)
    with mp.workprec(400):
        assert gap_upper_reference(n, c, k) <= as_units(upper)
        want, slack = robbins_reference(n, min(c - 1, n), k)
        assert want <= as_units(upper) <= want + slack


@settings(max_examples=200, deadline=None)
@given(_tail_lower_args(), st.integers(1, 3))
@example((0, 1), 1)
@example((3000, 1), 1)
@example((3000, 2), 1)  # S = n + 1, bounded by its top term C(n, 1) = n
@example((3000, 3001), 2)
@example((3000, 2900), 1)  # top past n/2: the bound is C(n, top) alone
@example((2999, 1500), 3)
@example((11504, 5273), 2)  # the walk's denominator at d0(0.59)
def test_log_binomial_tail_lower_below_tail_sum(args, k):
    # find_d0's reject at a corner (n, c): the bound's lower end on
    # ln S is below the tail sum, so M 2^-64 is at least the gap
    n, p = args
    n = _even(n)
    with mp.workprec(400):
        assert gap_upper_reference(n, p, k) <= as_units(bounds._gap_bound(n, p, k))


@settings(max_examples=200, deadline=None)
@given(_tail_lower_args(), st.integers(1, 3))
@example((0, 1), 1)
@example((3000, 2), 1)
@example((3000, 2900), 2)
@example((573, 286), 1)  # the walk's numerator at d0(0.71)
@example((11504, 5273), 2)  # the walk's denominator at d0(0.59)
def test_enclose_one_end_contract(args, k):
    # _gap_bound returns one end only, an int: the closed form of its
    # docstring in reals (mpmath at 300 bits) rounded up by its margin,
    # so M 2^-64 is at least that real and above it by less than the
    # 5n + 3k + 9 units of margin, 4.5n + 3k + 4.5 of the logs' errors
    # and the outward rounding of five 1/x terms and the final halving
    n, c = args
    n = _even(n)
    upper = bounds._gap_bound(n, c, k)
    assert isinstance(upper, int)
    with mp.workprec(300):
        real = gap_closed_form(n, c, k)
        assert real <= as_units(upper) <= real + (10 * n + 6 * k + 20) * as_units(1)


def test_log_binomial_bounds_edges():
    for n, k in [(-1, 0), (3, -1), (3, 4)]:
        with pytest.raises(ValueError, match="invalid binomial"):
            log_binomial(n, k)
    # c = 1 and c > n, where ln S's bound has no binomial part (j = 0)
    # and g's bound is 1: ln S >= 0, exact at c = 1 (S = 1).  At the
    # least even n and past any float, M is at least ln C(n-1, n/2-1) -
    # ln(n^2 + 2) from loggamma, and above it by at most the theta gap at
    # n, ln(n^2 + 2) - 2 ln n and the 10n + 26 units of its logs' errors
    # and margin
    for n in (2, 8, 1 << 1000):
        with mp.workprec(1300):
            want = (mp.loggamma(n) - mp.loggamma(n // 2) - mp.loggamma(n // 2 + 1)
                    - mp.log(n * n + 2))
            for c in (1, n + 1, n + 5):
                got = as_units(bounds._gap_bound(n, c, 1))
                assert want <= got <= want + mp.mpf(3) / n ** 2 + (10 * n + 26) * as_units(1)


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
    # the bound's Robbins terms in integers, where n, k and n - k are no
    # longer exact floats: at top = max(k, n - k) >= n/2, ln S is bounded
    # by ln C(n, top) + ln(gn/gd) ((gn, gd) = (1, 1) but at top = n/2), so
    # M is within robbins_reference's slack above its want, from
    # loggamma at 500 bits (~2^-290 nats at n <= 2^200)
    n, k = args
    n += n % 2
    top = max(k, n - k)
    got = bounds._gap_bound(n, top + 1, 1)
    with mp.workprec(500):
        want, slack = robbins_reference(n, top, 1)
        assert want <= as_units(got) <= want + slack


@settings(max_examples=300, deadline=None)
@given(st.integers(2 ** 53, 2 ** 4000), st.floats(min_value=-4.0, max_value=4.0))
@example(2 ** 53 + 1, 1.5)
@example(10 ** 34 + 1, -0.5)  # bound --r 0.9 --d 10^34: its threshold
@example(2 ** 1000 - 1, 1.0)
@example(2 ** 1024 + 1, 1.0)  # past the float range
def test_int_conversion_and_log_of_int(m, y):
    # _gap_bound converts no int to float: it takes ln n, and ln(gn/gd)
    # of two ints of a few times n's bit length, as _ln of the ints
    # themselves, at any size.  At _RATE_BITS each is within the 1.5
    # units its margin counts per log: ln m, and the ratio 1 + y/m in
    # ints, (m q + p)/(m q) with p/q = y exactly, near 1 as gn/gd can be
    p, q = Fraction(y).as_integer_ratio()
    with mp.workprec(300):
        for a, b in [(m, 1), (m * q + p, m * q)]:
            want = mp.log(mp.mpf(a) / b) * mp.mpf(2) ** bounds._RATE_BITS
            assert abs(exactnum._ln(a, b, bounds._RATE_BITS) - want) < 1.5


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
@example((3000, 2900))  # p-1 > n/2: terms at i in [101, 1500) count twice
@example((2999, 1500))
@example((2999, 1501))  # p-1 = (n+1)/2: only the middle term counts twice
@example((3000, 1502))  # p-1 = n/2 + 1: i = n/2 - 1 counts twice, n/2 once
@example((3000, 3000))  # p-1 = n-1: i in [1, n/2) count twice
@example((1, 2))  # n = 1: the one term, at i = 0, counts twice
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
