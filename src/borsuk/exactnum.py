"""Exact arithmetic substrate.

Exact counts are plain Python ints and exact ratios are fractions.Fraction,
both arbitrary precision out of the box.  The log of a quantity too large
to materialize (binomial ratios at dimensions like 10**18) is a 120-bit
mpmath float, for printing: log_binomial, log_binomial_tail_sum and
FixedPointTail.log.  Verdicts take one float64 enclosure with a proven
margin, _enclose, of float terms: Robbins' bounds on ln C(n, k)
(_robbins_terms), ln S through the fixed-point sum (FixedPointTail.terms)
and a closed-form lower bound on ln S (_tail_lower_terms); bounds sums
them into its count verdicts.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from mpmath import mp

# 120-bit mantissa: comfortably beyond the 80-bit floor needed for 1e-12
# round trips against exact integers.
PRECISION_BITS = 120


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k)."""
    if n < 0 or k < 0 or k > n:
        raise ValueError("invalid binomial: C(%r, %r)" % (n, k))
    return math.comb(n, k)


def binomial_tail_sum(n: int, p: int) -> int:
    """Exact sum of C(n, i) for 0 <= i < p."""
    if n < 0 or p < 1:
        raise ValueError("invalid binomial tail: n=%r p=%r" % (n, p))
    total = 1
    term = 1
    for i in range(1, min(p, n + 1)):
        # C(n, i) = C(n, i-1) * (n - i + 1) / i, always divides exactly
        term = term * (n - i + 1) // i
        total += term
    return total


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# is_prime decides every m below this; the planner refuses to need more
PRIME_LIMIT = 1 << 64


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for every m below 2**64."""
    if m < 2:
        return False
    for q in _SMALL_PRIMES:
        if m == q:
            return True
        if m % q == 0:
            return False
    if m >= PRIME_LIMIT:
        raise ValueError("primality domain exceeded: %d >= 2**64" % m)
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # This witness set is known to be exact for all m < 3.3 * 10**24.
    for w in _SMALL_PRIMES:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def log_binomial(n: int, k: int) -> mp.mpf:
    """ln C(n, k) as a PRECISION_BITS mpmath float, for printing.

    The three loggammas reach (n+1) ln(n+1) < 2^(b+c), b the bit length of
    n+1 and c that of b, while ln C(n, k) is 0 or at least ln 2, so they
    are taken at PRECISION_BITS + b + c + 8 bits and their difference is
    then rounded to PRECISION_BITS: the cancellation costs no digit.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError("invalid binomial: C(%r, %r)" % (n, k))
    b = (n + 1).bit_length()
    with mp.workprec(PRECISION_BITS + b + b.bit_length() + 8):
        val = (
            mp.loggamma(mp.mpf(n) + 1)
            - mp.loggamma(mp.mpf(k) + 1)
            - mp.loggamma(mp.mpf(n - k) + 1)
        )
    with mp.workprec(PRECISION_BITS):
        return +val  # unary plus rounds to the working precision


class FixedPointTail:
    """S = sum of C(n, i) for i < p as C(n, top) * total * 2^exponent.

    __init__ sums it in fixed point; log gives ln S at 120 bits, for
    printing, and terms the float terms of a bound on it, for verdicts.

    With top = min(p-1, n), S = C(n, top) * sum_i C(n, i)/C(n, top).  The
    ratios are summed downward from i = top in plain integers with unit
    2^-b, b = PRECISION_BITS + 32 + 2*bitlen(n+2): t starts at 2^b, each
    step sets t = floor(t*i/(n-i+1)), the exact step ratio C(n, i-1)/C(n, i),
    and adds t to total.  While the ratio exceeds 1 (only when p-1 > n/2)
    t grows; once it reaches 2^(b+1), t and total are shifted right by the
    same amount and the shift is kept as an exponent.  The loop stops when
    t reaches 0.  Then S ~ C(n, top) * total * 2^(shift-b) from below.

    Error bound: the computed sum is a lower bound on S with relative
    error below (n+2)^2 * 2^-b <= 2^-(PRECISION_BITS+32).  Let
    W_i = sum_{l<=i} C(n, l)/C(n, i), the share of the sum that one unit
    of the term at i carries with it, and F = 2^shift * (total + t*(W_i-1))
    with t the current term, at i.  Exact steps would keep F at its start,
    2^b * S/C(n, top); each floor lowers it by less than one unit times
    the weight of what it floors: flooring the new term at i loses less
    than 2^shift * W_i, and a shift (1 for total, W_i - 1 for t) as much.
    As total >= t, F >= 2^shift * t * W_i, so a loss of 2^shift * W_i is
    at most F/t.  The ratio i/(n-i+1) falls as i falls, so the steps whose
    ratio exceeds 1 come first:
      - there t never drops below 2^b (the floor of t times a ratio above
        1 is at least t, and a shift leaves at least 2^b), so each step
        and each shift loses less than 2^-b of the starting F;
      - after them i <= (n+1)/2, so C(n, l) <= C(n, i-1) for l < i and the
        new term's W_{i-1} <= i <= n; total >= 2^b makes the final F at
        least 2^(shift+b), so each step loses less than n * 2^-b of it.
    Over at most n steps the loss is below (n^2 + 2n) * 2^-b of the start.
    Once t is 0 it stays 0 with no further loss, so the dropped tail is
    already counted, and at the end F = 2^shift * total, the computed
    sum.
    """

    def __init__(self, n: int, p: int) -> None:
        if n < 0 or p < 1:
            raise ValueError("invalid binomial tail: n=%r p=%r" % (n, p))
        top = min(p - 1, n)
        bits = PRECISION_BITS + 32 + 2 * (n + 2).bit_length()
        t = total = 1 << bits
        shift = 0
        for i in range(top, 0, -1):
            t = t * i // (n - i + 1)
            if not t:
                break
            total += t
            excess = t.bit_length() - bits - 1
            if excess > 0:
                t >>= excess
                total >>= excess
                shift += excess
        self.n, self.top, self.total, self.exponent = n, top, total, shift - bits

    def log(self) -> mp.mpf:
        """ln S as a PRECISION_BITS mpmath float, for printing."""
        with mp.workprec(PRECISION_BITS):
            return (log_binomial(self.n, self.top)
                    + mp.log(mp.ldexp(self.total, self.exponent)))

    def terms(self, upper: bool) -> List[float]:
        """Float terms of a bound on ln S, from above if upper, for _enclose.

        The Robbins terms of ln C(n, top) from that side (n < 2^1000),
        then log(total) for ln(S/C(n, top)) - exponent ln 2, within 2^-49
        (|t| + 1) of ln total and, as total's error is below 2^-152, within
        2^-48 (|t| + 1) of that value, and exponent * log(2), within
        2u + 2^-50.  The two sides differ by less than 1/(48 k^2),
        k = min(top, n - top).
        """
        k = min(self.top, self.n - self.top)
        return _robbins_terms(self.n, k, upper) + [math.log(self.total),
                                                  self.exponent * math.log(2)]


def log_binomial_tail_sum(n: int, p: int) -> mp.mpf:
    """ln of sum_{i<p} C(n, i) as a PRECISION_BITS mpmath float."""
    return FixedPointTail(n, p).log()


# ln(2 pi)/2, rounded to the nearest float64
_HALF_LN_2PI = 0.9189385332046727

def _enclose(terms: Sequence[float]) -> Tuple[float, float]:
    """(lo, hi) around the exact sum of the reals that terms approximate.

    The float error argument of every enclosure here.  It rests on IEEE
    754 double arithmetic, where +, -, *, / and Python's int/int true
    division are correctly rounded (relative error below u = 2^-53), as is
    an int converted to float (also in int * float), and math.fsum returns
    the exact sum of its inputs rounded once, and on one assumption about
    the C library: math.log, math.log1p and math.expm1 are within 2^-50
    relative error of the exact value, 4 ulps, where common libms document
    1.  So math.log of an int m is within 2^-49 (ln m + 1): CPython rounds
    m to float below 2^1024 and adds e ln 2 to the log of its mantissa
    above (tests/test_exactnum.py samples all of it against mpmath).

    Each term t' must be within 2^-48 * (|t| + 1) of its exact value t.
    With N terms and X = sum(|t'| + 1), that gives
    |t| + 1 <= (1 + 2^-47)(|t'| + 1), so the terms are off by at most
    2^-48 (1 + 2^-47) X in total, and fsum adds at most 2^-53 X: s is
    within 2^-47 X of the exact sum.  The margin 2^-44 * (fsum(|t'|) + N)
    is at least 8 * 2^-47 X (1 - 3u) after its own two roundings, and
    rounding s - margin and s + margin moves them by at most
    u (X + margin) < 2^-52 X, so lo <= sum t <= hi.
    """
    s = math.fsum(terms)
    margin = 2.0 ** -44 * (math.fsum(map(abs, terms)) + len(terms))
    return s - margin, s + margin


def _robbins_terms(n: int, k: int, upper: bool) -> List[float]:
    """Float terms of a bound on ln C(n, k), for k <= n/2, n < 2^1000.

    Robbins (Amer. Math. Monthly 62, 1955): for j >= 1,
    ln j! = (j + 1/2) ln j - j + ln(2 pi)/2 + theta_j with
    1/(12j + 1) < theta_j < 1/(12j).  With m = n - k and x = k/n the
    Stirling parts for j = n, k, m combine to
        -k ln x - m ln(1 - x) - (ln k)/2 - ln(1 - x)/2 - ln(2 pi)/2,
    whose terms share no cancellation, and theta_n - theta_k - theta_m
    lies between 1/(12n + 1) - 1/(12k) - 1/(12m) and
    1/(12n) - 1/(12k + 1) - 1/(12m + 1); upper picks the second.
    Each term is within 2^-49 of its value in relative error, as
    _enclose asks: the fractions are one correctly rounded division; x
    is rounded once (u), and as x <= 1/2, ln x and ln(1 - x) are at least
    ln 2 and x in size, so that rounding moves ln x by at most 1.01u/ln 2
    and log1p(-x) by at most 2.02u of itself; add 2^-50 for the libm call,
    u for k or m rounded to float (exact below 2^53) and u for the product:
    2^-50 + 4.03u < 2^-49, and log(k) is within 2^-49 (ln k + 1).  k = 0
    needs no terms.
    """
    if not k:
        return []
    if n >= 1 << 1000:  # keeps every conversion finite and every ratio normal
        raise ValueError("float enclosure needs n < 2^1000: n=%d" % n)
    m = n - k
    x = k / n
    ln_rest = math.log1p(-x)
    e = 1 if upper else 0
    return [-k * math.log(x), -m * ln_rest, -0.5 * math.log(k), -0.5 * ln_rest,
            -_HALF_LN_2PI,
            1 / (12 * n + 1 - e), -1 / (12 * k + e), -1 / (12 * m + e)]


def _tail_lower_terms(n: int, p: int) -> List[float]:
    """Floats whose exact sum is at most ln of S = sum of C(n, i) for i < p.

    With top = min(p-1, n) and m = min(isqrt(n), top), S is at least its
    m + 1 terms from C(n, top) down.  The step ratio C(n, i-1)/C(n, i) =
    i/(n-i+1) falls as i falls, so over those terms it is at least
    rho = a/b, a = top-m+1, b = n-top+m, and S >= C(n, top) * g with
    g = sum_{j<=m} rho^j.  When rho >= 1, g >= m + 1.  Otherwise, with
    c = b - a > 0, g = (1 - rho^(m+1))/(1 - rho), so
        ln g = ln(-expm1((m+1) ln rho)) - ln(1 - rho),
    where ln rho and ln(1 - rho) = ln(c/b) are taken as log and log1p of
    whichever of a/b and c/b is at most 1/2.  As in _robbins_terms each
    is then within 2^-49 of itself, and so is -ln(1 - rho).  The product
    (m+1) ln rho adds 2u (one for m + 1 rounded to float above 2^53);
    through q(y) = ln(-expm1(y)), whose relative condition
    |y| e^y/(1 - e^y) is at most 1 for y < 0, that moves the first term
    by at most 1.13 * 2^-49, expm1 by 1.01 * 2^-50 and log by 2^-50 of
    itself: within 2^-48 (|t| + 1), as log(m + 1) is.  These terms follow
    the lower _robbins_terms of ln C(n, top), so every term, and its
    negation, meets _enclose's precondition.  top = 0 (S = 1) has none.

    Taking rho at the bottom of the m + 1 terms costs about
    (rho_top - rho)/(1 - rho) = O(1/sqrt(n)) nats when p - 1 < n/2: 0.21
    at (572, 223), the count at d0(0.71), 0.04 at (11504, 4000).
    """
    if n < 0 or p < 1:
        raise ValueError("invalid binomial tail: n=%r p=%r" % (n, p))
    top = min(p - 1, n)
    m = min(math.isqrt(n), top)
    if m == 0:
        return []
    k = min(top, n - top)
    terms = _robbins_terms(n, k, False)
    a, b = top - m + 1, n - top + m
    c = b - a
    if c <= 0:
        terms.append(math.log(m + 1))
    else:
        if 2 * a <= b:
            ln_rho, ln_gap = math.log(a / b), math.log1p(-a / b)
        else:
            ln_rho, ln_gap = math.log1p(-c / b), math.log(c / b)
        terms += [math.log(-math.expm1((m + 1) * ln_rho)), -ln_gap]
    return terms
