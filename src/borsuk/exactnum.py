"""Exact arithmetic substrate.

Exact counts are plain Python ints and exact ratios are fractions.Fraction,
both arbitrary precision out of the box.  Quantities too large to
materialize (binomial ratios at dimensions like 10**18) are mirrored in
log space by LogReal, which stores ln|x| as an mpmath float with well
over 80 bits of mantissa plus a sign flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class LogReal:
    """A real number as (sign, ln|x|) with a high-precision log part.

    sign is -1, 0 or +1; log_abs is an mpmath float (ignored when sign
    is 0).  Division and comparison stay in log space, so values such
    as C(10**6, 5*10**5) never need to materialize.
    """

    log_abs: object  # mpmath.mpf
    sign: int = 1

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(mp.mpf("-inf"), 0)

    @classmethod
    def from_int(cls, m: int) -> "LogReal":
        if m == 0:
            return cls.zero()
        with mp.workprec(PRECISION_BITS):
            return cls(mp.log(mp.mpf(abs(m))), 1 if m > 0 else -1)

    @classmethod
    def from_log(cls, log_abs, sign: int = 1) -> "LogReal":
        with mp.workprec(PRECISION_BITS):
            return cls(mp.mpf(log_abs), sign)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.sign == 0:
            raise ZeroDivisionError("LogReal division by zero")
        if self.sign == 0:
            return LogReal.zero()
        with mp.workprec(PRECISION_BITS):
            return LogReal(self.log_abs - other.log_abs, self.sign * other.sign)

    def _key(self):
        if self.sign == 0:
            return (0, 0)
        return (self.sign, self.sign * self.log_abs)

    def __gt__(self, other: "LogReal") -> bool:
        return self._key() > other._key()

    def gt_number(self, x: int) -> bool:
        return self > LogReal.from_int(x)

    def __repr__(self) -> str:
        return "LogReal(sign=%d, log_abs=%s)" % (self.sign, mp.nstr(self.log_abs, 20))


def log_binomial(n: int, k: int) -> LogReal:
    """ln C(n, k) via loggamma; exact inputs, >=80-bit log output."""
    if n < 0 or k < 0 or k > n:
        raise ValueError("invalid binomial: C(%r, %r)" % (n, k))
    with mp.workprec(PRECISION_BITS):
        val = (
            mp.loggamma(mp.mpf(n) + 1)
            - mp.loggamma(mp.mpf(k) + 1)
            - mp.loggamma(mp.mpf(n - k) + 1)
        )
    return LogReal.from_log(val, 1)


def log_binomial_tail_sum(n: int, p: int) -> LogReal:
    """ln of S = sum of C(n, i) for i < p, from a fixed-point integer sum.

    With top = min(p-1, n), S = C(n, top) * sum_i C(n, i)/C(n, top).  The
    ratios are summed downward from i = top in plain integers with unit
    2^-b, b = PRECISION_BITS + 32 + 2*bitlen(n+2): t starts at 2^b, each
    step sets t = floor(t*i/(n-i+1)), the exact step ratio C(n, i-1)/C(n, i),
    and adds t to total.  While the ratio exceeds 1 (only when p-1 > n/2)
    t grows; once it reaches 2^(b+1), t and total are shifted right by the
    same amount and the shift is kept as an exponent.  The loop stops when
    t reaches 0.  Then S ~ C(n, top) * total * 2^(shift-b), and one
    log_binomial and one log give the result.

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
    sum.  The two logs then add only mpmath's 120-bit rounding.
    """
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
    with mp.workprec(PRECISION_BITS):
        val = log_binomial(n, top).log_abs + mp.log(mp.ldexp(total, shift - bits))
    return LogReal.from_log(val, 1)
