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
from fractions import Fraction
from typing import Iterator, Union

from mpmath import mp

# 120-bit mantissa: comfortably beyond the 80-bit floor needed for 1e-12
# round trips against exact integers.
PRECISION_BITS = 120

Number = Union[int, float, Fraction]


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
    is 0).  Multiplication, division and comparison stay in log space,
    so values such as C(10**6, 5*10**5) never need to materialize.
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
    def from_fraction(cls, q: Fraction) -> "LogReal":
        if q == 0:
            return cls.zero()
        with mp.workprec(PRECISION_BITS):
            val = mp.log(mp.mpf(abs(q.numerator))) - mp.log(mp.mpf(q.denominator))
        return cls(val, 1 if q > 0 else -1)

    @classmethod
    def from_float(cls, x: float) -> "LogReal":
        if x == 0.0:
            return cls.zero()
        with mp.workprec(PRECISION_BITS):
            return cls(mp.log(abs(mp.mpf(x))), 1 if x > 0 else -1)

    @classmethod
    def from_log(cls, log_abs, sign: int = 1) -> "LogReal":
        with mp.workprec(PRECISION_BITS):
            return cls(mp.mpf(log_abs), sign)

    def __mul__(self, other: "LogReal") -> "LogReal":
        if self.sign == 0 or other.sign == 0:
            return LogReal.zero()
        with mp.workprec(PRECISION_BITS):
            return LogReal(self.log_abs + other.log_abs, self.sign * other.sign)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.sign == 0:
            raise ZeroDivisionError("LogReal division by zero")
        if self.sign == 0:
            return LogReal.zero()
        with mp.workprec(PRECISION_BITS):
            return LogReal(self.log_abs - other.log_abs, self.sign * other.sign)

    def add(self, other: "LogReal") -> "LogReal":
        """Log-space addition (log-sum-exp on the magnitudes)."""
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        with mp.workprec(PRECISION_BITS):
            hi, lo = self, other
            if lo.log_abs > hi.log_abs:
                hi, lo = lo, hi
            delta = mp.exp(lo.log_abs - hi.log_abs)
            if hi.sign == lo.sign:
                return LogReal(hi.log_abs + mp.log(1 + delta), hi.sign)
            if delta == 1:
                return LogReal.zero()
            return LogReal(hi.log_abs + mp.log(1 - delta), hi.sign)

    def _key(self):
        if self.sign == 0:
            return (0, 0)
        return (self.sign, self.sign * self.log_abs)

    def __lt__(self, other: "LogReal") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "LogReal") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "LogReal") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "LogReal") -> bool:
        return self._key() >= other._key()

    def gt_number(self, x: Number) -> bool:
        if isinstance(x, int):
            return self > LogReal.from_int(x)
        if isinstance(x, Fraction):
            return self > LogReal.from_fraction(x)
        return self > LogReal.from_float(x)

    def to_mpf(self):
        with mp.workprec(PRECISION_BITS):
            if self.sign == 0:
                return mp.mpf(0)
            return self.sign * mp.exp(self.log_abs)

    def to_float(self) -> float:
        return float(self.to_mpf())

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
    """ln of sum of C(n, i) for i < p, summed in log space.

    Terms are accumulated downward from i = p-1 with the exact step ratio
    C(n, i-1)/C(n, i) = i/(n-i+1); the loop stops once the remaining terms
    cannot move the total at working precision.
    """
    if n < 0 or p < 1:
        raise ValueError("invalid binomial tail: n=%r p=%r" % (n, p))
    top = min(p - 1, n)
    with mp.workprec(PRECISION_BITS):
        cur = log_binomial(n, top).log_abs
        total = cur
        for i in range(top, 0, -1):
            cur = cur + mp.log(mp.mpf(i)) - mp.log(mp.mpf(n - i + 1))
            total = total + mp.log(1 + mp.exp(cur - total))
            if cur < total - (PRECISION_BITS + 16) * mp.log(2):
                break
    return LogReal.from_log(total, 1)
