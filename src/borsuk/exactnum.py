"""Exact arithmetic substrate.

Exact counts are plain Python ints and exact ratios are fractions.Fraction,
both arbitrary precision out of the box.  The log of a quantity too large
to materialize (binomial ratios at dimensions like 10**18) is a FixedLog,
an exact dyadic fraction within 2^-120 of it: log_binomial and
log_binomial_tail_sum.  They come from plain integers: a fixed-point ln
(_ln) and ln j!, exact below a cutoff and from Stirling's series above it
(_ln_factorial); FixedLog.nstr prints the 25 digits the CLI shows, as
mpmath's nstr would.  The count verdicts read these logs, and
bounds.find_d0's rejects take _ln at 64 bits.  Nothing here takes a
float log, so no verdict rests on the C library's logs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Tuple

# every printed log is within 2^-PRECISION_BITS of the real one
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
    return _tail_pass(n, p, 0)[0]


_BLOCK = 64  # most terms one block of _tail_pass takes


def _tail_pass(n: int, p: int, k: int) -> Tuple[int, int]:
    """(S, C(n, k)), S = sum of C(n, i) for i < p, in one ascending pass,
    for n >= 0, p >= 1 and 0 <= k <= n.

    With top = min(p-1, n), the pass runs up to max(top, k) in blocks of
    at most _BLOCK terms, and a block ends at top and at k, so that S is
    complete after the block ending at top and C(n, k) is the running
    term after the one ending at k.  A block after index i, ending at s,
    takes the running term t = C(n, i) to C(n, s).  The step ratio
    C(n, j)/C(n, j-1) is a_j/b_j with a_j = n - j + 1 and b_j = j, so with
        A = prod a_j,  D = prod b_j  (i < j <= s),
        N = sum_{i<j<=s} (prod_{i<l<=j} a_l) (prod_{j<l<=s} b_l),
    each term of N/D is C(n, j)/C(n, i), and
        C(n, s) = t A/D,  sum_{i<j<=s} C(n, j) = t N/D.
    Both are integers, a binomial and a sum of binomials, so the floor
    divisions t A // D and t N // D are exact.  N comes Horner-style from
    N_i = 0, N_j = N_{j-1} b_j + prod_{i<l<=j} a_l, which is the sum above
    cut at j; A, D and N have at most _BLOCK bitlen(n) bits, so each block
    takes two products and two divisions of t by small integers instead
    of one of each per term.  Blocks past top only move t.
    """
    top = min(p - 1, n)
    total = term = central = 1
    i = 0
    while i < max(top, k):
        s = min(i + _BLOCK, *(edge for edge in (top, k) if edge > i))
        num = den = 1
        folded = 0
        for j in range(i + 1, s + 1):
            num *= n - j + 1
            den *= j
            folded = folded * j + num
        if s <= top:
            total += term * folded // den
        term = term * num // den
        if s == k:
            central = term
        i = s
    return total, central


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
    # The prime bases 2..37 are exact for all m < 3.18 * 10**23 (OEIS A014233).
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


# printed significant digits; mpmath's to_str works at 3 more, in the
# binary precision below, with log2(10) the float math.log(10, 2) gives
# (the literal mpmath's dps_to_prec also writes), fixed here so that the
# printed digits do not rest on the C library's log
_DIGITS = 25
_LOG2_10 = 3.3219280948873626
_NSTR_BITS = int((_DIGITS + 3) * _LOG2_10) + 10
# steps of _ln's table: its atanh argument ends below 2^-_STEPS
_STEPS = 12


class FixedLog(Fraction):
    """A printed log: an exact dyadic fraction within its producer's stated
    error of the real log.  nstr gives the 25 digits the CLI prints."""

    __slots__ = ()

    def nstr(self) -> str:
        """mpmath's nstr(self, 25), digit for digit (mpmath.libmp.to_str,
        for 2^-3500 < |x| < 2^3500, where it does not rescale first).

        The digits of floor(floor(|x| 2^f) 10^g / 2^f), with f and g set by
        the position of |x|'s leading bit, rounded half up at the 26th;
        fixed notation for a leading decimal exponent in (-8, 25), else
        exponent notation, and trailing zeros stripped.
        """
        if not self:
            return "0.0"
        num, den = abs(self.numerator), self.denominator
        fix = max(_NSTR_BITS - num.bit_length() + den.bit_length() - 1, 0)
        dps = int(fix / _LOG2_10 + 0.5)
        digits = str(((num << fix) // den) * 10 ** dps >> fix)
        exponent = len(digits) - dps - 1
        if digits[_DIGITS] in "56789":  # digits has 28 or more
            digits = str(int(digits[:_DIGITS]) + 1)
            exponent += len(digits) > _DIGITS
        digits, split = digits[:_DIGITS], 1
        if -8 < exponent < _DIGITS:
            digits = "0" * -exponent + digits
            split, exponent = max(exponent, 0) + 1, 0
        text = (digits[:split] + "." + digits[split:]).rstrip("0")
        text = ("-" if self < 0 else "") + text + ("0" if text[-1] == "." else "")
        if exponent:
            text += "e%+d" % exponent
        return text


def _atanh(z: int, bits: int, sign: int = 1) -> int:
    """atanh(z) (sign 1) or atan(z) (sign -1) of z = z/2^bits in [0, 1/3],
    times 2^bits: within 2(T + 1) units (of 2^-bits) after T passes.

    Each power is within 2.25 units of z^k 2^bits (a floor, z2's floor,
    and at most 1/9 of the last error), each added term within 1.75, and
    the terms after the power reaches 0 sum to less than 2.
    """
    z2 = sign * (z * z >> bits)
    total = power = z
    k = 1
    while power:
        power = power * z2 >> bits
        k += 2
        total += power // k
    return total


@functools.lru_cache(maxsize=None)
def _constants(bits: int) -> Tuple[int, Tuple[int, ...]]:
    """ln 2 and ln(1 + 2^-j), j = 1.._STEPS, times 2^bits, each within 1.01
    units: 2 atanh(1/q) for q = 3 and 2^(j+1) + 1 at 32 more bits, where
    its error, 4(T + 1) units with T < w/3 passes, is far below 2^32 of
    them, floored to bits."""
    w = bits + 32

    def log_ratio(q):  # ln((q + 1)/(q - 1))
        return 2 * _atanh((1 << w) // q, w) >> 32

    return log_ratio(3), tuple(log_ratio((2 << j) + 1) for j in range(1, _STEPS + 1))


@functools.lru_cache(maxsize=None)
def _half_ln_2pi(bits: int) -> int:
    """ln(2 pi)/2 times 2^bits within 2 units, with pi from Machin's
    16 atan(1/5) - 4 atan(1/239) at 32 more bits."""
    w = bits + 32
    pi = 16 * _atanh((1 << w) // 5, w, -1) - 4 * _atanh((1 << w) // 239, w, -1)
    return _ln(pi, 1 << (w - 1), bits) >> 1


def _ln(a: int, b: int, bits: int) -> int:
    """ln(a/b) times 2^bits, for positive ints a, b: within 1.5 units.

    With 2^e <= a/b < 2^(e+1), it works at w bits, bits + g rounded up to
    a multiple of 16 (so that _constants repeats), g = bitlen(max(bits,
    |e|)) + 7.  M = floor(a/b 2^(w-e)), in [2^w, 2^(w+1)), is within 2^-w
    of a/b 2^-e relative.  For j = 1.._STEPS, P += P >> j whenever that
    stays below 2^(w+1), taking ln(1 + 2^-j) off: each floor loses less
    than a unit and later steps grow the loss by less than
    prod (1 + 2^-j) < 2.4, so P is within 12 * 2.4 = 28.8 units of M
    times the factors, and a step not taken leaves P (1 + 2^-j) >=
    2^(w+1) - 1, so z = (2^(w+1) - P)/(2^(w+1) + P) < 2^-_STEPS.  Then
        ln(a/b) = (e + 1) ln 2 - sum ln(1 + 2^-j) - 2 atanh(z).
    _atanh's power falls by z^2 < 2^-24 a pass, so it reaches 0 after
    T <= w/24 + 2 passes.  In units of 2^-w: 1 (M), 28.8 (P),
    1.01 |e + 1| (ln 2), 12.12 (the table's 12 entries), 2.01 (z floored)
    and 4(T + 1) <= w/6 + 12 (_atanh), below w/6 + 1.01 |e| + 57.  With
    m = max(bits, |e|), w <= bits + g + 15 <= 2m + 22, so that is below
    1.35 m + 61 < 64 (m + 1) <= 2^(g-1).  Floored to bits, >= g fewer,
    the result is within 1/2 + 1 units.
    """
    e = a.bit_length() - b.bit_length()
    if a << max(-e, 0) < b << max(e, 0):
        e -= 1
    w = -(-(bits + max(bits, abs(e)).bit_length() + 7) // 16) * 16
    ln2, table = _constants(w)
    p = (a << (w - e)) // b if e <= w else a // (b << (e - w))
    top = 1 << (w + 1)
    total = (e + 1) * ln2
    for j, t in enumerate(table, 1):
        grown = p + (p >> j)
        if grown < top:
            p, total = grown, total - t
    z = ((top - p) << w) // (top + p)
    return (total - 2 * _atanh(z, w)) >> (w - bits)


@functools.lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """The Bernoulli number B_m, m even and positive, from
    sum_{k<=m} C(m+1, k) B_k = 0 (B_0 = 1, B_1 = -1/2, odd ones above 0)."""
    s = Fraction(1 - m, 2) + sum(math.comb(m + 1, k) * _bernoulli(k)
                                 for k in range(2, m, 2))
    return -s / (m + 1)


@functools.lru_cache(maxsize=None)
def _stirling(m: int) -> Tuple[int, int]:
    """B_m / (m (m - 1)) as (numerator, denominator)."""
    c = _bernoulli(m) / (m * (m - 1))
    return c.numerator, c.denominator


def _ln_factorial(j: int, bits: int) -> int:
    """ln j! times 2^bits, within 2j + K + 5 units, K the series terms taken.

    Below 4 bits it is _ln(j!), within 1.5.  From there Stirling's series
        ln j! = (j + 1/2) ln j - j + ln(2 pi)/2
                + sum_{i<=K} B_2i / (2i (2i - 1) j^(2i-1)) + R_K,
    whose remainder R_K, for real j > 0, has the sign and at most the size
    of the first omitted term (DLMF 5.11.ii).  The sum stops at the first
    term below one unit, so |R_K| < 1.  The K terms are truncated (under a
    unit each), (j + 1/2) ln j is off by at most 1.5 (j + 1/2) + 1 and
    ln(2 pi)/2 by 2.  The stop comes early: the terms fall while
    2i < 2 pi j, where they are near e^(-2 pi j) < 2^(-9 j) < 2^-bits.
    """
    if j < 4 * bits:
        return _ln(math.factorial(j), 1, bits)
    total = ((2 * j + 1) * _ln(j, 1, bits) >> 1) - (j << bits) + _half_ln_2pi(bits)
    power, m = j, 2
    while True:  # the term B_m / (m (m - 1) j^(m-1)), m = 2i
        num, den = _stirling(m)
        term = (abs(num) << bits) // (den * power)
        if not term:
            return total
        total += term if num > 0 else -term
        power *= j * j
        m += 2


def log_binomial(n: int, k: int) -> FixedLog:
    """ln C(n, k) within 2^-(PRECISION_BITS + 2b), b the bit length of n + 1.

    The three ln j! (_ln_factorial) are taken at w bits, PRECISION_BITS +
    3b + 4 rounded up to a multiple of 64, each within 2j + K + 5 units of
    2^-w, j <= n < 2^b, while ln C(n, k) is 0 or at least ln 2: their sum is
    off by less than 6 * 2^b + 3K + 15 < 2^(w - PRECISION_BITS - 2b) units,
    as K = 0 below j = 4w and K < w otherwise, so the cancellation costs
    no digit.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError("invalid binomial: C(%r, %r)" % (n, k))
    b = (n + 1).bit_length()
    w = -(-(PRECISION_BITS + 3 * b + 4) // 64) * 64
    total = _ln_factorial(n, w) - _ln_factorial(k, w) - _ln_factorial(n - k, w)
    return FixedLog(total, 1 << w)


def log_binomial_tail_sum(n: int, p: int) -> FixedLog:
    """ln S, S = sum of C(n, i) for i < p, within 2^-(PRECISION_BITS+1).

    With top = min(p-1, n) and mid = min(top, floor(n/2)), a term past n/2
    is its mirror's, C(n, i) = C(n, n-i), so S = C(n, mid) * sum_i c_i
    C(n, i)/C(n, mid) over i <= mid, where c_i = 2 if the mirror n-i lies
    in (mid, top], i.e. n-top <= i < n-mid, and c_i = 1 otherwise.  The
    ratios are summed downward from i = mid in plain integers with unit
    2^-b, b = PRECISION_BITS + 32 + 2*bitlen(n+2): t starts at 2^b, each
    step sets t = floor(t*i/(n-i+1)), the exact step ratio C(n, i-1)/C(n, i),
    and c_i t is added to total.  The loop stops when t reaches 0.

    Error bound: the computed sum is a lower bound on S with relative
    error below (n+2)^2 * 2^-b <= 2^-(PRECISION_BITS+32).  As i <= n/2,
    every step ratio is at most 1, so by induction the term at i is below
    its exact value by at most mid - i units: each floor loses less than
    one, and a ratio at most 1 does not grow the deficit carried in.
    Once t is 0 the later floors keep it 0, so the dropped terms are
    those same floors.  Counted at most twice each, the terms lose at
    most 2 * sum_{i<mid} (mid - i) = mid(mid+1) <= (n^2 + 2n)/4 units,
    against a sum of at least 2^b (the term at mid).

    ln S is log_binomial's ln C(n, mid), within 2^-(PRECISION_BITS+2), plus
    _ln of total 2^-b at PRECISION_BITS + 32 bits, within 1.5 units,
    which the sum's relative error below 2^-(PRECISION_BITS+32) moves by
    less than 1.01 more.
    """
    if n < 0 or p < 1:
        raise ValueError("invalid binomial tail: n=%r p=%r" % (n, p))
    top = min(p - 1, n)
    mid = min(top, n // 2)
    lo, hi = n - top, n - mid
    bits = PRECISION_BITS + 32 + 2 * (n + 2).bit_length()
    t, total = 1 << bits, 0
    for i in range(mid, -1, -1):
        total += t
        if lo <= i < hi:
            total += t
        t = t * i // (n - i + 1)
        if not t:
            break
    w = PRECISION_BITS + 32
    return FixedLog(log_binomial(n, mid) + Fraction(_ln(total, 1 << bits, w), 1 << w))
