"""Parameter selection for the sphere counterexample construction.

Given a sphere radius r in (1/2, 1/sqrt(2)) and an ambient dimension d,
the pipeline picks

  k   the tensor power, minimal with (2k+1)/(8k) < r**2,
  a0  the tail-weight parameter, root of compressed_radius_sq(a0, k) = r**2,
  n   the sign-vector length, largest multiple of 4 with n**(2k) < d,
  a   the forbidden inner product offset, least multiple of 4 at or above
      a0*n/2 such that p = (a+n)/4 is prime.

The identity n - 4p = -a ties the modular argument to the geometry.
There is also a shrinking-radius planner where r = 1/2 + phi(d) with
phi(d) = c_phi * lnln d / ln d (drift, a plain float), used to certify
that the counterexample survives as the radius approaches 1/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .exactnum import PRECISION_BITS, PRIME_LIMIT, FixedLog, _ln, is_prime

Number = Union[int, float, Fraction]

# solve_a0 stops once the a0 bracket and the profile bracket are this narrow
A0_TOL = 1e-12


class CheckFailed(ValueError):
    """A mathematical check evaluated to false at the given parameters."""


def power_threshold(k: int) -> Fraction:
    """The limiting squared radius (2k+1)/(8k) for tensor power k."""
    if k < 1:
        raise ValueError("tensor power must be positive")
    return Fraction(2 * k + 1, 8 * k)


def solve_k(rsq: Number) -> int:
    """Minimal k with (2k+1)/(8k) < rsq, exact in rationals.

    For rsq > 1/4 the inequality is k (8 rsq - 2) > 1, so the least such k
    is floor(1/(8 rsq - 2)) + 1.
    """
    rsq = Fraction(rsq)
    if rsq <= Fraction(1, 4):
        raise ValueError("radius not above one half: rsq=%s" % rsq)
    return math.floor(1 / (8 * rsq - 2)) + 1


def compressed_radius_sq(a0, k: int):
    """Squared circumradius of the construction scaled to diameter 1.

    With t = a0/2 this is (1 + 2k t^(2k-1)) / (2 + 4k t^(2k-1) + (4k-2) t^(2k)).
    Strictly decreasing in a0 on (0, 2), from 1/2 at a0=0 down to
    (2k+1)/(8k) at a0=2.  Works on Fractions, floats and numpy arrays.
    """
    if k < 1:
        raise ValueError("tensor power must be positive")
    if isinstance(a0, (int, float, Fraction)) and not 0 <= a0 <= 2:
        raise ValueError("tail parameter outside [0, 2]: %r" % (a0,))
    t = a0 / 2
    s = t ** (2 * k - 1)
    return (1 + 2 * k * s) / (2 + 4 * k * s + (4 * k - 2) * s * t)


def _radius_sq_pair(m: int, e: int, k: int) -> Tuple[int, int]:
    """compressed_radius_sq at a0 = 2m / 2**e as an unreduced (num, den) pair.

    With t = a0/2 = m / 2**e, both sides of the profile are multiplied
    by 2**(2ke), which leaves plain integers of about 2ke bits.
    """
    s = m ** (2 * k - 1)
    one = 1 << (2 * k * e)
    return (one + (2 * k * s << e),
            2 * one + (4 * k * s << e) + (4 * k - 2) * s * m)


def solve_a0(rsq: Number, k: int) -> Fraction:
    """Solve compressed_radius_sq(a0, k) = rsq for a0 in (0, 2).

    Bisection on the strictly decreasing profile, exact in plain integers
    at every k: each midpoint is dyadic and the profile there is an
    unreduced (num, den) pair, compared with rsq by cross-multiplication.
    It stops once both the a0 bracket and the profile bracket are within
    A0_TOL and returns the upper end, so compressed_radius_sq(a0, k) <= rsq
    holds exactly.  The pairs grow with k, and so does the cost: ~1 ms
    up to k = 125, tens of ms at k = 1000 and seconds at k = 10**4
    (Fraction arithmetic gives the same a0, but its gcds cost 0.36 s at
    k = 1000 and 31 s at k = 10**4).
    """
    rsq = Fraction(rsq)
    if not power_threshold(k) < rsq < Fraction(1, 2):
        raise ValueError("no root in (0, 2): rsq=%s k=%d" % (rsq, k))
    rn, rd = rsq.numerator, rsq.denominator
    tn, td = A0_TOL.as_integer_ratio()
    # a0 lies in [2lo / 2**e, 2(lo+1) / 2**e], profile values u_lo > rsq >= u_hi
    lo, e = 0, 0
    (nl, dl), (nh, dh) = (1, 2), (2 * k + 1, 8 * k)
    for _ in range(400):
        if 2 * td <= tn << e and (nl * dh - nh * dl) * td <= tn * dl * dh:
            return Fraction(lo + 1, 1 << (e - 1))
        lo, e = 2 * lo, e + 1
        num, den = _radius_sq_pair(lo + 1, e, k)
        if num * rd <= rn * den:
            nh, dh = num, den
        else:
            lo, nl, dl = lo + 1, num, den
    raise ValueError("bisection failed to converge")


def _integer_root(x: int, e: int) -> int:
    """Largest r with r**e <= x, by integer Newton iteration."""
    if x < 0 or e < 1:
        raise ValueError("invalid integer root")
    if x in (0, 1) or e == 1:
        return x
    r = 1 << ((x.bit_length() + e - 1) // e)
    while True:
        s = ((e - 1) * r + x // r ** (e - 1)) // e
        if s >= r:
            break
        r = s
    while r ** e > x:
        r -= 1
    return r


def choose_n(d: int, k: int) -> int:
    """Largest n = 0 (mod 4) with n**(2k) < d."""
    e = 2 * k
    if d < 1 or (d - 1).bit_length() <= 2 * e:  # d <= 4^e = 2^(2e)
        raise ValueError("no admissible n: d=%d requires d > 4^%d" % (d, e))
    m = _integer_root(d - 1, e)  # largest m with m**e < d
    n = m - m % 4
    assert n ** e < d <= (n + 4) ** e
    return n


def least_offset(a0: Number, n: int) -> int:
    """Least multiple of 4, at least 4, at or above a0*n/2: choose_a's first a.

    No offset choose_a returns is smaller, so (least_offset + n)/4 bounds
    its prime p from below without a prime scan.
    """
    num, den = a0.as_integer_ratio()
    need = -(-num * n // (2 * den))  # ceil(a0*n/2) in integers
    return max(4, 4 * ((need + 3) // 4))


def choose_a(a0: Number, n: int) -> Tuple[int, int]:
    """Least multiple of 4 at or above a0*n/2 whose p = (a+n)/4 is prime.

    The scan runs p up from q = (least_offset + n)/4 and ends by Bertrand's
    postulate, a prime in [q, 2q]; for a0 <= 2, every planner input,
    least_offset <= n, so q <= n/2 and a = 4p - n <= 3n.  It refuses to
    reach p >= 2^64, past the range where is_prime is deterministic.
    """
    if n % 4 != 0 or n <= 0:
        raise ValueError("vector length must be a positive multiple of 4")
    for a in itertools.count(least_offset(a0, n), 4):
        p = (a + n) // 4
        if p >= PRIME_LIMIT:
            raise ValueError("n = %d needs a prime p = (a+n)/4 >= 2^64, past the "
                             "deterministic Miller-Rabin range" % n)
        if is_prime(p):
            return a, p


@dataclass
class ParamSet:
    """One fully specified instance of the construction."""

    r: float
    rsq: Fraction
    k: int
    a0: Fraction
    n: int
    a: int
    p: int
    d: int
    mode: str = "fixed"  # "fixed" or "shrinking"
    phi: Optional[float] = None

    @property
    def p0(self) -> Fraction:
        """Limit density p/n -> a0/8 + 1/4 of the prime cutoff."""
        return Fraction(self.a0) / 8 + Fraction(1, 4)

    def validate(self) -> None:
        if self.mode not in ("fixed", "shrinking"):
            raise ValueError("unknown mode %r" % self.mode)
        if self.rsq <= Fraction(1, 4):
            raise ValueError("radius not above one half")
        if power_threshold(self.k) >= self.rsq:
            raise ValueError("tensor power too small for radius")
        if self.mode == "fixed" and self.k > 1 and power_threshold(self.k - 1) < self.rsq:
            raise ValueError("tensor power not minimal")
        if not 0 < Fraction(self.a0) < 2:
            raise ValueError("tail parameter outside (0, 2)")
        if compressed_radius_sq(Fraction(self.a0), self.k) > self.rsq:
            raise ValueError("compressed radius at a0 exceeds r^2")
        if self.n % 4 != 0 or self.n <= 0:
            raise ValueError("vector length not a positive multiple of 4")
        if not self.n ** (2 * self.k) < self.d <= (self.n + 4) ** (2 * self.k):
            raise ValueError("vector length does not match dimension window")
        if self.a % 4 != 0 or self.a < 4:
            raise ValueError("offset not a positive multiple of 4")
        if Fraction(self.a) < Fraction(self.a0) * self.n / 2:
            raise ValueError("offset below a0*n/2")
        if not is_prime(self.p):
            raise ValueError("p is not prime")
        if self.p % 2 == 0:
            raise ValueError("p = %d is even: the residue argument needs an odd prime"
                             % self.p)
        if self.n - 4 * self.p != -self.a:
            raise ValueError("construction relation violated: n - 4p != -a")


def _fixed_power(r: float) -> Tuple[Fraction, int]:
    """(rsq, k) for a fixed radius r, refusing r <= 1/2."""
    rsq = Fraction(r) ** 2
    if rsq <= Fraction(1, 4):
        raise ValueError("radius not above one half: r=%r" % (r,))
    return rsq, solve_k(rsq)


def fixed_profile(r: float) -> Tuple[Fraction, int, Fraction]:
    """(rsq, k, a0) for a fixed radius r; none of it depends on d.

    For r at or above 1/sqrt(2) any tail parameter compresses far enough,
    so the profile root is taken at the canonical interior target 7/16
    (the construction then sits on a great subsphere of the requested one).
    """
    rsq, k = _fixed_power(r)
    target = rsq if rsq < Fraction(1, 2) else Fraction(7, 16)
    return rsq, k, solve_a0(target, k)


def fixed_params(r: float, rsq: Fraction, k: int, a0: Fraction, d: int) -> ParamSet:
    """The validated fixed-radius ParamSet at d for a profile (rsq, k, a0)."""
    n = choose_n(d, k)
    a, p = choose_a(a0, n)
    ps = ParamSet(r=float(r), rsq=rsq, k=k, a0=a0, n=n, a=a, p=p, d=d, mode="fixed")
    ps.validate()
    return ps


def plan_fixed(r: float, d: int) -> ParamSet:
    """Plan parameters for a fixed radius r > 1/2 and dimension d.

    The radius and then the dimension window are checked before a0 is
    solved, so a d that admits no n is refused at any k.
    """
    choose_n(d, _fixed_power(r)[1])
    return fixed_params(r, *fixed_profile(r), d)


def drift(d: int, c_phi: float = 6.0) -> float:
    """Radius drift phi(d) = c_phi * lnln d / ln d of the shrinking mode."""
    if d < 3:
        raise ValueError("dimension too small for lnln: d=%d" % d)
    ln_d = _ln(d, 1, PRECISION_BITS)  # both logs times 2^PRECISION_BITS
    ln_ln_d = _ln(ln_d, 1 << PRECISION_BITS, PRECISION_BITS)
    phi = float(Fraction(c_phi) * ln_ln_d / ln_d)
    if phi <= 0:
        raise ValueError("drift not positive at d=%d" % d)
    return phi


@dataclass(frozen=True)
class CheckRecord:
    """One inequality in the shrinking-radius chain."""

    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class ShrinkingRadiusReport:
    """Every check behind the shrinking-radius claim, evaluated at one d.

    Failures are recorded, never raised: the point of the report is to
    say which inequality gives out when d is too small.  Later fields are
    None when an earlier step already failed structurally, and
    final_ratio_log is None until bounds.shrinking_radius_check adds the
    count ratio's log, a FixedLog.
    """

    d: int
    c_phi: float
    phi: float
    k: int
    a0: Optional[Fraction]
    n: Optional[int]
    a: Optional[int]
    p: Optional[int]
    checks: Tuple[CheckRecord, ...]
    final_ratio_log: Optional[FixedLog]
    passes: bool


# plan_shrinking's message for each failed check, from the report's integers
_CHAIN_FAILURES = {
    "power_margin": "(2k+1)/(8k) < r^2 fails",
    "tail_parameter_range": "tail parameter 2 - phi/2 <= 0",
    "compression": "compressed radius check fails",
    "dimension_window": "no admissible n: d={d} requires d > 4^{e}",
    "prime_scan": "n={n} needs a prime p = (a+n)/4 >= 2^64",
    "offset_below_n": "offset a={a} not below n={n}",
    "prime_window": "prime window p <= n/2 - phi*n/20 fails",
}


def shrinking_chain(d: int, c_phi: float = 6.0) -> ShrinkingRadiusReport:
    """The chain at radius r = 1/2 + phi(d), phi = c_phi*lnln d/ln d.

    Checks, in dependency order: the power threshold sits below r^2
    (k = ceil(1/phi)); a0 = 2 - phi/2 lies in (0, 2); the compressed
    radius at a0 sits below r^2 (exact rational comparison); a dimension
    window admits n (recorded as the bit length of d - 1 against 4k: d >
    4^(2k) exactly when the first is larger, and neither side overflows a
    float); the prime scan finds a; the offset lands below n;
    the prime lands in [n/2 - phi*n/20].  A structural failure (a0, n or
    the prime missing) ends the chain.  The count ratio is not here.
    """
    phi = drift(d, c_phi)
    rsq = Fraction(0.5 + phi) ** 2
    k = math.ceil(1 / phi)
    checks: List[CheckRecord] = []

    def record(name: str, lhs, rhs, passed: bool) -> None:
        checks.append(CheckRecord(name, float(lhs), float(rhs), passed))

    def report(a0=None, n=None, a=None, p=None) -> ShrinkingRadiusReport:
        return ShrinkingRadiusReport(
            d=d, c_phi=float(c_phi), phi=phi, k=k, a0=a0, n=n, a=a, p=p,
            checks=tuple(checks), final_ratio_log=None,
            passes=all(c.passed for c in checks),
        )

    thr = power_threshold(k)
    record("power_margin", thr, rsq, thr < rsq)
    a0 = Fraction(2) - Fraction(phi) / 2
    if not 0 < a0 < 2:
        record("tail_parameter_range", a0, 2, False)
        return report()
    u = compressed_radius_sq(a0, k)
    record("compression", u, rsq, u < rsq)
    try:
        n = choose_n(d, k)
    except ValueError:
        record("dimension_window", (d - 1).bit_length(), 4 * k, False)
        return report(a0)
    try:
        a, p = choose_a(a0, n)
    except ValueError:
        record("prime_scan", n, 0, False)
        return report(a0, n)
    record("offset_below_n", a, n, a < n)
    window = Fraction(n, 2) - Fraction(phi) * n / 20
    record("prime_window", p, window, Fraction(p) <= window)
    return report(a0, n, a, p)


def plan_shrinking(d: int, c_phi: float = 6.0) -> ParamSet:
    """Plan parameters at radius r = 1/2 + phi(d), phi = c_phi*lnln d/ln d.

    Raises CheckFailed naming the first failed check of shrinking_chain
    when d is too small for the parameter pipeline to close.  The final
    counting inequality is not checked here; see
    bounds.shrinking_radius_check.
    """
    rep = shrinking_chain(d, c_phi)
    for c in rep.checks:
        if not c.passed:
            raise CheckFailed("d below threshold d0: " + _CHAIN_FAILURES[c.name].format(
                d=d, e=2 * rep.k, n=rep.n, a=rep.a))
    r = 0.5 + rep.phi
    ps = ParamSet(r=r, rsq=Fraction(r) ** 2, k=rep.k, a0=rep.a0, n=rep.n, a=rep.a,
                  p=rep.p, d=d, mode="shrinking", phi=rep.phi)
    ps.validate()
    return ps
