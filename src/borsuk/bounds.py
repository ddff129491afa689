"""Lower bounds on the partition number of the constructed point set.

Any piece of a partition that realizes no diameter pair avoids the inner
product -a, so its size is capped by the GF(p) dimension bound; pigeonhole
then gives

    parts needed >= |Sigma| / sum_{i<p} C(n, i).

The construction succeeds at dimension d once that ratio beats d+1 (d+2
in the shrinking-radius regime).  This module takes the ratio's log from
plain integers, within 2^-120, and every count verdict reads it
(_ratio_passes), with exact integers only where it is too close to call;
it locates the first dimension where the ratio wins, with float64 rejects
(_gap_bound) on the way, extracts the growth base, and closes
params.shrinking_chain with the count ratio.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .exactnum import (
    PRECISION_BITS,
    FixedLog,
    _enclose,
    _ln,
    _robbins_terms,
    _tail_lower_terms,
    binomial,
    binomial_tail_sum,
    log_binomial,
    log_binomial_tail_sum,
)
from .params import (
    CheckFailed,
    CheckRecord,
    ParamSet,
    ShrinkingRadiusReport,
    choose_a,
    fixed_params,
    fixed_profile,
    least_offset,
    shrinking_chain,
)

_EXACT_N_CAP = 10 ** 4
_D0_SCAN_CAP = 10 ** 24
# a fraction above ln 2 = 0.693147180559945309...
_LN2_UP = (6931471805599454, 10 ** 16)


@dataclass(frozen=True)
class CountBound:
    """The pigeonhole ratio at one parameter set.

    numerator/denominator are exact integers, printed when n is small
    enough to expand them (n <= 10^4); ratio_log, the ratio's log as a
    FixedLog within 2^-PRECISION_BITS of it, is always there.  passes is
    the exact comparison of the ratio against threshold = d+1, read from
    ratio_log (_ratio_passes).
    """

    numerator: Optional[int]
    denominator: Optional[int]
    ratio_log: FixedLog
    threshold: int
    passes: bool


def count_bound(n: int, p: int, threshold: int) -> CountBound:
    """The raw pigeonhole ratio |Sigma(n)| / sum_{i<p} C(n,i) vs threshold.

    _ratio_passes decides passes from ratio_log at every n; the exact
    integers at desk scale are printed fields only.
    """
    if n < 4 or n % 4 != 0:
        raise ValueError("n must be a positive multiple of 4")
    if p < 1:
        raise ValueError("p must be positive")
    if threshold < 1:
        raise ValueError("threshold must be at least 1, got %d" % threshold)
    ratio_log = _ratio_log(n, p)
    num = den = None
    if n <= _EXACT_N_CAP:
        num, den = binomial(n - 1, n // 2 - 1), binomial_tail_sum(n, p)
    return CountBound(num, den, ratio_log, threshold,
                      _ratio_passes(n, p, threshold, ratio_log))


def _ratio_log(n: int, p: int) -> FixedLog:
    """ln(C(n-1, n/2-1) / sum_{i<p} C(n, i)) within 2^-PRECISION_BITS:
    log_binomial's error and log_binomial_tail_sum's add up to less."""
    return FixedLog(log_binomial(n - 1, n // 2 - 1) - log_binomial_tail_sum(n, p))


def _ratio_passes(n: int, p: int, threshold: int, ratio_log: FixedLog) -> bool:
    """C(n-1, n/2-1) > threshold * sum_{i<p} C(n, i), ratio_log = _ratio_log(n, p).

    In units of 2^-PRECISION_BITS, ratio_log is within 1 of the ratio's
    log and _ln(threshold) within 1.5 of ln threshold, so their gap is
    within 2.5 of the real one: beyond 3 units its sign is the verdict.
    Exact integers decide inside.
    """
    gap = ratio_log * (1 << PRECISION_BITS) - _ln(threshold, 1, PRECISION_BITS)
    if abs(gap) > 3:
        return gap > 0
    return binomial(n - 1, n // 2 - 1) > binomial_tail_sum(n, p) * threshold


def lower_bound(ps: ParamSet) -> CountBound:
    """Parts needed for the configuration planned by ps, versus d+1."""
    return count_bound(ps.n, ps.p, ps.d + 1)


def binary_entropy(q) -> float:
    """H(q) = -q log2 q - (1-q) log2 (1-q), from _ln at PRECISION_BITS,
    rounded once."""
    if not 0 <= q <= 1:
        raise ValueError("entropy argument outside [0, 1]")
    if q in (0, 1):
        return 0.0
    a, b = Fraction(q).as_integer_ratio()
    h = -a * _ln(a, b, PRECISION_BITS) - (b - a) * _ln(b - a, b, PRECISION_BITS)
    return h / (b * _ln(2, 1, PRECISION_BITS))


@dataclass(frozen=True)
class AsymptoticBase:
    """Growth constants of the bound, with their empirical certification.

    The denominator grows like c_prime**n with c_prime = 2**H(p0), p0 the
    limit density of the prime cutoff; the bound itself grows like
    (2/c_prime)**n = c**n.  certification lists (n, exact n-th root of
    the tail sum, absolute error against c_prime); the errors must
    shrink as n doubles.
    """

    p0: Fraction
    c_prime: float
    c: float
    certification: Tuple[Tuple[int, float, float], ...]
    monotone: bool


def asymptotic_base(
    ps: ParamSet, cert_sizes: Tuple[int, ...] = (400, 800, 1600)
) -> AsymptoticBase:
    """Entropy closed form for the growth base, checked against exact sums."""
    p0 = ps.p0
    if not Fraction(1, 4) < p0 < Fraction(1, 2):
        raise ValueError("p0 out of range (1/4, 1/2): %s" % p0)
    c_prime = 2.0 ** binary_entropy(p0)
    c = 2.0 / c_prime
    cert: List[Tuple[int, float, float]] = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40  # exp and the conversion to float are correctly rounded
        for m in cert_sizes:
            cutoff = -((-p0.numerator * m) // p0.denominator)  # ceil(p0*m)
            ln = log_binomial_tail_sum(m, cutoff)
            root = float((decimal.Decimal(ln.numerator) / (ln.denominator * m)).exp())
            cert.append((m, root, abs(root - c_prime)))
    errs = [e for (_, _, e) in cert]
    return AsymptoticBase(
        p0=p0,
        c_prime=c_prime,
        c=c,
        certification=tuple(cert),
        monotone=all(x > y for x, y in zip(errs, errs[1:])),
    )


def growth_exponent(ps: ParamSet) -> float:
    """ln(bound) / d**(1/(2k)): converges up to ln c as d grows.

    Negative when the bound has not reached 1 yet (tiny d); callers treat
    that as a small-instance artifact, not an error.
    """
    ratio = lower_bound(ps).ratio_log
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        scale = decimal.Decimal(ps.d) ** (decimal.Decimal(1) / (2 * ps.k))
        return float(decimal.Decimal(ratio.numerator) / ratio.denominator / scale)


@dataclass(frozen=True)
class D0Result:
    """First dimension where the count ratio beats d+1 for this radius.

    previous_d re-checks d0 - 1 directly (when the planner accepts it),
    so minimality is witnessed rather than inferred from the grid walk.
    bound is lower_bound at d0; previous_passes is _ratio_passes, the same
    verdict without the integers that only a printed bound needs.
    walk_steps counts the grid points the walk passed, the ones a block
    reject skipped included (each is proven to fail, see find_d0), and
    full_evaluations those that the float rejects could not settle.
    """

    r: float
    d0: int
    params: ParamSet
    bound: CountBound
    previous_d: Optional[int]
    previous_passes: bool
    walk_steps: int
    full_evaluations: int


def _gap_bound(n: int, tail: List[float], threshold: int) -> float:
    """A proven upper bound on G = ln C(n-1, n/2-1) - ln S - ln(threshold)
    for a tail sum S, for find_d0's rejects.

    tail holds float terms of a bound on ln S from below
    (_tail_lower_terms).  One _enclose sum of those terms negated, the
    upper _robbins_terms of ln C(n-1, n/2-1) and -ln(threshold): each is
    within 2^-48 (|t| + 1) of its exact value (math.log of an int, see
    _enclose), and the exact values sum to at least G.  Closed form: no
    loop, no log.
    """
    terms = _robbins_terms(n - 1, n // 2 - 1, True) + [-t for t in tail]
    return _enclose(terms + [-math.log(threshold)])[1]


def _block_gain(a0: Fraction, n: int, j: int) -> int:
    """4j - (q(n + 4j) - q(n)), q(m) = (least_offset(a0, m) + m)/4."""
    return 3 * j - (least_offset(a0, n + 4 * j) - least_offset(a0, n)) // 4


def find_d0(r: float) -> D0Result:
    """Least d with lower_bound(plan_fixed(r, d)) > d+1, by grid walk.

    Candidates are d = n**(2k) + 1 for n running over multiples of 4:
    between consecutive candidates the planned n, and with it the ratio,
    is constant while the threshold d+1 only grows, so within each window
    the passing dimensions form a prefix.  The first passing grid point
    is therefore the least passing d overall.  The profile (rsq, k, a0)
    depends on r alone, so it is solved once, as plan_fixed solves it.

    Each step first takes M, _gap_bound's upper bound on G(n) =
    ln C(n-1, n/2-1) - ln S(n, q(n)) - ln(n^(2k) + 2) from
    _tail_lower_terms, S(n, c) = sum_{i<c} C(n, i), at
    q(n) = (least_offset(a0, n) + n)/4, the least prime choose_a could
    return.  Its p is at least q and S(n, c) grows with c, so M <= 0
    proves the step fails at p.  A block reject then skips the next j
    steps too, by two exact facts:
      - C(n+1, n/2)/C(n-1, n/2-1) = 4(n+1)/(n+2) < 4, so ln C(n-1, n/2-1)
        grows by less than 4j ln 2 from n to n + 4j;
      - S(m+1, c+1) = S(m, c+1) + S(m, c) >= 2 S(m, c) and
        S(m+1, c) >= S(m, c), so with Dq = q(n + 4j) - q(n) in [0, 4j],
        Dq steps of the first kind and 4j - Dq of the second give
        S(n + 4j, q(n + 4j)) >= 2^Dq S(n, q(n)).
    The threshold n^(2k) + 2 grows with n, so G(n + 4j) <= G(n) +
    gain(j) ln 2, gain(j) = 4j - Dq (_block_gain).  For a0 in (0, 2),
    ceil(a0 m/2) grows by at most ceil(2 a0) <= 4 as m grows by 4, so
    least_offset grows by 0 or 4 and q by 1 or 2 per step: Dq lies in
    [j, 2j] and gain(j) in [2j, 3j], strictly increasing in j.  So once
    M + gain(j) ln 2 <= 0, every step n + 4i with i <= j fails.  The walk
    decides that in integers, with no further enclosure: budget =
    floor(-M / _LN2_UP), exact from M's integer ratio and the fraction
    _LN2_UP > ln 2, and j the largest with gain(j) <= budget, by
    bisection over [budget/3, budget/2]; then gain(j) ln 2 <=
    budget * _LN2_UP <= -M, and the walk goes on at n + 4(j + 1).

    A step that M does not reject runs choose_a's prime scan and the same
    upper bound at the real p, and only the steps that survive both are
    full evaluations: the validated ParamSet and _ratio_passes on the
    integer log, _ratio_log.
    lower_bound runs only at the passing step (d0); the d0 - 1 re-check
    is _ratio_passes at the planned (n, p) for d0 - 1, whose threshold is
    d0.  Every reject is a proof that the ratio stays at or below
    d+1, so no passing step is skipped.  Rejected steps never call
    choose_a, so its refusal of p >= 2^64 is not checked there;
    _D0_SCAN_CAP keeps every p far below that.
    """
    rsq, k, a0 = fixed_profile(r)
    n = 8
    steps = evaluations = 0
    while True:
        d = n ** (2 * k) + 1
        if d > _D0_SCAN_CAP:
            raise CheckFailed("no d0 found below cap %d" % _D0_SCAN_CAP)
        q = (least_offset(a0, n) + n) // 4
        upper = _gap_bound(n, _tail_lower_terms(n, q), d + 1)
        if upper <= 0:
            num, den = (-upper).as_integer_ratio()
            budget = num * _LN2_UP[1] // (den * _LN2_UP[0])
            lo, hi = budget // 3, budget // 2 + 1  # gain(j) is in [2j, 3j]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _block_gain(a0, n, mid) <= budget:
                    lo = mid
                else:
                    hi = mid
            steps += lo + 1
            n += 4 * (lo + 1)
            continue
        steps += 1
        p = choose_a(a0, n)[1]
        if _gap_bound(n, _tail_lower_terms(n, p), d + 1) <= 0:
            n += 4
            continue
        evaluations += 1
        ps = fixed_params(r, rsq, k, a0, d)
        if not _ratio_passes(n, ps.p, d + 1, _ratio_log(n, ps.p)):
            n += 4
            continue
        prev_passes = False
        try:
            prev_d = d - 1
            prev = fixed_params(r, rsq, k, a0, d - 1)
            prev_passes = _ratio_passes(prev.n, prev.p, d, _ratio_log(prev.n, prev.p))
        except (CheckFailed, ValueError):
            prev_d = None
        return D0Result(
            r=float(r),
            d0=d,
            params=ps,
            bound=lower_bound(ps),
            previous_d=prev_d,
            previous_passes=prev_passes,
            walk_steps=steps,
            full_evaluations=evaluations,
        )


def shrinking_radius_check(d: int, c_phi: float = 6.0) -> ShrinkingRadiusReport:
    """params.shrinking_chain at d, completed by the count ratio against d + 2.

    The count ratio is evaluated whenever the chain reached a prime,
    whether or not its other checks passed; its record keeps the ratio's
    log against ln(d + 2), and the verdict of _ratio_passes, which is
    count_bound(n, p, d + 2)'s without the integers it would print.
    """
    rep = shrinking_chain(d, c_phi)
    if rep.p is None:
        return rep
    ratio_log = _ratio_log(rep.n, rep.p)
    target = _ln(d + 2, 1, PRECISION_BITS) / (1 << PRECISION_BITS)
    count = CheckRecord("count_ratio", float(ratio_log), target,
                        _ratio_passes(rep.n, rep.p, d + 2, ratio_log))
    return replace(rep, checks=rep.checks + (count,), final_ratio_log=ratio_log,
                   passes=rep.passes and count.passed)
