"""Lower bounds on the partition number of the constructed point set.

Any piece of a partition that realizes no diameter pair avoids the inner
product -a, so its size is capped by the GF(p) dimension bound; pigeonhole
then gives

    parts needed >= |Sigma| / sum_{i<p} C(n, i).

The construction succeeds at dimension d once that ratio beats d+1 (d+2
in the shrinking-radius regime).  This module evaluates the ratio exactly
at desk scale and in log space always, locates the first dimension where
it wins, extracts the asymptotic growth base, and closes the recorded
shrinking-radius chain of params.shrinking_chain with the count ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath import mp

from .exactnum import (
    PRECISION_BITS,
    LogReal,
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
    shrinking_chain,
)

_EXACT_N_CAP = 10 ** 4
_D0_SCAN_CAP = 10 ** 24


@dataclass(frozen=True)
class CountBound:
    """The pigeonhole ratio at one parameter set.

    numerator/denominator are exact integers when n is small enough to
    expand them (n <= 10^4); ratio_log always carries the value.  passes
    compares the ratio against threshold = d+1, exactly when possible.
    """

    numerator: Optional[int]
    denominator: Optional[int]
    ratio_log: LogReal
    threshold: int
    passes: bool


def count_bound(n: int, p: int, threshold: int) -> CountBound:
    """The raw pigeonhole ratio |Sigma(n)| / sum_{i<p} C(n,i) vs threshold.

    Exact integers at desk scale, log space beyond; the two routes agree
    wherever both exist and the exact one decides passes when available.
    """
    if n < 4 or n % 4 != 0:
        raise ValueError("n must be a positive multiple of 4")
    if p < 1:
        raise ValueError("p must be positive")
    ratio_log = log_binomial(n - 1, n // 2 - 1) / log_binomial_tail_sum(n, p)
    if n <= _EXACT_N_CAP:
        num = binomial(n - 1, n // 2 - 1)
        den = binomial_tail_sum(n, p)
        passes = num > den * threshold
    else:
        num = None
        den = None
        passes = ratio_log.gt_number(threshold)
    return CountBound(
        numerator=num,
        denominator=den,
        ratio_log=ratio_log,
        threshold=threshold,
        passes=passes,
    )


def lower_bound(ps: ParamSet) -> CountBound:
    """Parts needed for the configuration planned by ps, versus d+1."""
    return count_bound(ps.n, ps.p, ps.d + 1)


def binary_entropy(q) -> float:
    """H(q) = -q log2 q - (1-q) log2 (1-q)."""
    if not 0 <= q <= 1:
        raise ValueError("entropy argument outside [0, 1]")
    if q in (0, 1):
        return 0.0
    with mp.workprec(PRECISION_BITS):
        if isinstance(q, Fraction):
            qm = mp.mpf(q.numerator) / q.denominator
        else:
            qm = mp.mpf(q)
        h = -qm * mp.log(qm, 2) - (1 - qm) * mp.log(1 - qm, 2)
        return float(h)


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
    with mp.workprec(PRECISION_BITS):
        for m in cert_sizes:
            cutoff = -((-p0.numerator * m) // p0.denominator)  # ceil(p0*m)
            root = mp.exp(log_binomial_tail_sum(m, cutoff).log_abs / m)
            cert.append((m, float(root), abs(float(root) - c_prime)))
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
    lb = lower_bound(ps)
    if lb.ratio_log.sign <= 0:
        raise ValueError("count ratio not positive")
    with mp.workprec(PRECISION_BITS):
        scale = mp.mpf(ps.d) ** (mp.mpf(1) / (2 * ps.k))
        return float(lb.ratio_log.log_abs / scale)


@dataclass(frozen=True)
class D0Result:
    """First dimension where the count ratio beats d+1 for this radius.

    previous_d re-checks d0 - 1 directly (when the planner accepts it),
    so minimality is witnessed rather than inferred from the grid walk.
    """

    r: float
    d0: int
    params: ParamSet
    bound: CountBound
    previous_d: Optional[int]
    previous_passes: bool


def find_d0(r: float, tol: float = 1e-12) -> D0Result:
    """Least d with lower_bound(plan_fixed(r, d)) > d+1, by grid walk.

    Candidates are d = n**(2k) + 1 for n running over multiples of 4:
    between consecutive candidates the planned n, and with it the ratio,
    is constant while the threshold d+1 only grows, so within each window
    the passing dimensions form a prefix.  The first passing grid point
    is therefore the least passing d overall.  The profile (rsq, k, a0)
    depends on r alone, so it is solved once, as plan_fixed solves it.
    """
    rsq, k, a0 = fixed_profile(r, tol)
    n = 8
    while True:
        d = n ** (2 * k) + 1
        if d > _D0_SCAN_CAP:
            raise CheckFailed("no d0 found below cap %d" % _D0_SCAN_CAP)
        _, p = choose_a(a0, n)
        # single largest term lower-bounds the denominator, so this log
        # comparison can only overestimate the ratio: sound fast reject
        with mp.workprec(PRECISION_BITS):
            upper_est = (
                log_binomial(n - 1, n // 2 - 1).log_abs
                - log_binomial(n, p - 1).log_abs
            )
            certainly_fails = upper_est <= mp.log(mp.mpf(d) + 1)
        if certainly_fails:
            n += 4
            continue
        ps = fixed_params(r, rsq, k, a0, d)
        cb = lower_bound(ps)
        if cb.passes:
            prev_passes = False
            try:
                prev_d = d - 1
                prev_passes = lower_bound(fixed_params(r, rsq, k, a0, d - 1)).passes
            except (CheckFailed, ValueError):
                prev_d = None
            return D0Result(
                r=float(r),
                d0=d,
                params=ps,
                bound=cb,
                previous_d=prev_d,
                previous_passes=prev_passes,
            )
        n += 4


def shrinking_radius_check(d: int, c_phi: float = 6.0) -> ShrinkingRadiusReport:
    """params.shrinking_chain at d, completed by count_bound(n, p, d + 2).

    The count ratio is evaluated whenever the chain reached a prime,
    whether or not its other checks passed; its record keeps the ratio's
    log against ln(d + 2), and count_bound's verdict.
    """
    rep = shrinking_chain(d, c_phi)
    if rep.p is None:
        return rep
    cb = count_bound(rep.n, rep.p, d + 2)
    ratio = cb.ratio_log
    with mp.workprec(PRECISION_BITS):
        lhs = ratio.log_abs if ratio.sign > 0 else mp.mpf("-inf")
        target = mp.log(mp.mpf(d) + 2)
    count = CheckRecord("count_ratio", float(lhs), float(target), cb.passes)
    return replace(rep, checks=rep.checks + (count,), final_ratio_log=ratio,
                   passes=rep.passes and count.passed)
