"""Lower bounds on the partition number of the constructed point set.

Any piece of a partition that realizes no diameter pair avoids the inner
product -a, so its size is capped by the GF(p) dimension bound; pigeonhole
then gives

    parts needed >= |Sigma| / sum_{i<p} C(n, i).

The construction succeeds at dimension d once that ratio beats d+1 (d+2
in the shrinking-radius regime).  Every count verdict is _verdict's, from
the ratio's log in plain integers (within 2^-120) or exact integers where
that is too close to call.  find_d0 walks to the first dimension where the
ratio wins, rejecting steps by a proven upper bound on the ratio's log
(_gap_bound) and skipping the steps after a reject by the tail's proven
growth rate (_block_rate), both in fixed-point integers of 2^-64; the
module also extracts the growth base and closes params.shrinking_chain.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .exactnum import (
    PRECISION_BITS,
    FixedLog,
    _half_ln_2pi,
    _ln,
    _tail_pass,
    log_binomial,
    log_binomial_tail_sum,
)
from .params import (
    CheckFailed,
    CheckRecord,
    ParamSet,
    ShrinkingRadiusReport,
    _fixed_power,
    choose_a,
    fixed_params,
    fixed_profile,
    least_offset,
    shrinking_chain,
)

_EXACT_N_CAP = 10 ** 4
_D0_SCAN_CAP = 10 ** 24


@dataclass(frozen=True)
class CountBound:
    """The pigeonhole ratio at one parameter set.

    numerator/denominator are exact integers, printed when n is small
    enough to expand them (n <= 10^4); ratio_log, the ratio's log as a
    FixedLog within 2^-PRECISION_BITS of it, is always there.  passes is
    the exact comparison of the ratio against threshold = d+1 (_verdict).
    """

    numerator: Optional[int]
    denominator: Optional[int]
    ratio_log: FixedLog
    threshold: int
    passes: bool


def count_bound(n: int, p: int, threshold: int) -> CountBound:
    """The raw pigeonhole ratio |Sigma(n)| / sum_{i<p} C(n,i) vs threshold.

    _verdict decides it at every n; the exact integers at desk scale are
    printed fields only.
    """
    if n < 4 or n % 4 != 0:
        raise ValueError("n must be a positive multiple of 4")
    if p < 1:
        raise ValueError("p must be positive")
    if threshold < 1:
        raise ValueError("threshold must be at least 1, got %d" % threshold)
    return _with_integers(_verdict(n, p, threshold), n, p)


def _verdict(n: int, p: int, threshold: int) -> CountBound:
    """C(n-1, n/2-1) > threshold * sum_{i<p} C(n, i), and the ratio's log,
    as a CountBound without the printed integers.

    ratio_log, log_binomial's ln C(n-1, n/2-1) minus log_binomial_tail_sum's
    ln S, is within 2^-PRECISION_BITS of the ratio's log, as their errors
    add up to less.  In units of 2^-PRECISION_BITS it is within 1 of it and
    _ln(threshold) within 1.5 of ln threshold, so their gap is within 2.5
    of the real one: beyond 3 units its sign is the verdict.  Exact
    integers decide inside: _tail_pass's S and C(n, n/2), whose half is
    C(n-1, n/2-1).
    """
    ratio_log = FixedLog(log_binomial(n - 1, n // 2 - 1) - log_binomial_tail_sum(n, p))
    gap = ratio_log * (1 << PRECISION_BITS) - _ln(threshold, 1, PRECISION_BITS)
    if abs(gap) > 3:
        passes = gap > 0
    else:
        den, central = _tail_pass(n, p, n // 2)
        passes = central // 2 > den * threshold
    return CountBound(None, None, ratio_log, threshold, passes)


def _with_integers(cb: CountBound, n: int, p: int) -> CountBound:
    """cb with the exact numerator C(n-1, n/2-1) = C(n, n/2)/2 and
    denominator S it prints at n <= 10^4, both from one _tail_pass."""
    if n > _EXACT_N_CAP:
        return cb
    den, central = _tail_pass(n, p, n // 2)
    return replace(cb, numerator=central // 2, denominator=den)


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
    ratio = _verdict(ps.n, ps.p, ps.d + 1).ratio_log
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        scale = decimal.Decimal(ps.d) ** (decimal.Decimal(1) / (2 * ps.k))
        return float(decimal.Decimal(ratio.numerator) / ratio.denominator / scale)


@dataclass(frozen=True)
class D0Result:
    """First dimension where the count ratio beats d+1 for this radius.

    previous_d re-checks d0 - 1 directly (when the planner accepts it),
    so minimality is witnessed rather than inferred from the grid walk.
    bound is the walk's verdict at d0 with count_bound's printed integers,
    equal to lower_bound(params); previous_passes is _verdict at d0 - 1.
    walk_steps counts the grid points the walk passed, the ones a block
    reject skipped included (each is proven to fail, see find_d0), and
    full_evaluations those that the rejects could not settle.
    """

    r: float
    d0: int
    params: ParamSet
    bound: CountBound
    previous_d: Optional[int]
    previous_passes: bool
    walk_steps: int
    full_evaluations: int


_RATE_BITS = 64  # fixed-point bits of find_d0's rejects and _block_rate's two logs
_LN2 = _ln(2, 1, _RATE_BITS)
_HALF_LN_2PI = _half_ln_2pi(_RATE_BITS)


def _gap_bound(n: int, c: int, k: int) -> int:
    """M, an int in units of 2^-_RATE_BITS with M 2^-_RATE_BITS >= G =
    ln C(n-1, n/2-1) - ln S - ln(n^(2k) + 2), S = sum_{i<c} C(n, i), for
    even n >= 2 and c >= 1: find_d0's rejects.

    Robbins (Amer. Math. Monthly 62, 1955): for every integer t >= 1,
    ln t! = (t + 1/2) ln t - t + ln(2 pi)/2 + theta_t with
    1/(12t + 1) < theta_t < 1/(12t).  Three facts:
      - C(n-1, h-1) = C(n, h)/2 with h = n/2, so ln C(n-1, h-1) =
        n ln 2 - (ln n)/2 - ln(2 pi)/2 + theta_n - 2 theta_h, with no
        cancellation, and theta_n - 2 theta_h < 1/(12n) - 2/(6n + 1).
      - With top = min(c-1, n), j = min(top, n - top) and m = n - j,
        S = C(n, j) g, and _tail_ratio_lower at the integer corner
        (n, top + 1) proves g >= gn/gd.  So for j >= 1
            ln S >= (n + 1/2) ln n - (j + 1/2) ln j - (m + 1/2) ln m
                    - ln(2 pi)/2 + 1/(12n + 1) - 1/(12j) - 1/(12m) + ln(gn/gd),
        and for j = 0 the binomial part, ln 1, is 0.
      - ln(n^(2k) + 2) > 2k ln n.
    For j >= 1 the two ln(2 pi)/2 cancel, so G is below
        n ln 2 - (n + 1 + 2k) ln n + (j + 1/2) ln j + (m + 1/2) ln m
        - ln(gn/gd) + 1/(12n) - 2/(6n + 1) - 1/(12n + 1) + 1/(12j) + 1/(12m),
    and for j = 0 below n ln 2 - (1/2 + 2k) ln n - ln(2 pi)/2 - ln(gn/gd)
    + 1/(12n) - 2/(6n + 1).  In units, each 1/x is rounded outward, and
    ln 2, ln n, ln j, ln m and ln(gn/gd) are _ln's, within 1.5 units each,
    and ln(2 pi)/2 is within 2.  Weighted by their coefficients those
    errors add up to 4.5n + 3k + 4.5 units for j >= 1 and
    1.5n + 3k + 4.25 for j = 0, less than the 5n + 3k + 9 that M adds.
    Closed form: four _ln calls and no loop.
    """
    one = 1 << _RATE_BITS
    top = min(c - 1, n)
    j = min(top, n - top)
    m = n - j
    gn, gd = _tail_ratio_lower(top, n - top + 1, 1)
    ln_n = _ln(n, 1, _RATE_BITS)
    # twice the bound, in units: ceilings where 1/x adds, floors where it subtracts
    twice = (2 * n * _LN2 - (1 + 4 * k) * ln_n - 2 * _ln(gn, gd, _RATE_BITS)
             + 2 * (-(-one // (12 * n)) - 2 * one // (6 * n + 1) + 5 * n + 3 * k + 9))
    if j:
        twice += ((2 * j + 1) * _ln(j, 1, _RATE_BITS) + (2 * m + 1) * _ln(m, 1, _RATE_BITS)
                  - (2 * n + 1) * ln_n
                  + 2 * (-(-one // (12 * j)) - (-one // (12 * m)) - one // (12 * n + 1)))
    else:
        twice -= 2 * _HALF_LN_2PI
    return -(-twice // 2)


def _tail_ratio_lower(u: int, v: int, w: int) -> Tuple[int, int]:
    """A lower bound (num, den), at least 1, on g = S(m, c)/C(m, c-1),
    S(m, c) = sum_{i<c} C(m, i), given u/w = c - 1 and v/w = m - c + 2.

    In this docstring u and v are those two values.  Read from i = c - 1
    down, g = sum_{l<c} prod_{t<l} (u - t)/(v + t).  With rho = u/v < 1
    and kappa = 1/u + 1/v, each factor with t < u is
        rho (1 - t/u)/(1 + t/v) >= rho (1 - t/u)(1 - t/v) >= rho (1 - kappa t),
    and for kappa (l - 1) <= 1 the product of the 1 - kappa t over t < l
    is at least 1 - kappa l(l - 1)/2.  Summed over l <= J = floor(1/kappa),
    which is below u,
        g >= (1 - rho^(J+1))/(1 - rho) - kappa rho^2/(1 - rho)^3,
    as the sum of rho^l l(l - 1)/2 over all l is rho^2/(1 - rho)^3; and
    rho^(J+1) = (1 + y)^-(J+1), y = (v - u)/u, is at most 1/P, P the first
    four terms of the binomial expansion of (1 + y)^(J+1).  In the integer
    arguments (u and v times w), with N = J + 1 and W = v - u, Q = u^3 P
    is u^3 + N W u^2 + C(N, 2) W^2 u + C(N, 3) W^3 and the bound is
    (v (Q - u^3) W^2 - w u (u + v) Q)/(Q W^3).

    At an integer corner, w = 1 with u = c - 1 and v = m - c + 2, it
    bounds g at (m, c) itself; _gap_bound takes it there.  find_d0's
    block reject takes it at a real corner (m, c): there it bounds g at every
    integer point (m', c') with m' >= m and c'/m' >= c/m too, as each
    factor, (x m - 1 - t)/((1 - x) m + 2 + t) at x = c/m, grows with m and
    with x, and c' - 1 >= u > J.  Without 0 < u < v it gives the l = 0
    term alone, g >= 1.
    """
    if not 0 < u < v:
        return 1, 1
    gap, big_n, cube = v - u, u * v // (w * (u + v)) + 1, u ** 3
    big_q = (cube + big_n * gap * u * u + big_n * (big_n - 1) // 2 * gap * gap * u
             + big_n * (big_n - 1) * (big_n - 2) // 6 * gap ** 3)
    num = v * (big_q - cube) * gap * gap - w * u * (u + v) * big_q
    den = big_q * gap ** 3
    return (num, den) if num > den else (1, 1)


def _block_rate(a0: Fraction, n: int) -> Optional[Tuple[int, int]]:
    """(beta, gamma), integers in units of 2^-_RATE_BITS with
    G(n' + 4i) <= G(n') + i beta + gamma for every n' >= n and i >= 1 (G
    as in find_d0), or None where the facts below do not give it.

    Over one walk step n' -> n' + 4 the tail S(n', q(n')) becomes
    S(n' + 4, q(n' + 4)) in four unit steps of m, of which
    q(n' + 4) - q(n') raise c by one and the others keep it: for a0 in
    (0, 2), ceil(a0 m/2) grows by at most ceil(2 a0) <= 4 as m grows by 4,
    so least_offset grows by 0 or 4 and q by 1 or 2.  Along them c lies
    in [q(n'), q(n' + 4)], and q(n') in [p0 n', p0 n' + 1), p0 =
    a0/8 + 1/4, as least_offset is within 4 above a0 n'/2.
      - A unit step keeping c multiplies S by S(m+1, c)/S(m, c) =
        2 - 1/g, g = S(m, c)/C(m, c-1).  It starts at m <= n' + 3, so
        c/m >= p0 n'/(n' + 3) > p0 n/(n + 4), and m >= n: g is at least
        g0, _tail_ratio_lower at the corner (n, p0 n^2/(n + 4)), and the
        factor at least f0 = 2 - 1/g0.
      - A unit step raising c multiplies it by S(m+1, c+1)/S(m, c) >=
        (m+1)/c, as C(m+1, i) = (m+1)/i C(m, i-1) for 1 <= i <= c.  There
        c <= q(n' + 4) - 1 < p0 (n' + 4) and m >= n', so the factor is
        above f1 = (n + 1)/(p0 (n + 4)).
    From n' over i walk steps, with f1 >= f0 and Dq = q(n' + 4i) - q(n')
    above 4i p0 - 1 = i(1 + a0/2) - 1,
        ln S(n' + 4i, q(n' + 4i)) - ln S(n', q(n'))
            >= 4i ln f0 + Dq ln(f1/f0) >= 4i ln f0 + (i(1 + a0/2) - 1) ln(f1/f0),
    while ln C(n-1, n/2-1) grows by less than 4i ln 2 (C(n+1, n/2) =
    4(n+1)/(n+2) C(n-1, n/2-1)) and the threshold n^(2k) + 2 grows, so
    G grows by at most i beta + gamma with
        beta = 4 ln(2/f0) - (1 + a0/2) ln(f1/f0),  gamma = ln(f1/f0).
    f0 and f1 are exact fractions and their two logs _ln's at _RATE_BITS,
    within 1.5 units each: beta is 4(ln(2/f0) + 2) - (1 + a0/2)
    (ln(f1/f0) - 2) rounded up, gamma is ln(f1/f0) + 2.  None when
    f1 < f0 or beta <= 0.
    """
    an, ad = a0.as_integer_ratio()
    w = 8 * ad * (n + 4)
    u = (an + 2 * ad) * n * n - w  # (p0 n^2/(n + 4) - 1) w
    gn, gd = _tail_ratio_lower(u, (n + 1) * w - u, w)
    f0n, f0d = 2 * gn - gd, gn
    f1n, f1d = 8 * ad * (n + 1), (an + 2 * ad) * (n + 4)
    if f1n * f0d < f0n * f1d:
        return None
    ln_ratio = _ln(f1n * f0d, f1d * f0n, _RATE_BITS)
    beta = 8 * ad * (_ln(2 * f0d, f0n, _RATE_BITS) + 2) - (2 * ad + an) * (ln_ratio - 2)
    if beta <= 0:
        return None
    return -(-beta // (2 * ad)), ln_ratio + 2


def find_d0(r: float) -> D0Result:
    """Least d with lower_bound(plan_fixed(r, d)) > d+1, by grid walk.

    Candidates are d = n**(2k) + 1 for n running over multiples of 4:
    between consecutive candidates the planned n, and with it the ratio,
    is constant while the threshold d+1 only grows, so within each window
    the passing dimensions form a prefix.  The first passing grid point
    is therefore the least passing d overall.  The profile (rsq, k, a0)
    depends on r alone, so it is solved once, as plan_fixed solves it.

    Each step first takes M = _gap_bound(n, q(n), k), an upper bound, in
    units of 2^-_RATE_BITS, on
    G(n) = ln C(n-1, n/2-1) - ln S(n, q(n)) - ln(n^(2k) + 2),
    S(n, c) = sum_{i<c} C(n, i), at
    q(n) = (least_offset(a0, n) + n)/4, the least prime choose_a could
    return.  Its p is at least q and S(n, c) grows with c, so M <= 0
    proves the step fails at p.  A block reject then skips the next j
    steps too, by the tail's own growth rate: _block_rate proves
    G(n + 4i) <= M + i beta + gamma for i >= 1 with beta > 0, integers
    in the same units, so once M + j beta + gamma <= 0 every step n + 4i
    with i <= j fails.  The walk skips j = floor((-M - gamma)/beta)
    steps, none when that is negative or _block_rate gives None, and goes
    on at n + 4(j + 1).  A rate taken at n holds for every later step and
    tightens as n grows, so the walk retakes it when n has doubled: two
    _ln calls per octave of n.

    A step that M does not reject runs choose_a's prime scan and the same
    upper bound at the real p, and only the steps that survive both are
    full evaluations: _verdict at the step's (n, p) and d + 1.  The first
    that passes is d0, and its verdict, with the integers count_bound
    prints, is the printed bound.  Its ParamSet takes the step's own
    (n, p); fixed_params plans d0 - 1's, whose re-check is _verdict at the
    planned (n, p) against d0.  Every reject is a proof that the ratio
    stays at or below d+1, so no passing step is skipped.
    Rejected steps never call choose_a, so its refusal of p >= 2^64 is
    not checked there; _D0_SCAN_CAP keeps every p far below that.
    The first candidate is 8**(2k) + 1 = 2**(6k) + 1, past the cap exactly
    when 6k >= _D0_SCAN_CAP.bit_length() (k >= 14); such a radius is
    refused before a0 is solved.
    """
    if 6 * _fixed_power(r)[1] >= _D0_SCAN_CAP.bit_length():
        raise CheckFailed("no d0 found below cap %d" % _D0_SCAN_CAP)
    rsq, k, a0 = fixed_profile(r)
    n, evaluations = 8, 0
    rate_n, rate = 0, None
    while True:
        d = n ** (2 * k) + 1
        if d > _D0_SCAN_CAP:
            raise CheckFailed("no d0 found below cap %d" % _D0_SCAN_CAP)
        upper = _gap_bound(n, (least_offset(a0, n) + n) // 4, k)
        if upper <= 0:
            if n >= 2 * rate_n:
                rate_n, rate = n, _block_rate(a0, n)
            if rate is not None:
                n += 4 * max(0, (-upper - rate[1]) // rate[0])
        else:
            p = choose_a(a0, n)[1]
            if _gap_bound(n, p, k) > 0:
                evaluations += 1
                bound = _verdict(n, p, d + 1)
                if bound.passes:
                    break
        n += 4
    params = ParamSet(r=float(r), rsq=rsq, k=k, a0=a0, n=n, a=4 * p - n, p=p, d=d)
    params.validate()
    prev_passes = False
    try:
        prev_d = d - 1
        prev = fixed_params(r, rsq, k, a0, d - 1)
        prev_passes = _verdict(prev.n, prev.p, d).passes
    except (CheckFailed, ValueError):
        prev_d = None
    return D0Result(
        r=float(r),
        d0=d,
        params=params,
        bound=_with_integers(bound, n, p),
        previous_d=prev_d,
        previous_passes=prev_passes,
        walk_steps=(n - 8) // 4 + 1,
        full_evaluations=evaluations,
    )


def shrinking_radius_check(d: int, c_phi: float = 6.0) -> ShrinkingRadiusReport:
    """params.shrinking_chain at d, completed by the count ratio against d + 2.

    The count ratio is evaluated whenever the chain reached a prime,
    whether or not its other checks passed; its record keeps the ratio's
    log against ln(d + 2), and _verdict's, which is count_bound(n, p, d + 2)
    without the integers it would print.
    """
    rep = shrinking_chain(d, c_phi)
    if rep.p is None:
        return rep
    cb = _verdict(rep.n, rep.p, d + 2)
    target = _ln(d + 2, 1, PRECISION_BITS) / (1 << PRECISION_BITS)
    count = CheckRecord("count_ratio", float(cb.ratio_log), target, cb.passes)
    return replace(rep, checks=rep.checks + (count,), final_ratio_log=cb.ratio_log,
                   passes=rep.passes and count.passed)
