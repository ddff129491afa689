"""Pigeonhole counting: exact vs log routes, thresholds, asymptotics."""

import dataclasses
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp
from test_exactnum import as_mpf, interval_log_tail_sum

from borsuk import bounds, exactnum
from borsuk.bounds import (
    asymptotic_base,
    binary_entropy,
    count_bound,
    find_d0,
    growth_exponent,
    lower_bound,
    shrinking_radius_check,
)
from borsuk.exactnum import (
    PRECISION_BITS,
    binomial,
    binomial_tail_sum,
    log_binomial,
    log_binomial_tail_sum,
)
from borsuk.params import (
    CheckFailed,
    choose_a,
    fixed_profile,
    least_offset,
    plan_fixed,
    plan_shrinking,
    shrinking_chain,
)


def test_count_bound_frozen_small_case():
    # n=8, p=5: 35 sign vectors against a 163-dimensional bound
    cb = count_bound(8, 5, 66)
    assert (cb.numerator, cb.denominator) == (35, 163)
    assert not cb.passes
    assert mp.exp(as_mpf(cb.ratio_log)) == pytest.approx(35 / 163, rel=1e-12)


def test_count_bound_p1_denominator():
    cb = count_bound(8, 1, 1)
    assert cb.denominator == 1
    assert cb.numerator == 35
    assert cb.passes  # 35 > 1


def test_count_bound_input_checks():
    with pytest.raises(ValueError, match="multiple of 4"):
        count_bound(10, 3, 5)
    with pytest.raises(ValueError, match="p must be positive"):
        count_bound(8, 0, 5)


def test_exact_and_log_routes_agree():
    for n, p in [(96, 29), (96, 5), (1000, 251), (9996, 2503)]:
        cb = count_bound(n, p, 10)
        exact_ratio = Fraction(cb.numerator, cb.denominator)
        with mp.workprec(120):
            want = mp.log(mp.mpf(exact_ratio.numerator)) - mp.log(
                mp.mpf(exact_ratio.denominator)
            )
            err = abs(float(as_mpf(cb.ratio_log) - want))
        assert err <= 1e-9 * max(1.0, abs(float(want)))


def test_ratio_monotone_nonincreasing_in_p():
    for n in (16, 32, 64):
        vals = []
        for p in range(2, n // 2 + 1):
            cb = count_bound(n, p, 1)
            vals.append(Fraction(cb.numerator, cb.denominator))
        assert all(u >= v for u, v in zip(vals, vals[1:]))


def test_half_central_binomial_identity():
    for n in range(4, 65, 4):
        assert binomial(n - 1, n // 2 - 1) * 2 == binomial(n, n // 2)


def test_central_ratio_quadratic_approximation():
    # ln[C(n,n/2)/C(n,n/2-x)] = 2x^2/n + O(x^3/n^2)
    for n in (400, 1600, 6400):
        for phi in (0.3, 1.0):
            x = int(phi * n / 20)
            lhs = math.log(binomial(n, n // 2)) - math.log(binomial(n, n // 2 - x))
            assert abs(lhs - 2 * x * x / n) <= 1.0 * x ** 3 / n ** 2


def test_lower_bound_on_planned_construction():
    ps = plan_fixed(0.64, 65)
    lb = lower_bound(ps)
    assert (lb.numerator, lb.denominator, lb.threshold) == (35, 163, 66)
    assert not lb.passes


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0) == 0.0 and binary_entropy(1) == 0.0
    assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.811278124459, abs=1e-9)
    with pytest.raises(ValueError, match="entropy argument"):
        binary_entropy(1.5)


def test_entropy_closed_form_at_quarter_density():
    # the limiting density 1/4 gives base 2**H(1/4) and growth 2/that
    c_prime = 2.0 ** binary_entropy(Fraction(1, 4))
    assert c_prime == pytest.approx(1.7548, abs=5e-5)
    assert 2.0 / c_prime == pytest.approx(1.1398, abs=5e-5)


def test_asymptotic_base_frozen():
    ps = plan_fixed(0.9, 10 ** 6)
    ab = asymptotic_base(ps)
    assert ab.c_prime == pytest.approx(1.9489, abs=5e-5)
    assert ab.c == pytest.approx(1.0262, abs=5e-5)
    assert ab.monotone
    roots = {m: root for m, root, _ in ab.certification}
    assert roots[400] == pytest.approx(1.9364, abs=5e-5)
    assert roots[1600] == pytest.approx(1.9449, abs=5e-5)
    # the 1600-point root certifies the closed form within 0.01
    assert abs(roots[1600] - ab.c_prime) < 0.01


def test_asymptotic_base_p0_guard():
    ps = plan_fixed(0.9, 10 ** 6)
    bad = dataclasses.replace(ps, a0=Fraction(0))
    with pytest.raises(ValueError, match="p0 out of range"):
        asymptotic_base(bad)


def test_growth_exponent_converges_from_below():
    ps_big = plan_fixed(0.71, 10 ** 6)
    ln_c = math.log(asymptotic_base(ps_big).c)
    errs = []
    for n in (1200, 2400, 9600):
        g = growth_exponent(plan_fixed(0.71, n * n + 1))
        rel = (g - ln_c) / ln_c
        assert abs(rel) < 0.10
        errs.append(abs(rel))
    assert errs[0] > errs[1] > errs[2]


def test_growth_exponent_negative_at_tiny_d():
    assert growth_exponent(plan_fixed(0.71, 257)) < 0


def test_find_d0_frozen_at_071():
    res = find_d0(0.71)
    assert res.d0 == 327185
    assert (res.params.n, res.params.p) == (572, 223)
    assert res.bound.passes
    assert res.previous_d == 327184
    assert not res.previous_passes
    # witness recomputed from scratch
    assert lower_bound(plan_fixed(0.71, res.d0)).passes
    assert not lower_bound(plan_fixed(0.71, res.d0 - 1)).passes


def test_find_d0_solves_a0_once(monkeypatch):
    from borsuk import params

    calls = []
    solve = params.solve_a0

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(params, "solve_a0", counted)
    assert find_d0(0.65).d0 == 1032257
    assert len(calls) == 1


def test_find_d0_smaller_radius_needs_more_dimensions():
    res06 = find_d0(0.6)
    assert res06.d0 == 1802703502561537
    assert res06.params.k == 2
    assert res06.d0 > find_d0(0.71).d0


# the seven radii of the d0-table benchmark: r -> (d0, n at d0, walk steps,
# full evaluations); the full evaluations were (4, 2, 2, 1, 2, 2, 2) while
# the tail's lower bound was a geometric run of its isqrt(n) + 1 top terms
_D0_TABLE = {
    0.59: (17514409198944257, 11504, 2875, 1),
    0.61: (313547198365697, 4208, 1051, 1),
    0.63: (30735937, 5544, 1385, 1),
    0.65: (1032257, 1016, 253, 1),
    0.67: (138385, 372, 92, 1),
    0.69: (33857, 184, 45, 1),
    0.71: (327185, 572, 142, 1),
}


def test_find_d0_every_table_radius(monkeypatch):
    from borsuk import params

    calls = {"choose_a": 0, "is_prime": 0, "gap_bound": 0, "tail_pass": 0,
             "verdict": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    choose = counted("choose_a", params.choose_a)
    monkeypatch.setattr(params, "choose_a", choose)
    monkeypatch.setattr(bounds, "choose_a", choose)
    monkeypatch.setattr(params, "is_prime", counted("is_prime", params.is_prime))
    monkeypatch.setattr(bounds, "_gap_bound", counted("gap_bound", bounds._gap_bound))
    monkeypatch.setattr(bounds, "_tail_pass", counted("tail_pass", bounds._tail_pass))
    monkeypatch.setattr(bounds, "_verdict", counted("verdict", bounds._verdict))
    results = {r: find_d0(r) for r in _D0_TABLE}
    for r, res in results.items():
        got = (res.d0, res.params.n, res.walk_steps, res.full_evaluations)
        assert got == _D0_TABLE[r], r
        assert res.bound.passes and not res.previous_passes
        assert res.previous_d == res.d0 - 1
    # the walk's counters are deterministic: a looser reject shows here as
    # more full evaluations (211 with the old 120-bit point-value reject,
    # 15 with the geometric tail bound); each radius now evaluates only
    # the step that passes
    assert sum(res.walk_steps for res in results.values()) == 5843
    assert sum(res.full_evaluations for res in results.values()) == 7
    # choose_a's prime scan runs only on the steps the least-prime reject
    # leaves and in fixed_params at d0 - 1; d0's ParamSet reuses the
    # walk's own p.  Scanning on every step made 5,865 choose_a and 33,319
    # is_prime calls, and the geometric tail bound 82 and 494
    assert (calls["choose_a"], calls["is_prime"]) == (43, 229)
    # the block reject skips most steps with no bound of their own: 199
    # at the tail's own growth rate (287 with the geometric tail bound),
    # 1,366 at the 2^Dq rate, one or two on every step (5,918) without
    # it; the full evaluations take none, they read the integer log
    assert calls["gap_bound"] == 199
    # one integer log per full evaluation and per d0 - 1 re-check: the
    # printed bound at d0 is the verdict the walk took there
    assert calls["verdict"] == 7 + 7
    # exact integers only for the printed bound at d0, at the six radii
    # with n <= 10^4, each one pass for S and C(n, n/2): the d0 - 1
    # re-check prints nothing
    assert calls["tail_pass"] == 6
    for r, res in results.items():
        # the printed bound and params are those planned independently at
        # d0, and the re-check's verdict is lower_bound's at d0 - 1
        assert res.params == plan_fixed(r, res.d0)
        assert res.bound == count_bound(res.params.n, res.params.p, res.d0 + 1)
        assert res.previous_passes == lower_bound(plan_fixed(r, res.d0 - 1)).passes


def test_find_d0_ln_factorial_calls(monkeypatch):
    # ln j! is reached only from _verdict, six calls each (three per
    # log_binomial), and the walk's rejects take none: the one full
    # evaluation and the d0 - 1 re-check make 12, as the printed bound
    # at d0 is that evaluation's verdict (30 with the geometric tail
    # bound's four full evaluations)
    calls = []
    ln_factorial = exactnum._ln_factorial

    def counted(*args, **kwargs):
        calls.append(args)
        return ln_factorial(*args, **kwargs)

    monkeypatch.setattr(exactnum, "_ln_factorial", counted)
    res = find_d0(0.59)
    assert (res.walk_steps, res.full_evaluations) == (2875, 1)
    assert len(calls) == 6 * (1 + 1)


def _exact_passes(n, p, threshold):
    return binomial(n - 1, n // 2 - 1) > binomial_tail_sum(n, p) * threshold


def _log_gap(n, p, threshold):
    # the gap _verdict reads, in units of 2^-PRECISION_BITS: within 2.5
    # of the exact ln(ratio/threshold), so beyond 3 it decides
    ratio_log = bounds._verdict(n, p, threshold).ratio_log
    return ratio_log * (1 << PRECISION_BITS) - bounds._ln(threshold, 1, PRECISION_BITS)


@pytest.mark.parametrize("r", [0.61, 0.63, 0.65, 0.67, 0.69, 0.71])
def test_walk_reject_sound_in_exact_integers(r):
    # every step either of find_d0's rejects throws away at n <= 2000, the
    # one at the least prime q = (least_offset + n)/4 and the one at
    # choose_a's p, really fails with the real p:
    # C(n-1, n/2-1) <= (d+1) * sum_{i<p} C(n, i) with d = n^(2k) + 1
    _, k, a0 = fixed_profile(r)
    at_q, at_p = set(), set()
    for n in range(8, 2001, 4):
        _, p = choose_a(a0, n)
        if bounds._gap_bound(n, (least_offset(a0, n) + n) // 4, k) <= 0:
            at_q.add(n)
        if bounds._gap_bound(n, p, k) <= 0:
            at_p.add(n)
        if n in at_q or n in at_p:
            assert not _exact_passes(n, p, n ** (2 * k) + 2), n
    assert {8, 12, 16} <= at_q  # the first steps never reach the prime scan
    # the oracle saw every reject the walk itself made at n <= 2000
    _, _, steps, evaluations = _D0_TABLE[r]
    assert len(at_q | at_p) >= min(steps, 499) - evaluations


@pytest.mark.parametrize("r", [0.61, 0.63, 0.65, 0.67, 0.69, 0.71])
def test_block_reject_sound_in_exact_integers(monkeypatch, r):
    # every step the block reject skips at n <= 2000 really fails with
    # choose_a's p: C(n-1, n/2-1) <= (d+1) * sum_{i<p} C(n, i); the walk
    # bounds the gap at every n it does not skip, so the spy sees all the
    # others
    _, k, a0 = fixed_profile(r)
    seen = set()
    gap_bound = bounds._gap_bound

    def spy(n, cutoff, k_):
        seen.add(n)
        return gap_bound(n, cutoff, k_)

    monkeypatch.setattr(bounds, "_gap_bound", spy)
    res = find_d0(r)
    skipped = set(range(8, res.params.n, 4)) - seen
    assert res.params.n in seen
    assert len(seen) + len(skipped) == res.walk_steps
    assert min(skipped) <= 2000
    for n in sorted(skipped):
        if n > 2000:
            break
        _, p = choose_a(a0, n)
        assert not _exact_passes(n, p, n ** (2 * k) + 2), n


def _tail_ratio_at(m, c):
    num, den = bounds._tail_ratio_lower(c - 1, m - c + 2, 1)
    return Fraction(num, den)


def test_block_rate_growth_facts():
    # the exact facts behind _block_rate: C(n+1, n/2)/C(n-1, n/2-1) =
    # 4(n+1)/(n+2) < 4; q(n) in [p0 n, p0 n + 1), growing by 1 or 2 per
    # walk step, at every table a0; and at every (m, c) with 2 <= c <= m/2
    # and m <= 200, against exact tail sums, S(m+1, c) = (2 - 1/g) S(m, c)
    # with g = S(m, c)/C(m, c-1) at least _tail_ratio_lower's bound, and
    # S(m+1, c+1) >= ((m+1)/c) S(m, c)
    for n in range(4, 401, 2):
        c, c2 = binomial(n - 1, n // 2 - 1), binomial(n + 1, n // 2)
        assert c2 * (n + 2) == 4 * (n + 1) * c and c2 < 4 * c
    for r in _D0_TABLE:
        a0 = fixed_profile(r)[2]
        p0 = a0 / 8 + Fraction(1, 4)
        qs = {n: (least_offset(a0, n) + n) // 4 for n in range(8, 2005, 4)}
        for n in range(8, 2001, 4):
            assert p0 * n <= qs[n] < p0 * n + 1, (r, n)
            assert qs[n + 4] - qs[n] in (1, 2), (r, n)
    tail = functools.lru_cache(maxsize=None)(binomial_tail_sum)
    for m in range(4, 201):
        for c in range(2, m // 2 + 1):
            s, g = tail(m, c), Fraction(tail(m, c), binomial(m, c - 1))
            low = _tail_ratio_at(m, c)
            assert 1 <= low <= g, (m, c)
            assert tail(m + 1, c) == (2 - 1 / g) * s
            assert c * tail(m + 1, c + 1) >= (m + 1) * s
        # the bound keeps close to g where the walk takes it
        if m >= 100:
            c = m * 2 // 5
            assert _tail_ratio_at(m, c) > Fraction(19, 20) * Fraction(tail(m, c), binomial(m, c - 1))
    # and at a real corner (n, x n) it bounds g at every later integer
    # point (m, c) with m >= n and c/m >= x, x = p0 n/(n + 4), the one the
    # walk takes
    for r in _D0_TABLE:
        an, ad = fixed_profile(r)[2].as_integer_ratio()
        for n in range(8, 101, 4):
            w = 8 * ad * (n + 4)
            u = (an + 2 * ad) * n * n - w
            low = Fraction(*bounds._tail_ratio_lower(u, (n + 1) * w - u, w))
            x = Fraction(an + 2 * ad, 8 * ad) * n / (n + 4)
            for m in range(n, n + 13):
                for c in range(math.ceil(x * m), m // 2 + 1):
                    assert low <= Fraction(tail(m, c), binomial(m, c - 1)), (r, n, m, c)


def _walk_skips(monkeypatch, r):
    # (n, M, beta, gamma, j) for each block reject find_d0(r) makes: M the
    # reject at q(n), the rate in force (the last taken at or below n) and
    # the j steps it skipped, up to the next step the walk bounds; M, beta
    # and gamma in units of 2^-_RATE_BITS
    _, k, a0 = fixed_profile(r)
    gaps, rates = {}, {}
    gap_bound, block_rate = bounds._gap_bound, bounds._block_rate

    def gap_spy(n, c, k_):
        upper = gap_bound(n, c, k_)
        if c == (least_offset(a0, n) + n) // 4:
            gaps[n] = upper
        return upper

    def rate_spy(a0_, n):
        rates[n] = block_rate(a0_, n)
        return rates[n]

    monkeypatch.setattr(bounds, "_gap_bound", gap_spy)
    monkeypatch.setattr(bounds, "_block_rate", rate_spy)
    res = find_d0(r)
    seen = sorted(gaps)
    skips = []
    for n, after in zip(seen, seen[1:]):
        if gaps[n] <= 0 and after > n + 4:
            rate = rates[max(m for m in rates if m <= n)]
            skips.append((n, gaps[n]) + rate + ((after - n) // 4 - 1,))
    return res, skips


@pytest.mark.parametrize("r", [0.61, 0.69])
def test_block_rate_bound_in_exact_integers(monkeypatch, r):
    # G(n + 4i) <= M + i beta + gamma at every step n + 4i the walk skips,
    # k = 2 and k = 1, with G(n) = ln C(n-1, n/2-1) - ln S(n, q(n)) -
    # ln(n^(2k) + 2) from exact integers (S by the Pascal recurrence along
    # the walk's grid, checked against binomial_tail_sum) and its log at
    # 200 bits against the walk's exact bound
    _, k, a0 = fixed_profile(r)
    res, skips = _walk_skips(monkeypatch, r)
    assert skips and sum(s[-1] for s in skips) > res.walk_steps // 2

    def q(n):
        return (least_offset(a0, n) + n) // 4

    gap = {}
    n, s = 8, binomial_tail_sum(8, q(8))
    while n <= res.params.n:
        with mp.workprec(200):
            gap[n] = (mp.log(binomial(n - 1, n // 2 - 1)) - mp.log(s)
                      - mp.log(n ** (2 * k) + 2))
        m, c = n, q(n)
        for _ in range(4):  # raise c first, then keep it
            if c < q(n + 4):
                s, c = 2 * s + binomial(m, c), c + 1
            else:
                s = 2 * s - binomial(m, c - 1)
            m += 1
        n += 4
        if n % 400 == 0:
            assert s == binomial_tail_sum(n, q(n)), n
    unit = mp.mpf(2) ** -bounds._RATE_BITS
    for n, upper, beta, gamma, j in skips:
        with mp.workprec(200):
            for i in range(1, j + 1):
                assert gap[n + 4 * i] < (upper + i * beta + gamma) * unit, (n, i)


def test_find_d0_past_default_cap(monkeypatch):
    # r = 0.55 needs k = 3 and d0 ~ 3.4e32, above the 10^24 cap (the CLI
    # exits 1 there); with the cap raised the block reject reaches it
    # with the same steps and full evaluations as the linear walk (13 full
    # evaluations and 283 gap bounds with the geometric tail bound)
    monkeypatch.setattr(bounds, "_D0_SCAN_CAP", 10 ** 40)
    calls = []
    gap_bound = bounds._gap_bound
    monkeypatch.setattr(bounds, "_gap_bound", lambda *a: calls.append(1) or gap_bound(*a))
    res = find_d0(0.55)
    assert res.d0 == 336646860847529776342789175640065
    assert (res.params.k, res.params.n, res.params.p) == (3, 263752, 128657)
    assert (res.walk_steps, res.full_evaluations) == (65937, 1)
    assert res.bound.passes and not res.previous_passes
    assert len(calls) == 58  # 6,142 at the 2^Dq rate, one or two per step without


@pytest.mark.parametrize("r, want", [
    (0.613, (63396310352401, 7962180, 1990544)),
    (0.615, (132971081105, 364652, 91162)),
])
def test_find_d0_near_tensor_threshold(r, want):
    # just past a radius where the planned tensor power changes, the walk
    # runs close to the threshold for a long way: with the geometric tail
    # bound, 0.17-0.21 nats loose, 6,806 and 269 steps reached a full
    # evaluation here (~21 s and 0.3 s); now only the passing one does
    res = find_d0(r)
    assert (res.d0, res.params.n, res.walk_steps) == want
    assert res.full_evaluations == 1
    assert res.bound.passes and not res.previous_passes


_WALK_POINTS = [
    (184, 59, 1, Fraction(5, 1000)), (572, 223, 1, Fraction(5, 1000)),
    (1016, 389, 1, Fraction(5, 1000)), (11504, 5273, 2, Fraction(5, 1000)),
    (5912410408, 2955806027, 1, Fraction(3, 10000)),
]


@pytest.mark.parametrize("n, c, k, slack", _WALK_POINTS,
                         ids=["%d-%d" % point[:2] for point in _WALK_POINTS])
def test_gap_bound_tight_at_walk_points(n, c, k, slack):
    # the walk's (n, p) at d0(0.69), d0(0.71), d0(0.65) and d0(0.59), and
    # a step on the walk to d0(0.6124), at the walk's own threshold
    # n^(2k) + 2: the proven upper bound on G is within 0.005 nats of the
    # exact G (0.17 to 0.21 above it with the geometric tail bound); at
    # the last it is within 3e-4 (7.15e-4 while the bound was a float sum
    # with a relative margin, which did not reject the step)
    threshold = n ** (2 * k) + 2
    exact = (log_binomial(n - 1, n // 2 - 1) - log_binomial_tail_sum(n, c)
             - Fraction(bounds._ln(threshold, 1, PRECISION_BITS), 1 << PRECISION_BITS))
    upper = Fraction(bounds._gap_bound(n, c, k), 1 << bounds._RATE_BITS)
    assert exact <= upper <= exact + slack
    if n == 5912410408:
        assert upper < 0


def test_count_bound_log_verdict_is_certified(monkeypatch):
    # d0(0.59) is decided at n = 11504 by the integer log, 0.144 nats
    # clear of the threshold, far outside its 2.5 units of 2^-120
    res = find_d0(0.59)
    n, p, threshold = 11504, res.params.p, res.d0 + 1
    assert res.bound.numerator is None
    assert 0.143 < _log_gap(n, p, threshold) / (1 << PRECISION_BITS) < 0.145

    def exact(*args):
        raise LookupError("exact integers reached")

    # count_bound takes it from the log, with no exact integers
    monkeypatch.setattr(bounds, "_tail_pass", exact)
    assert count_bound(n, p, threshold).passes
    # a log within 3 units of ln(threshold) leaves the verdict to exact
    # integers; one further off decides it either way: _ln(threshold)
    # moved to the log minus units sets the gap to units
    ratio_log = count_bound(n, p, threshold).ratio_log * (1 << PRECISION_BITS)
    for units in (-3, 0, 3):
        monkeypatch.setattr(bounds, "_ln", lambda a, b, bits: ratio_log - units)
        with pytest.raises(LookupError, match="exact integers"):
            bounds._verdict(n, p, threshold)
    for units in (Fraction(3) + Fraction(1, 1 << PRECISION_BITS), 4, 10 ** 30):
        for sign in (1, -1):
            monkeypatch.setattr(bounds, "_ln", lambda a, b, bits: ratio_log - sign * units)
            assert bounds._verdict(n, p, threshold).passes == (sign > 0)


def test_no_verdict_calls_libm(monkeypatch):
    # the count verdicts and find_d0's rejects read integer logs, so no
    # verdict rests on the C library's log accuracy
    def libm(*args):
        raise AssertionError("libm reached")

    for name in ("log", "log1p", "expm1", "fsum"):
        monkeypatch.setattr(math, name, libm)
    assert count_bound(572, 223, 327186).passes
    assert count_bound(31622776, 12229487, 10 ** 15 + 1).passes
    assert shrinking_radius_check(10 ** 18).passes
    for r, (d0, n, steps, evaluations) in _D0_TABLE.items():
        res = find_d0(r)
        assert (res.d0, res.params.n, res.walk_steps, res.full_evaluations) == (
            d0, n, steps, evaluations)
    assert find_d0(0.613).d0 == 63396310352401


def test_count_bound_refuses_threshold_below_1():
    for threshold in (0, -4):
        with pytest.raises(ValueError, match="threshold must be at least 1"):
            count_bound(8, 5, threshold)
        with pytest.raises(ValueError, match="threshold must be at least 1"):
            count_bound(20000, 7000, threshold)


def test_count_bound_falls_back_to_integers(monkeypatch):
    # when the log sits within 3 units of ln(threshold), exact integers
    # decide, and the printed fields stay the same: _ln(threshold) moved
    # onto the ratio's log forces that route
    cases = [(11504, 5273, 17514409198944258), (11504, 5273, 10 ** 30), (10004, 3001, 1),
             (572, 223, 327186)]
    want = {c: count_bound(*c) for c in cases}
    near = {c[2]: math.floor(w.ratio_log * (1 << PRECISION_BITS)) for c, w in want.items()}
    calls = []
    tail_pass = bounds._tail_pass
    monkeypatch.setattr(bounds, "_ln", lambda a, b, bits: near[a])
    monkeypatch.setattr(bounds, "_tail_pass",
                        lambda n, p, k: calls.append(n) or tail_pass(n, p, k))
    for c in cases:
        got = count_bound(*c)
        assert got == want[c]
        assert got.passes == _exact_passes(*c)
    # one fallback pass per case, after the printed integers at n <= 10^4
    assert calls == [11504, 11504, 10004, 572, 572]


@st.composite
def _verdict_args(draw):
    # thresholds on both sides of the exact ratio, its floor and ceiling
    # among them, and far from it
    n = 4 * draw(st.integers(2501, 5000))
    p = draw(st.integers(1, n // 2))
    num, den = binomial(n - 1, n // 2 - 1), binomial_tail_sum(n, p)
    floor = num // den
    near = [floor - 1, floor, floor + 1, -(-num // den), 2 * floor + 1,
            draw(st.integers(1, 2 * floor + 2))]
    threshold = draw(st.sampled_from(near) | st.integers(1, 10 ** 40))
    return n, p, max(threshold, 1)


# the floor of C(10003, 5001) / sum_{i<3} C(10004, i), about 10^3000: the
# ratio lies within 10^-3000 nats of it and of floor + 1, one on each side,
# far inside the log's 2^-120, so at those thresholds exact integers decide
_FLOOR_10004_3 = binomial(10003, 5001) // binomial_tail_sum(10004, 3)


@settings(max_examples=40, deadline=None)
@given(_verdict_args())
@example((11504, 5273, 17514409198944258))
@example((20000, 9999, 1))
@example((20000, 1, 10 ** 40))
@example((10004, 3, _FLOOR_10004_3))
@example((10004, 3, _FLOOR_10004_3 + 1))
def test_count_verdict_matches_exact_integers(args):
    # wherever the integer log decides, it agrees with exact integers, and
    # count_bound's verdict is the exact one either way
    n, p, threshold = args
    want = _exact_passes(n, p, threshold)
    gap = _log_gap(n, p, threshold)
    if gap > 3:
        assert want
    if gap < -3:
        assert not want
    if n == 10004 and p == 3 and threshold - _FLOOR_10004_3 in (0, 1):
        assert abs(gap) <= 3
    assert count_bound(n, p, threshold).passes == want


@st.composite
def _log_route_args(draw):
    n = 4 * draw(st.integers(2501, 5000))
    return n, draw(st.integers(1, n // 2))


@settings(max_examples=25, deadline=None)
@given(_log_route_args())
def test_ratio_log_within_stated_error(args):
    # ratio_log, which every count verdict reads, is within
    # 2^-100 (n+1)(ln(n+1)+1) of the exact log
    n, p = args
    ratio = count_bound(n, p, 1).ratio_log
    with mp.workprec(300):
        exact = mp.log(mp.mpf(binomial(n - 1, n // 2 - 1))) - mp.log(
            mp.mpf(binomial_tail_sum(n, p)))
        bound = mp.mpf(2) ** -100 * (n + 1) * (mp.log(n + 1) + 1)
        assert abs(as_mpf(ratio) - exact) <= bound


def _interval_gap(n, p, threshold):
    """ln C(n-1, n/2-1) - ln sum_{i<p} C(n, i) - ln threshold in mpmath.iv.

    Independent of exactnum, at 120 bits: iv.loggamma for the binomial,
    and for p - 1 < n/2 the tail sum by interval_log_tail_sum, its rest
    below 2^-100 of the sum.
    """
    prec, iv.prec = iv.prec, 120
    try:
        m, k = n - 1, n // 2 - 1
        return (iv.loggamma(m + 1) - iv.loggamma(k + 1) - iv.loggamma(m - k + 1)
                - interval_log_tail_sum(n, p) - iv.log(iv.mpf(threshold)))
    finally:
        iv.prec = prec


def _log_gap_in(n, p, threshold, gap):
    # _log_gap within its 2.5 units of 2^-PRECISION_BITS of the interval
    with mp.workprec(400):
        got = as_mpf(_log_gap(n, p, threshold) / (1 << PRECISION_BITS))
        slack = mp.mpf(2.5) / (1 << PRECISION_BITS)
        return mp.mpf(gap.a) - slack <= got <= mp.mpf(gap.b) + slack


@pytest.mark.parametrize("r, d", [(0.71, 10 ** 15), (0.9, 10 ** 34)])
def test_count_bound_agrees_with_interval_replay(r, d):
    # n = 31,622,776 and n = 99,999,999,999,999,996, where exact integers
    # cannot run
    ps = plan_fixed(r, d)
    gap = _interval_gap(ps.n, ps.p, d + 1)
    assert gap.a > 0 or gap.b < 0
    assert lower_bound(ps).passes == (gap.a > 0)
    # the integer log's gap, within 2.5 units of the exact one, meets it
    assert _log_gap_in(ps.n, ps.p, d + 1, gap)


def test_interval_replay_agrees_with_exact_at_d0_steps():
    # the walk's last 26 steps to d0(0.59), n = 11404..11504: the
    # interval replay, the integer log and count_bound all agree with
    # exact integers, the log meets the replay, and the walk's upper
    # bound holds it
    _, k, a0 = fixed_profile(0.59)
    for n in range(11404, 11505, 4):
        _, p = choose_a(a0, n)
        threshold = n ** (2 * k) + 2
        want = _exact_passes(n, p, threshold)
        gap = _interval_gap(n, p, threshold)
        assert (gap.a > 0 if want else gap.b < 0), n
        assert _log_gap_in(n, p, threshold, gap), n
        units = _log_gap(n, p, threshold)
        assert (units > 3 if want else units < -3), n
        with mp.workprec(200):
            assert gap.b <= mp.mpf(bounds._gap_bound(n, p, k)) / 2 ** bounds._RATE_BITS, n
        assert count_bound(n, p, threshold).passes == want
    assert want  # the last step is d0 itself


def test_shrinking_check_small_d_names_failures():
    rep = shrinking_radius_check(100)
    status = {c.name: c.passed for c in rep.checks}
    assert status["power_margin"] and status["compression"]
    assert not status["offset_below_n"]
    assert not status["prime_window"]
    assert not status["count_ratio"]
    assert not rep.passes


def test_shrinking_check_large_d_fails_only_count_ratio():
    rep = shrinking_radius_check(10 ** 12)
    status = {c.name: c.passed for c in rep.checks}
    assert status["power_margin"]
    assert status["compression"]
    assert status["offset_below_n"]
    assert status["prime_window"]
    assert not status["count_ratio"]
    assert not rep.passes
    assert (rep.n, rep.a, rep.p) == (996, 832, 457)
    assert float(rep.final_ratio_log) == pytest.approx(1.0890, abs=1e-3)


def test_shrinking_check_margin_grows_with_c_phi():
    margins = []
    for c_phi in (6.0, 7.0, 8.0):
        rep = shrinking_radius_check(10 ** 12, c_phi)
        assert rep.n == 996  # same dimension window, easier radius
        cr = next(c for c in rep.checks if c.name == "count_ratio")
        margins.append(cr.lhs - cr.rhs)
    assert margins[0] < margins[1] < margins[2]


def test_shrinking_check_agrees_with_planner():
    ps = plan_shrinking(10 ** 12)
    rep = shrinking_radius_check(10 ** 12)
    assert (rep.n, rep.a, rep.p, rep.k) == (ps.n, ps.a, ps.p, ps.k)
    with pytest.raises(CheckFailed):
        plan_shrinking(100)
    # the report is the planner's chain plus the count ratio
    for d in (100, 10 ** 12):
        ch = shrinking_chain(d)
        rep = shrinking_radius_check(d)
        assert rep.checks[:-1] == ch.checks
        assert rep.checks[-1].name == "count_ratio"


def test_shrinking_check_count_is_count_bound():
    # the check calls no count_bound, yet its verdict and log are
    # count_bound(n, p, d + 2)'s: one _verdict for both, with no exact
    # integers, where count_bound also prints them at n <= 10^4
    for d in (10 ** 6, 10 ** 9, 10 ** 12, 10 ** 15, 10 ** 18):
        rep = shrinking_radius_check(d)
        cb = count_bound(rep.n, rep.p, d + 2)
        count = rep.checks[-1]
        assert count.name == "count_ratio" and count.passed == cb.passes
        assert rep.final_ratio_log == cb.ratio_log
        assert count.lhs == float(cb.ratio_log)
        assert (cb.numerator is not None) == (rep.n <= 10 ** 4)
