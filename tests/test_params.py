"""Parameter pipeline: thresholds, profile root, grid choices, planners."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from borsuk import params
from borsuk.params import (
    CheckFailed,
    ParamSet,
    choose_a,
    choose_n,
    compressed_radius_sq,
    drift,
    fixed_params,
    fixed_profile,
    plan_fixed,
    plan_shrinking,
    power_threshold,
    shrinking_chain,
    solve_a0,
    solve_k,
)


def test_power_threshold_values():
    assert power_threshold(1) == Fraction(3, 8)
    assert power_threshold(2) == Fraction(5, 16)
    assert power_threshold(3) == Fraction(7, 24)
    assert power_threshold(10) == Fraction(21, 80)
    with pytest.raises(ValueError, match="tensor power must be positive"):
        power_threshold(0)


def test_solve_k_against_linear_scan():
    def scan(rsq):
        k = 1
        while not power_threshold(k) < rsq:
            k += 1
        return k

    grid = [Fraction(num, 256) for num in range(65, 128)]
    for rsq in grid:
        assert solve_k(rsq) == scan(rsq)
    # boundary values are excluded, the next power takes over
    assert solve_k(Fraction(3, 8)) == 2
    assert solve_k(Fraction(3, 8) + Fraction(1, 10 ** 9)) == 1
    with pytest.raises(ValueError, match="radius not above one half"):
        solve_k(Fraction(1, 4))


def test_compressed_radius_profile_shape():
    for k in (1, 2, 3):
        assert compressed_radius_sq(Fraction(0), k) == Fraction(1, 2)
        assert compressed_radius_sq(Fraction(2), k) == power_threshold(k)
        grid = [Fraction(i, 16) for i in range(33)]
        vals = [compressed_radius_sq(x, k) for x in grid]
        assert all(u > v for u, v in zip(vals, vals[1:]))
    with pytest.raises(ValueError, match="tail parameter outside"):
        compressed_radius_sq(Fraction(5, 2), 1)


def test_compressed_radius_numeric_routes_agree():
    xs = np.linspace(0.0, 2.0, 17)
    arr = compressed_radius_sq(xs, 2)
    for x, got in zip(xs, arr):
        want = compressed_radius_sq(Fraction(x).limit_denominator(10 ** 9), 2)
        assert got == pytest.approx(float(want), rel=1e-9)


def test_solve_a0_one_sided_bracketing():
    for k in (1, 2, 3):
        lo = power_threshold(k)
        for rsq in (lo + Fraction(1, 100), Fraction(7, 16), Fraction(1, 2) - Fraction(1, 100)):
            a0 = solve_a0(rsq, k)
            assert 0 < a0 < 2
            # one-sided: the compressed radius never overshoots the target
            assert compressed_radius_sq(a0, k) <= rsq
            assert rsq - compressed_radius_sq(a0, k) < Fraction(1, 10 ** 10)
    with pytest.raises(ValueError, match="no root"):
        solve_a0(Fraction(1, 2), 1)
    with pytest.raises(ValueError, match="no root"):
        solve_a0(Fraction(3, 8), 1)


def test_solve_a0_large_k_fallback():
    rsq = Fraction(13, 50)
    a0 = solve_a0(rsq, 100)
    assert 0 < a0 < 2
    assert float(compressed_radius_sq(float(a0), 100)) <= float(rsq)


def test_solve_a0_large_k_nudge_exhausted(monkeypatch):
    # a profile stuck at 1/2 never clears the margin below rsq, so the
    # nudge after the mpmath bisection runs out and must raise rather
    # than return an a0 it could not certify
    monkeypatch.setattr(params, "compressed_radius_sq", lambda a0, k: 0.5)
    with pytest.raises(ValueError, match="nudge failed"):
        solve_a0(Fraction(13, 50), 100)


def _choose_n_brute(d, k):
    e = 2 * k
    n = 4
    while (n + 4) ** e < d:
        n += 4
    return n


def test_choose_n_brute_oracle():
    for k in (1, 2):
        for d in (257, 1000, 4097, 65536, 10 ** 7):
            if d <= 4 ** (2 * k):
                continue
            assert choose_n(d, k) == _choose_n_brute(d, k)
    assert choose_n(31337, 1) == 176
    assert choose_n(256 ** 2 + 1, 1) == 256
    with pytest.raises(ValueError, match="no admissible n"):
        choose_n(16, 1)


def test_choose_a_prime_scan():
    a, p = choose_a(Fraction(4, 3), 12)
    assert (a, p) == (8, 5)
    assert a >= Fraction(4, 3) * 12 / 2 and a % 4 == 0
    # a0*n/2 = 8 exactly: p = (8+8)/4 = 4 composite, scan moves to a = 12
    a, p = choose_a(2, 8)
    assert (a, p) == (12, 5)
    with pytest.raises(ValueError, match="positive multiple of 4"):
        choose_a(1, 10)


def test_plan_fixed_frozen_example():
    ps = plan_fixed(0.9, 256)
    assert (ps.k, ps.n, ps.a, ps.p) == (1, 12, 8, 5)
    assert ps.n - 4 * ps.p == -ps.a
    assert ps.mode == "fixed"
    # above 1/sqrt(2) the profile root is pinned at the interior target
    assert compressed_radius_sq(ps.a0, 1) <= Fraction(7, 16)
    assert Fraction(7, 16) - compressed_radius_sq(ps.a0, 1) < Fraction(1, 10 ** 10)


def test_plan_fixed_interior_radius():
    ps = plan_fixed(0.64, 65)
    assert (ps.k, ps.n, ps.a, ps.p) == (1, 8, 12, 5)
    gap = ps.rsq - compressed_radius_sq(ps.a0, ps.k)
    assert 0 <= gap < Fraction(1, 10 ** 10)


def test_plan_fixed_higher_tensor_power():
    ps = plan_fixed(0.58, 5000)
    assert ps.k == 2
    assert ps.n ** 4 < 5000 <= (ps.n + 4) ** 4
    ps.validate()


def test_plan_fixed_errors():
    with pytest.raises(ValueError, match="radius not above one half"):
        plan_fixed(0.5, 256)
    with pytest.raises(ValueError, match="no admissible n"):
        plan_fixed(0.9, 16)


def test_plan_fixed_rejects_even_prime():
    # n = 4 leaves a = 4 and p = 2: prime, but the residue argument needs p odd
    with pytest.raises(ValueError, match="p = 2 is even"):
        plan_fixed(0.9, 64)
    # a >= n alone stays accepted (GeometryReport.degenerate flags it)
    ps = plan_fixed(0.64, 65)
    assert ps.a >= ps.n and ps.p == 5


def test_plan_fixed_is_profile_then_params():
    profile = fixed_profile(0.64)
    assert profile == (Fraction(0.64) ** 2, 1, plan_fixed(0.64, 65).a0)
    for d in (65, 257, 10 ** 6):
        assert fixed_params(0.64, *profile, d) == plan_fixed(0.64, d)
    with pytest.raises(ValueError, match="radius not above one half"):
        fixed_profile(0.5)


def test_paramset_validate_catches_tampering():
    ps = plan_fixed(0.9, 256)
    bad = dataclasses.replace(ps, p=ps.p + 1)
    with pytest.raises(ValueError, match="p is not prime"):
        bad.validate()
    bad = dataclasses.replace(ps, a=ps.a + 4)
    with pytest.raises(ValueError, match="n - 4p != -a"):
        bad.validate()
    bad = dataclasses.replace(ps, n=ps.n + 4, a=ps.a + 4, p=ps.p + 2)
    with pytest.raises(ValueError, match="dimension window"):
        bad.validate()
    bad = dataclasses.replace(ps, k=2)
    with pytest.raises(ValueError, match="tensor power not minimal"):
        bad.validate()
    bad = dataclasses.replace(ps, mode="other")
    with pytest.raises(ValueError, match="unknown mode"):
        bad.validate()


def test_p0_density():
    ps = plan_fixed(0.9, 256)
    assert ps.p0 == ps.a0 / 8 + Fraction(1, 4)
    assert Fraction(1, 4) < ps.p0 < Fraction(1, 2)


def test_drift_formula():
    d = 10 ** 12
    dr = drift(d)
    want = 6.0 * math.log(math.log(d)) / math.log(d)
    assert dr.phi == pytest.approx(want, rel=1e-12)
    assert drift(d, 7.5).phi == pytest.approx(want * 7.5 / 6.0, rel=1e-12)
    with pytest.raises(ValueError, match="dimension too small"):
        drift(2)


def test_plan_shrinking_frozen_example():
    ps = plan_shrinking(10 ** 12)
    assert (ps.n, ps.a, ps.p) == (996, 832, 457)
    assert ps.mode == "shrinking"
    assert ps.k == math.ceil(1 / ps.phi)
    assert ps.a < ps.n
    assert Fraction(ps.p) <= Fraction(ps.n, 2) - Fraction(ps.phi) * ps.n / 20
    ps.validate()


def test_plan_shrinking_small_d_fails_named():
    # d = 100 dies at the offset check, d = 1000 at the prime window
    with pytest.raises(CheckFailed, match="offset a=12 not below n=8"):
        plan_shrinking(100)
    with pytest.raises(CheckFailed, match="prime window"):
        plan_shrinking(1000)


def test_plan_shrinking_raises_first_failed_chain_check():
    messages = {100: "offset a=12 not below n=8", 1000: "prime window",
                10 ** 10: "prime window"}
    for d, message in messages.items():
        rep = shrinking_chain(d)
        assert rep.final_ratio_log is None and not rep.passes
        with pytest.raises(CheckFailed, match=message):
            plan_shrinking(d)
    # d = 100 fails two checks; the planner names the first
    assert [(c.name, c.passed) for c in shrinking_chain(100).checks] == [
        ("power_margin", True), ("compression", True),
        ("offset_below_n", False), ("prime_window", False)]
    rep = shrinking_chain(10 ** 12)
    assert rep.passes and all(c.passed for c in rep.checks)
    ps = plan_shrinking(10 ** 12)
    assert (ps.k, ps.a0, ps.n, ps.a, ps.p, ps.phi) == (
        rep.k, rep.a0, rep.n, rep.a, rep.p, rep.phi)
    # the chain compares against the planner's r^2
    assert rep.checks[0].rhs == float(ps.rsq)


def test_shrinking_chain_structural_failure_stops(monkeypatch):
    # no dimension window: the chain records it and leaves n, a, p unset
    monkeypatch.setattr(params, "choose_n", lambda d, k: choose_n(3, k))
    rep = shrinking_chain(10 ** 12)
    assert rep.checks[-1].name == "dimension_window" and not rep.checks[-1].passed
    assert rep.a0 is not None and rep.n is None and rep.p is None
    with pytest.raises(CheckFailed, match="no admissible n: d=1000000000000 requires d > 256"):
        plan_shrinking(10 ** 12)


def test_plan_shrinking_modes_are_consistent():
    ps = plan_shrinking(10 ** 13)
    assert 0.5 < ps.r < 1.5
    assert ps.rsq == Fraction(ps.r) ** 2
    assert ps.n ** (2 * ps.k) < ps.d
