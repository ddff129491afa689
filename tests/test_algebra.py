"""Residue-product polynomials, multilinear reduction, rank and MIS oracles."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borsuk import algebra
from borsuk.algebra import (
    certify_bound,
    coefficient_matrix,
    dimension_bound,
    evaluation_matrix,
    excluded_residue,
    greedy_avoiding_family,
    independence_verify,
    max_avoiding_exact,
    monomial_basis,
    property_check_exhaustive,
    rank_mod_p,
    sigma_gram,
)
from borsuk.construction import ENUMERATION_CAP, sigma_matrix
from borsuk.exactnum import binomial, is_prime
from mis_oracle import greedy_from_conflicts, max_avoiding_search
import rank_oracle
from rank_oracle import SLICE_SPARE, free_sign_matrix, slice_rank


# ---------------------------------------------------------------------------
# symbolic oracle: the residue product expanded in dense exponent vectors,
# then reduced monomial by monomial; deliberately naive, and independent
# of the weight-profile recurrence behind coefficient_matrix


def _signs(x):
    return tuple(int(v) for v in x)


@dataclasses.dataclass(frozen=True)
class FormalPolynomial:
    """Dense-exponent polynomial mod p: exponent tuple -> coefficient."""

    n: int
    p: int
    coefficients: dict

    def degree(self):
        return max((sum(e) for e in self.coefficients), default=0)

    def evaluate(self, y):
        ey = _signs(y)
        assert len(ey) == self.n
        total = 0
        for expo, c in self.coefficients.items():
            v = 1
            for e, yi in zip(expo, ey):
                if e:
                    v *= yi ** e
            total += c * v
        return total % self.p


def residue_product_polynomial(x, p, a):
    """The formal product prod_{i != -a mod p} (i - (x, y)) over GF(p)."""
    if not is_prime(p):
        raise ValueError("p is not prime")
    if a % 4 != 0 or a <= 0:
        raise ValueError("offset must be a positive multiple of 4")
    ex = _signs(x)
    n = len(ex)
    skip = excluded_residue(p, a)
    poly = {(0,) * n: 1}
    for i in range(p):
        if i == skip:
            continue
        nxt = {}
        for expo, c in poly.items():
            if i:
                nxt[expo] = (nxt.get(expo, 0) + i * c) % p
            for j in range(n):
                cc = (-c * ex[j]) % p
                if cc == 0:
                    continue
                e2 = expo[:j] + (expo[j] + 1,) + expo[j + 1:]
                nxt[e2] = (nxt.get(e2, 0) + cc) % p
        poly = {e: c for e, c in nxt.items() if c}
    return FormalPolynomial(n=n, p=p, coefficients=poly)


def reduce_multilinear(poly, p):
    """Drop even exponents, set odd ones to 1, merge coefficients mod p.

    Valid on +-1 inputs, where y**2 = 1.  The result has 0/1 exponents.
    """
    assert p == poly.p
    out = {}
    for expo, c in poly.coefficients.items():
        odd = tuple(e & 1 for e in expo)
        out[odd] = (out.get(odd, 0) + c) % p
    return FormalPolynomial(
        n=poly.n, p=p, coefficients={e: c for e, c in out.items() if c}
    )


def residue_value_table(p, a):
    """q[s] = prod_{i != -a mod p} (i - s) mod p for s in 0..p-1, by the
    plain double loop that evaluation_matrix's closed form replaces."""
    skip = excluded_residue(p, a)
    out = np.empty(p, dtype=np.int64)
    for s in range(p):
        v = 1
        for i in range(p):
            if i != skip:
                v = v * (i - s) % p
        out[s] = v
    return out


def symbolic_row(x, p, a, basis):
    """The symbolic route's coefficients of x in coefficient_matrix's columns."""
    red = reduce_multilinear(residue_product_polynomial(x, p, a), p)
    index = {mask: j for j, mask in enumerate(basis)}
    row = np.zeros(len(basis), dtype=np.int64)
    for expo, c in red.coefficients.items():
        row[index[sum(1 << j for j, e in enumerate(expo) if e)]] = c
    return row


def test_dimension_bound_values():
    assert dimension_bound(16, 5) == 2517
    assert dimension_bound(12, 5) == 794
    assert dimension_bound(8, 5) == 163
    for n, p in [(8, 3), (12, 5), (16, 5)]:
        assert dimension_bound(n, p) == sum(math.comb(n, i) for i in range(p))


def residue_excluded_dots(n, p):
    """Dot values in (-n, n) congruent to -a mod p besides -a itself.

    With n - 4p = -a these are n - jp for j in {1,2,3,5,6,7}; none is a
    multiple of 4 when p is odd, so no pair of sign vectors attains them.
    """
    return tuple(n - j * p for j in (1, 2, 3, 5, 6, 7))


def test_excluded_residue_and_dots():
    assert excluded_residue(5, 8) == (-8) % 5 == 2
    assert excluded_residue(3, 4) == 2
    # residues congruent to -a besides -a itself are never multiples of 4
    for n, p in [(8, 3), (12, 5), (16, 5)]:
        for t in residue_excluded_dots(n, p):
            assert t % 4 != 0


def test_residue_value_table_brute():
    # the loop oracle against the closed form evaluation_matrix builds
    # its values from: (p-1)! = -1 mod p (Wilson) at -a mod p, 0 elsewhere,
    # for every prime below 120 and every excluded residue
    for p in filter(is_prime, range(120)):
        for a in range(p):
            table = residue_value_table(p, a)
            skip = excluded_residue(p, a)
            assert table[skip] == p - 1
            assert all(table[s] == 0 for s in range(p) if s != skip)


def test_residue_product_polynomial_evaluations():
    p, a = 3, 4
    vs = sigma_matrix(8).tolist()
    x = vs[0]
    poly = residue_product_polynomial(x, p, a)
    assert poly.degree() == p - 1
    skip = excluded_residue(p, a)
    for y in vs[:12]:
        dot = sum(u * v for u, v in zip(x, y))
        want = 1
        for i in range(p):
            if i != skip:
                want = want * (i - dot) % p
        assert poly.evaluate(y) == want


def test_residue_product_polynomial_input_checks():
    with pytest.raises(ValueError, match="p is not prime"):
        residue_product_polynomial((1, 1, -1, -1), 4, 4)
    with pytest.raises(ValueError, match="positive multiple of 4"):
        residue_product_polynomial((1, 1, -1, -1), 3, 3)


def test_reduce_multilinear_preserves_evaluations():
    # random dense-exponent polynomials, checked on every +-1 assignment
    rng = np.random.default_rng(7)
    n, p = 5, 5
    for _ in range(10):
        coeffs = {}
        for _ in range(8):
            expo = tuple(int(e) for e in rng.integers(0, 4, size=n))
            coeffs[expo] = int(rng.integers(1, p))
        poly = FormalPolynomial(n=n, p=p, coefficients=coeffs)
        red = reduce_multilinear(poly, p)
        assert red.degree() <= n
        for signs in itertools.product((1, -1), repeat=n):
            assert poly.evaluate(signs) == red.evaluate(signs)


def _evaluate_row(C_row, y, basis, p):
    # one coefficient row evaluated at the +-1 vector y
    signs = algebra._monomial_sign_matrix(np.array([y], dtype=np.int8), basis)
    return int(signs[0].astype(np.int64) @ C_row) % p


def test_property_check_pointwise():
    n, p, a = 12, 5, 8
    X = sigma_matrix(n)
    C = coefficient_matrix(X, p, a)
    basis = monomial_basis(n, p)
    G = sigma_gram(n)
    i, j = np.argwhere(G == -8)[0]
    # (x, y) = -8: congruent to -a, polynomial nonzero
    assert _evaluate_row(C[i], X[j], basis, p) != 0
    # self-pair: (x, x) = 12 = -8 mod 5, the diagonal congruence
    assert _evaluate_row(C[0], X[0], basis, p) != 0
    # (x, y) = 4 is not congruent to -8 mod 5: polynomial vanishes
    i, j = np.argwhere(G == 4)[0]
    assert _evaluate_row(C[i], X[j], basis, p) == 0


# ---------------------------------------------------------------------------
# all-pairs oracle: every reduced polynomial evaluated on every sign vector,
# independent of the Krawtchouk count behind property_check_exhaustive

_PROPERTY_CHUNK = 512


def property_check_float32(n, p, a):
    """Pairs in Sigma(n)^2 violating the equivalence, by all-pairs products.

    Evaluates every row of coefficient_matrix on every sign vector as
    signs @ coef.T in float32, _PROPERTY_CHUNK sign vectors at a time;
    each chunk's inner products come from its own Gram product.  With the
    coefficients centred in [-p//2, p//2] every partial sum is an integer
    of magnitude at most len(basis) * (p//2), which must stay within
    2**24 - p, so float32 holds it exactly and algebra._mod tests it
    against zero mod p exactly.
    """
    if dimension_bound(n, p) * (p // 2) > algebra._EXACT32 - p:
        raise ValueError("bulk evaluation would overflow exact float32: "
                         "n=%d, p=%d" % (n, p))
    X = algebra.sigma_matrix(n)
    coef_t = coefficient_matrix(X, p, a).astype(np.float32).T
    coef_t[coef_t > p // 2] -= p
    signs = algebra._monomial_sign_matrix(X, algebra.monomial_basis(n, p))
    Xf = X.astype(np.float32)
    bad = 0
    for lo in range(0, X.shape[0], _PROPERTY_CHUNK):
        hi = lo + _PROPERTY_CHUNK
        lhs = algebra._mod(Xf[lo:hi] @ Xf.T + a, p) == 0
        rhs = algebra._mod(signs[lo:hi].astype(np.float32) @ coef_t, p) != 0
        bad += int(np.count_nonzero(lhs != rhs))
    return bad


@pytest.mark.parametrize("n,p,a", [(8, 3, 4), (12, 5, 8)])
def test_property_equivalence_exhaustive_desk(n, p, a):
    assert property_check_exhaustive(n, p, a) == 0
    assert property_check_float32(n, p, a) == 0


@pytest.mark.parametrize("n,p,a", [(572, 223, 320), (996, 431, 728)])
def test_property_equivalence_at_planner_sizes(n, p, a):
    # (572, 223, 320) is the plan at d0(0.71); (996, 431, 728) the
    # shrinking-radius plan at d = 10^6.  Far past any enumeration.
    assert n - 4 * p == -a
    assert property_check_exhaustive(n, p, a) == 0


def test_property_check_input_checks():
    with pytest.raises(ValueError, match="positive multiple of 4"):
        property_check_exhaustive(10, 3, 2)
    with pytest.raises(ValueError, match="not prime"):
        property_check_exhaustive(12, 4, 4)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_pair_counts_per_dot_value(n):
    # each x in Sigma(n) meets C(n/2-1, j) C(n/2, j) partners y at
    # (x, y) = n - 4j, j = 0..n/2-1, and no pair at any other value
    G = sigma_gram(n)
    size = G.shape[0]
    values, counts = np.unique(G, return_counts=True)
    half = n // 2
    want = {n - 4 * j: size * binomial(half - 1, j) * binomial(half, j)
            for j in range(half)}
    assert dict(zip(values.tolist(), counts.tolist())) == want
    assert sum(want.values()) == size ** 2


@pytest.mark.parametrize("n,p,a", [(8, 3, 4), (12, 5, 8), (12, 7, 16)])
def test_property_routes_agree_under_every_weight_perturbation(monkeypatch, n, p, a):
    # weights of degree p and above never reach either route
    exact = algebra._reduced_profile_weights(n, p, a)
    for s in range(min(p, n + 1)):
        for delta in range(1, p):
            w = list(exact)
            w[s] = (w[s] + delta) % p
            monkeypatch.setattr(algebra, "_reduced_profile_weights",
                                lambda *args, w=w: list(w))
            assert property_check_exhaustive(n, p, a) == property_check_float32(n, p, a)


def test_property_check_detects_a_wrong_weight(monkeypatch):
    # the check must be able to fail: one perturbed weight of the
    # symmetric profile corrupts the polynomials it evaluates
    weights = algebra._reduced_profile_weights

    def perturbed(n, p, a):
        w = weights(n, p, a)
        w[1] = (w[1] + 1) % p
        return w

    monkeypatch.setattr(algebra, "_reduced_profile_weights", perturbed)
    assert property_check_exhaustive(12, 5, 8) > 0
    assert property_check_float32(12, 5, 8) > 0


def test_property_check_refuses_inexact_float32(monkeypatch):
    # (13 // 2) * sum_{i<13} C(24, i) passes 2**24: the oracle refuses
    # before Sigma(24), 1.35 million rows, or its monomial basis is built
    assert 6 * dimension_bound(24, 13) > 2 ** 24

    def no_build(*args):
        raise AssertionError("built before the exactness guard")

    monkeypatch.setattr(algebra, "sigma_matrix", no_build)
    monkeypatch.setattr(algebra, "monomial_basis", no_build)
    with pytest.raises(ValueError, match="exact float32"):
        property_check_float32(24, 13, 28)


def test_evaluation_matrix_structure():
    n, p, a = 12, 5, 8
    fam = greedy_avoiding_family(sigma_matrix(n), -a)
    M = evaluation_matrix(fam, p, a)
    assert (np.diag(M) != 0).all()
    off = M.copy()
    np.fill_diagonal(off, 0)
    assert not off.any()


# the eight certify triples of the desk: a = 4p - n, prime p < 50, 4 <= a <= 3n
_DESK = [(4, 2, 4), (4, 3, 8), (8, 3, 4), (8, 5, 12), (8, 7, 20), (12, 5, 8),
         (12, 7, 16), (12, 11, 32)]


@pytest.mark.parametrize("n, p, a", _DESK)
def test_evaluation_matrix_matches_int64_route(n, p, a):
    # the narrow float32 Gram and dot-value table against the int64 Gram
    # reduced mod p and looked up in the residue table, on all of Sigma(n)
    # and on the greedy family certify builds first
    X = sigma_matrix(n)
    fam = greedy_avoiding_family(X, -a)
    for rows in (X, fam):
        X64 = rows.astype(np.int64)
        want = residue_value_table(p, a)[(X64 @ X64.T) % p]
        got = evaluation_matrix(rows, p, a)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)
    assert independence_verify(fam, p, a) == (p != 2)


def test_evaluation_certificate_rejects_forbidden_pair():
    X = sigma_matrix(12)
    G = sigma_gram(12)
    i, j = np.argwhere(G == -8)[0]
    assert not independence_verify(X[[i, j]], 5, 8)
    assert independence_verify(X[[i]], 5, 8)


def test_independence_verify_input_checks():
    X = sigma_matrix(12)
    fam = greedy_avoiding_family(X, -8)
    assert independence_verify(fam, 5, 8)
    with pytest.raises(ValueError, match="n - 4p != -a"):
        independence_verify(fam, 5, 12)
    # no pair of Sigma(12) attains -12, so all of it avoids -12; it holds
    # pairs at -8 and fails the certificate for a = 8
    assert len(greedy_avoiding_family(X, -12)) == len(X)
    assert not independence_verify(X, 5, 8)


def test_greedy_family_deterministic_and_seeded():
    X = sigma_matrix(12)
    f1 = greedy_avoiding_family(X, -8)
    f2 = greedy_avoiding_family(X, -8)
    assert (f1 == f2).all()
    f3 = greedy_avoiding_family(X, -8, seed=3)
    f4 = greedy_avoiding_family(X, -8, seed=3)
    assert (f3 == f4).all()
    assert len(f1) <= 210 and len(f3) <= 210
    for fam in (f1, f3):
        G = fam.astype(np.int64) @ fam.T
        assert not (G == -8).any()
    # the same families as the full conflict matrix gives
    assert all(np.array_equal(got, want) for got, want in
               zip((f1, f3), greedy_from_conflicts(X, -8, [None, 3])))


def test_certify_bound_builds_sigma_once(monkeypatch):
    # the families, the exact search (n <= 12) and the rank share one
    # Sigma matrix; passing it changes no family
    calls = []

    def counted(n):
        calls.append(n)
        return sigma_matrix(n)

    monkeypatch.setattr(algebra, "sigma_matrix", counted)
    for n, p, a in [(16, 5, 4), (12, 5, 8)]:
        calls.clear()
        cert = certify_bound(n, p, a, seeds=3)
        assert calls == [n]
        assert cert.rank == binomial(n - 1, p - 1) and cert.verdict
        X = sigma_matrix(n)
        sizes = tuple(len(greedy_avoiding_family(X, -a, seed=s)) for s in (None, 0, 1))
        assert sizes == cert.family_sizes


@pytest.mark.parametrize("n", [8, 12, 16])
def test_greedy_family_matches_conflict_matrix_oracle(n):
    # every attainable forbidden dot n - 4j, 1 <= j <= n/2 - 1, two that
    # no pair attains (n - 2, and -n - 4, past which the scan is skipped)
    # and n, attained only by x with itself: the strike-as-you-go scan
    # gives exactly the conflict-matrix families
    X = sigma_matrix(n)
    seeds = [None, 0, 1, 2, 3, 4]
    for forbidden in [n - 4 * j for j in range(1, n // 2)] + [n - 2, -n - 4, n]:
        want = greedy_from_conflicts(X, forbidden, seeds)
        for seed, fam in zip(seeds, want):
            assert np.array_equal(greedy_avoiding_family(X, forbidden, seed=seed), fam)


def test_greedy_family_matches_oracle_on_sigma20_pools():
    X = sigma_matrix(20)
    for seed in (None, 0):
        rows = X[algebra._family_pool(92378, seed)]
        want, = greedy_from_conflicts(rows, -8, [seed])
        assert np.array_equal(greedy_avoiding_family(rows, -8, seed=seed), want)


def test_certify_bound_forms_no_pair_matrix():
    # tracemalloc sees numpy's buffers: the peak was 65.3 MB with the
    # 6435^2 bool conflict matrix and its float32 chunks, ~25 MB without
    certify_bound(12, 5, 8, seeds=2)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        cert = certify_bound(16, 5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict
    assert peak < 32 * 2 ** 20


def test_certify_bound_builds_no_rank_matrix():
    # the rank is a closed form: the peak was 24.8 MB with the slice
    # columns of all 6435 rows, 15.7 MB with those of the 1373 ranked
    # rows and their float32 working copy, 2.7 MB with neither (the
    # largest family's evaluation matrix)
    certify_bound(12, 5, 8, seeds=2)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        cert = certify_bound(16, 5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.rank == 1365
    assert cert.verdict
    assert peak < 4 * 2 ** 20


# certify_bound's (rank, mis_exact, family_sizes, verdict) at the
# desk-checks triples and (16, 5, 4): rank, mis_exact and verdict recorded
# while it still ranked by elimination, family_sizes re-recorded when the
# seeded scan orders came to be hashed (_scan_order)
_CERTIFIED = {
    (4, 2, 4): (1, 3, (3,) * 20, False),
    (4, 3, 8): (3, 3, (3,) * 20, True),
    (8, 3, 4): (21, 15, (15, 11, 10, 11, 12, 12, 13, 10, 13, 12,
                         13, 11, 13, 12, 12, 13, 13, 12, 12, 10), True),
    (8, 5, 12): (35, 35, (35,) * 20, True),
    (8, 7, 20): (35, 35, (35,) * 20, True),
    (12, 5, 8): (330, 210, (210, 129, 122, 144, 127, 125, 127, 127, 135, 130,
                            124, 133, 135, 136, 138, 137, 126, 134, 128, 124), True),
    (12, 7, 16): (462, 462, (462,) * 20, True),
    (12, 11, 32): (None, 462, (462,) * 20, True),
    (16, 5, 4): (1365, None, (495, 202, 173, 176, 94, 169, 154, 199, 174, 149,
                              190, 194, 259, 205, 244, 231, 321, 256, 199, 130), True),
}


def test_certify_bound_runs_no_elimination(monkeypatch):
    # the rank comes from _sigma_rank: with the elimination and the
    # coefficient rows made to raise, every certificate is as recorded
    def no_elimination(*args, **kwargs):
        raise AssertionError("certify_bound ran an elimination")

    monkeypatch.setattr(algebra, "rank_mod_p", no_elimination)
    monkeypatch.setattr(algebra, "coefficient_matrix", no_elimination)
    for (n, p, a), want in _CERTIFIED.items():
        cert = certify_bound(n, p, a)
        assert (cert.rank, cert.mis_exact, cert.family_sizes, cert.verdict) == want
        assert cert.rank_full_family == (cert.rank is not None)


def test_certify_bound_checks_identical_families_once(monkeypatch):
    # past n in magnitude no pair attains -a, so every scan of Sigma(n)
    # returns all of it: one family and one evaluation check stand for
    # the 20, and the verdict still rests on that check
    calls = {"greedy": 0, "verify": 0}
    greedy, verify = algebra.greedy_avoiding_family, algebra.independence_verify

    def counted_greedy(*args, **kwargs):
        calls["greedy"] += 1
        return greedy(*args, **kwargs)

    def counted_verify(*args, **kwargs):
        calls["verify"] += 1
        return verify(*args, **kwargs)

    monkeypatch.setattr(algebra, "greedy_avoiding_family", counted_greedy)
    monkeypatch.setattr(algebra, "independence_verify", counted_verify)
    for (n, p, a), scans in {(12, 7, 16): 1, (12, 11, 32): 1, (12, 5, 8): 20}.items():
        calls.update(greedy=0, verify=0)
        cert = certify_bound(n, p, a)
        assert calls == {"greedy": scans, "verify": scans}
        assert cert.family_sizes == _CERTIFIED[n, p, a][2] and cert.verdict
    monkeypatch.setattr(algebra, "independence_verify", lambda *args: False)
    cert = certify_bound(12, 7, 16)
    assert cert.family_sizes == (462,) * 20 and not cert.verdict


_BLOCK = algebra._SCAN_BLOCK


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("n", [12, 16])
def test_greedy_family_matches_oracle_at_block_edges(n, size):
    # stacks one row short of a candidate block, exactly one, one row
    # past it and reaching into a third, at every attainable forbidden
    # dot and at n
    X = sigma_matrix(n)
    rows = X[np.random.default_rng(size).choice(len(X), size, replace=False)]
    seeds = [None, 0, 1, 2, 3, 4]
    struck = False
    for forbidden in [n - 4 * j for j in range(1, n // 2)] + [n]:
        want = greedy_from_conflicts(rows, forbidden, seeds)
        for seed, fam in zip(seeds, want):
            assert np.array_equal(greedy_avoiding_family(rows, forbidden, seed=seed), fam)
            struck |= len(fam) < size
    assert struck


def test_greedy_family_matches_oracle_on_duplicated_rows():
    # 2B + 3 rows drawn with repeats from 40 rows of Sigma(12), so copies
    # fall in the same and in different blocks.  At forbidden = n a row
    # conflicts with itself and its copies: the family is the distinct rows
    n = 12
    X = sigma_matrix(n)
    rows = X[np.random.default_rng(7).integers(0, 40, 2 * _BLOCK + 3)]
    distinct = len(np.unique(rows, axis=0))
    assert distinct < len(rows)
    seeds = [None, 0, 1, 2, 3, 4]
    for forbidden in [n - 4 * j for j in range(1, n // 2)] + [n]:
        want = greedy_from_conflicts(rows, forbidden, seeds)
        for seed, fam in zip(seeds, want):
            got = greedy_avoiding_family(rows, forbidden, seed=seed)
            assert np.array_equal(got, fam)
            if forbidden == n:
                assert len(got) == distinct == len(np.unique(got, axis=0))


def test_greedy_scan_work_pinned(monkeypatch):
    # float32 inner products the 20 certify families at (16, 5, 4) form:
    # 3,522,143 with struck and passed rows compacted out; 27,117,090 when
    # each of the 4,214 accepted rows met all 6435 rows
    formed = []

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def dot(a, b):
            out = np.dot(a, b)
            if out.dtype == np.float32:
                formed.append(out.size)
            return out
    monkeypatch.setattr(algebra, "np", CountedNumpy())
    X = sigma_matrix(16)
    sizes = [len(greedy_avoiding_family(X, -4, seed=s)) for s in [None] + list(range(19))]
    assert sum(sizes) == 4214
    assert sum(formed) == 3522143


def test_greedy_family_pool_restriction():
    X = sigma_matrix(12)
    fam = greedy_avoiding_family(X[:100], -8)
    first100 = {tuple(v) for v in X[:100].tolist()}
    assert all(tuple(m) in first100 for m in fam.tolist())


@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 462, 6435])
def test_scan_order_is_reproducible_permutation(size):
    assert np.array_equal(algebra._scan_order(size, None), np.arange(size))
    for seed in range(20):
        order = algebra._scan_order(size, seed)
        assert np.array_equal(np.sort(order), np.arange(size))
        assert np.array_equal(order, algebra._scan_order(size, seed))


def test_scan_orders_differ_across_seeds():
    orders = {tuple(algebra._scan_order(6435, seed).tolist()) for seed in range(20)}
    assert len(orders) == 20


def test_hashed_counters_refuse_negative_seed():
    for call in (lambda: algebra._scan_order(10, -1),
                 lambda: algebra._family_pool(92378, -1),
                 lambda: greedy_avoiding_family(sigma_matrix(8), -4, seed=-1)):
        with pytest.raises(ValueError, match="seed"):
            call()


def test_hashed_counters_are_splitmix64():
    # SplitMix64 seeded with seed, in Python integers: mix is the
    # finalizer, and every output advances the state by the Weyl constant
    mask = 2 ** 64 - 1

    def mix(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        return z ^ z >> 31

    for seed in (0, 1, 19, algebra._FIRST_POOL_SEED, 2 ** 64 - 1):
        state, want = seed, []
        for _ in range(70):
            state = (state + 0x9E3779B97F4A7C15) & mask
            want.append(mix(state))
        assert algebra._hashed_counters(seed, 70).tolist() == want


@pytest.mark.parametrize("sigma_size", [92378, 1352078])
def test_family_pool_distinct_sorted_in_range(sigma_size):
    for seed in [None] + list(range(20)):
        pool = algebra._family_pool(sigma_size, seed)
        assert pool.shape == (algebra._FAMILY_POOL,)
        assert (np.diff(pool) > 0).all()
        assert 0 <= pool[0] and pool[-1] < sigma_size
        assert np.array_equal(pool, algebra._family_pool(sigma_size, seed))


def test_family_pool_takes_first_distinct_counters():
    # the pool is the first 4096 distinct values of the keys mod |Sigma|,
    # in counter order; at |Sigma(20)| some of the first 4096 repeat
    size = 92378
    values = (algebra._hashed_counters(algebra._FIRST_POOL_SEED, 8192)
              % np.uint64(size)).tolist()
    assert len(set(values[:algebra._FAMILY_POOL])) < algebra._FAMILY_POOL
    want = list(dict.fromkeys(values))[:algebra._FAMILY_POOL]
    assert algebra._family_pool(size, None).tolist() == sorted(want)


def test_family_pool_work_is_pool_sized():
    # one uint64 per row of Sigma(24) would take 10.8 MB
    size = 1352078
    algebra._family_pool(size, 0)
    tracemalloc.start()
    try:
        algebra._family_pool(size, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * 8 // 20


def test_src_names_no_numpy_random():
    # certify's orders come from a keyed hash; importing numpy.random cost
    # a fresh certify more than the scans.  Tests may still draw data
    src = Path(algebra.__file__).resolve().parent.parent
    files = [path for path in src.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    assert Path(algebra.__file__).resolve() in files
    for path in files:
        text = path.read_text(errors="replace")
        assert "np.random" not in text and "numpy.random" not in text, path


def _rank_oracle(rows, p):
    # plain integer row reduction mod p, no numpy
    A = [[c % p for c in row] for row in rows]
    rank = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], p - 2, p)
        A[rank] = [v * inv % p for v in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][c]:
                f = A[i][c]
                A[i] = [(v - f * w) % p for v, w in zip(A[i], A[rank])]
        rank += 1
        if rank == len(A):
            break
    return rank


def _rank_loop(matrix, p):
    # one pivot at a time, in place: the unblocked numpy elimination that
    # rank_mod_p replaced; int64 holds every intermediate for p < 3 * 10**9
    A = np.array(matrix, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        if inv != 1:
            A[r, c:] = (A[r, c:] * inv) % p
        tail = A[r + 1:, c:]
        hit = np.flatnonzero(tail[:, 0])
        if hit.size:
            f = tail[hit, 0][:, None]
            tail[hit] = (tail[hit] - f * A[r, c:]) % p
        r += 1
    return r


# largest prime with (p-1)^2 + p < 2^53, the edge of rank_mod_p's domain
_P_EDGE = 94906249


def test_rank_mod_p_against_oracle():
    rng = np.random.default_rng(11)
    for p in (3, 5, 7):
        for shape in [(6, 6), (10, 4), (4, 10), (12, 12)]:
            M = rng.integers(0, p, size=shape)
            assert rank_mod_p(M, p) == _rank_oracle(M.tolist(), p)
    # engineered rank deficiency
    M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank_mod_p(M, 7) == 2


def _low_rank(m, n, k, p, seed):
    # L @ R mod p: rank at most k, and exactly k for most draws
    rng = np.random.default_rng(seed)
    L = rng.integers(0, p, size=(m, k), dtype=np.int64)
    R = rng.integers(0, p, size=(k, n), dtype=np.int64)
    return (L @ R) % p


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(0, 24),
    n=st.integers(0, 24),
    k=st.integers(0, 24),
    p=st.sampled_from([2, 3, 5, 7, 31, 409, _P_EDGE]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(m=0, n=7, k=3, p=5, seed=0)  # empty, no rows
@example(m=7, n=0, k=3, p=5, seed=0)  # empty, no columns
@example(m=1, n=9, k=1, p=3, seed=1)  # single row
@example(m=24, n=5, k=4, p=7, seed=2)  # tall
@example(m=5, n=24, k=4, p=31, seed=3)  # wide
@example(m=12, n=12, k=0, p=2, seed=4)  # all zero
@example(m=20, n=20, k=20, p=_P_EDGE, seed=5)  # full rank at the edge
def test_rank_mod_p_property_low_rank(m, n, k, p, seed):
    M = _low_rank(m, n, k, p, seed)
    got = rank_mod_p(M, p)
    assert got == _rank_oracle(M.tolist(), p) == _rank_loop(M, p)
    assert got <= min(m, n, k)


def test_rank_mod_p_full_rank_and_negative_entries():
    for p in (2, 5, 31, _P_EDGE):
        unit = np.triu(np.arange(1, 31 * 31 + 1).reshape(31, 31)) % p
        np.fill_diagonal(unit, 1)
        assert rank_mod_p(unit, p) == 31
        assert rank_mod_p(-unit[:, :17], p) == 17
        assert rank_mod_p(unit[5:9].T, p) == 4


def test_rank_mod_p_trailing_reduction():
    # with p just below 2^24 each pivot adds up to (p-1)^2 ~ 2^48 to the
    # trailing entries, p^2/4 on average, so 160 pivots carry them past
    # 2^53 unless the trailing block is reduced mod p on the way
    p = 16777213
    assert 160 * (p - 1) ** 2 // 4 > 2 ** 53
    M = _low_rank(200, 180, 160, p, seed=9)
    assert rank_mod_p(M, p) == _rank_loop(M, p) == 160


def test_rank_mod_p_float32_trailing_reduction():
    # p = 719, the largest prime rank_mod_p runs in float32, where a
    # panel of 32 pivots adds up to 32 (p-1)^2 ~ 2^24 to the trailing
    # entries: from the second panel on the trailing block must be reduced
    # mod p before every update, and 390 pivots take 13 panels, enough to
    # go wrong without it
    p = 719
    assert (p - 1) ** 2 * algebra._PANEL + 2 * p < 2 ** 24
    assert 2 * (p - 1) ** 2 * algebra._PANEL > 2 ** 24
    M = _low_rank(420, 400, 390, p, seed=0)
    assert rank_mod_p(M, p) == _rank_loop(M, p) == 390


def _count_gauss_jordan(monkeypatch):
    # pivots found by each _gauss_jordan call, in call order
    found = []
    gauss_jordan = algebra._gauss_jordan

    def counted(A, p, width):
        rows, cols = gauss_jordan(A, p, width)
        found.append(len(rows))
        return rows, cols
    monkeypatch.setattr(algebra, "_gauss_jordan", counted)
    return found


def test_rank_mod_p_pivots_outside_sample(monkeypatch):
    # a panel's pivot search starts on every (rows // _PANEL_SAMPLE)-th
    # row; here those rows are zero or of rank 3, so the pivots must come
    # from the rows the first sample left out
    found = _count_gauss_jordan(monkeypatch)
    rows = 2 * algebra._PANEL_SAMPLE + 1
    assert rows // algebra._PANEL_SAMPLE == 2
    for p in (2, 7):
        M = _low_rank(rows, 70, 45, p, seed=p)
        M[::2] = 0
        found.clear()
        assert rank_mod_p(M, p) == _rank_loop(M, p)
        assert found[0] == 0 and len(found) > 3
        M[::2] = _low_rank(rows // 2 + 1, 70, 3, p, seed=p + 1)
        found.clear()
        assert rank_mod_p(M, p) == _rank_loop(M, p)
        assert found[0] <= 3 and len(found) > 3


def test_slice_rank_panel_work_pinned(monkeypatch):
    # the (16, 5, 4) rank certify runs: 1,373 rows, 43 panels of the
    # 1,373 columns (rank_mod_p ranks the 1470 x 1373 transpose).  Pivots
    # searched again after a retry count in the total, so a sample that
    # spans less of its panel shows here, not only in a timing
    found = _count_gauss_jordan(monkeypatch)
    panels = []
    panel_pivots = algebra._panel_pivots

    def counted(P, p):
        out = panel_pivots(P, p)
        panels.append(out[0].size)
        return out
    monkeypatch.setattr(algebra, "_panel_pivots", counted)
    bound = algebra._sigma_rank(16, 5, 4)
    assert slice_rank(sigma_matrix(16), 5, 4, bound) == (1365, 1373, 1470)
    assert sum(panels) == 1365 and len(panels) == 43
    assert (len(found), sum(found)) == (55, 1677)


def _gauss_jordan_int64(A, p, width):
    # the int64 elimination that _gauss_jordan replaced, every update
    # reduced at once with %; int64 holds (p-1)**2 + p for every p that
    # rank_mod_p accepts
    rows, cols = [], []
    free = np.ones(A.shape[0], dtype=bool)
    for j in range(width):
        cand = np.flatnonzero((A[:, j] != 0) & free)
        if cand.size == 0:
            continue
        i = int(cand[0])
        A[i] = A[i] * pow(int(A[i, j]), -1, p) % p
        hit = np.flatnonzero(A[:, j])
        hit = hit[hit != i]
        if hit.size:
            A[hit] = (A[hit] - A[hit, j:j + 1] * A[i]) % p
        free[i] = False
        rows.append(i)
        cols.append(j)
    return rows, cols


@settings(max_examples=150, deadline=None)
@given(
    s=st.integers(1, 40),
    k=st.integers(0, 40),
    r=st.integers(0, 40),
    p=st.sampled_from([2, 3, 5, 409, 419, 16777213, _P_EDGE]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(s=1, k=0, r=0, p=2, seed=0)  # no columns to reduce
@example(s=30, k=30, r=0, p=5, seed=1)  # zero panel: no pivot
@example(s=20, k=20, r=20, p=_P_EDGE, seed=2)  # A is reduced before every update
# 160 pivots at p just below 2^24: the tracked bound passes 2^53 - p
# after 32 of them, and the entries themselves after about 128
@example(s=170, k=180, r=160, p=16777213, seed=3)
def test_gauss_jordan_matches_int64_oracle(s, k, r, p, seed):
    _check_gauss_jordan(s, k, r, p, seed, np.float64)


@settings(max_examples=100, deadline=None)
@given(
    s=st.integers(1, 72),
    k=st.integers(0, 72),
    r=st.integers(0, 72),
    p=st.sampled_from([2, 3, 5, 409, 719]),
    seed=st.integers(0, 2 ** 32 - 1),
)
# a full panel sample at p = 719, the largest prime rank_mod_p runs in
# float32: 32 pivots stay within 2^24 - p with no reduction on the way
@example(s=40, k=32, r=32, p=719, seed=4)
# each pivot moves the other rows down by about p^2/4 ~ 2^17, so 160
# pivots carry them past -2^24 unless A is reduced on the way; the
# tracked bound passes 2^24 - p after 32 of them
@example(s=170, k=180, r=160, p=719, seed=5)
def test_gauss_jordan_float32_matches_int64_oracle(s, k, r, p, seed):
    _check_gauss_jordan(s, k, r, p, seed, np.float32)


def _check_gauss_jordan(s, k, r, p, seed, dtype):
    # a panel sample as _panel_pivots lays it out: rows of a rank-r
    # panel, then the identity that becomes the pivot block's inverse
    A = np.zeros((s, k + s), dtype=np.int64)
    A[:, :k] = _low_rank(s, k, r, p, seed)
    A[:, k:] = np.eye(s, dtype=np.int64)
    B = A.astype(dtype)
    want = _gauss_jordan_int64(A, p, k)
    assert algebra._gauss_jordan(B, p, k) == want
    assert B.dtype == dtype and np.array_equal(B, A)


def test_rank_mod_p_rejects_non_prime():
    for p in (4, 1, 0, -5):
        with pytest.raises(ValueError, match="not prime"):
            rank_mod_p(np.array([[2]]), p)


def test_rank_mod_p_rejects_inexact_prime():
    assert rank_mod_p(np.array([[2, 1], [1, 3]]), _P_EDGE) == 2
    with pytest.raises(ValueError, match="too large"):
        rank_mod_p(np.array([[2]]), 94906297)  # next prime past the edge


def test_rank_mod_p_int8_signs():
    # int8 matrices read as transposed (Fortran-ordered) views, as
    # _monomial_sign_matrix returns them: +-1 signs, with 40 columns and
    # 40 rows planted as signed copies of others, and the 0/1 indicators
    # certify_bound ranks, with plain copies; p = 719 is the largest
    # prime rank_mod_p runs in float32, and 727 the next one
    rng = np.random.default_rng(7)
    for values, flips in (([-1, 1], [-1, 1]), ([0, 1], [1])):
        MT = rng.choice(np.array(values, dtype=np.int8), size=(200, 300))
        MT[160:] = MT[rng.integers(0, 160, 40)] * rng.choice(flips, (40, 1))
        MT[:, 260:] = MT[:, rng.integers(0, 260, 40)] * rng.choice(flips, 40)
        M = MT.T
        assert M.dtype == np.int8 and not M.flags.c_contiguous
        assert set(np.unique(M)) == set(values)
        for p in (5, 719):
            assert rank_mod_p(M, p) == _rank_loop(M, p) == 160
    assert (718 ** 2 * algebra._PANEL + 2 * 719 < 2 ** 24
            < 726 ** 2 * algebra._PANEL)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16,
                                   np.int32, np.uint32, np.int64])
def test_rank_mod_p_integer_types(dtype):
    # entries across the whole range of each integer type, 20 rows
    # repeated: the working copy takes them as they are where the type
    # lies within the float type's limit (up to 16 bits in float32, 32 in
    # float64), and reduces them mod p in their own type otherwise
    info = np.iinfo(dtype)
    M = np.random.default_rng(3).integers(info.min, info.max, size=(60, 50),
                                          dtype=dtype, endpoint=True)
    M[40:] = M[:20]
    for p in (5, 719, 727, _P_EDGE):
        assert rank_mod_p(M, p) == _rank_loop(M, p) <= 40


def _sigma_sample(n, size, seed):
    # uniform members of Sigma(n): x_1 = +1 and n/2 - 1 more +1 entries
    rng = np.random.default_rng(seed)
    X = -np.ones((size, n), dtype=np.int8)
    X[:, 0] = 1
    for row in X:
        row[1 + rng.choice(n - 1, n // 2 - 1, replace=False)] = 1
    return X


# every triple certify_bound ranks with p < 4n: a = 4p - n > 0 and the
# dimension bound within _RANK_COLS_CAP, which leaves n <= 16 (below)
_RANKED = [(n, p, 4 * p - n) for n in (4, 8, 12, 16) for p in range(2, 4 * n)
           if is_prime(p) and 4 * p > n
           and dimension_bound(n, p) <= algebra._RANK_COLS_CAP]


def test_rank_cap_keeps_sigma_within_6435():
    # every triple certify_bound enumerates (n <= ENUMERATION_CAP, prime p,
    # a = 4p - n >= 4) whose dimension bound is within the rank cap has
    # n <= 16, so |Sigma(n)| needs no cap of its own.  The bound grows
    # with p and is 2**n from p = n + 1 on, so p < 200 covers every p
    ranked = [(n, p) for n in range(4, ENUMERATION_CAP + 1, 4)
              for p in range(2, 200) if is_prime(p) and 4 * p - n >= 4
              and dimension_bound(n, p) <= algebra._RANK_COLS_CAP]
    assert max(n for n, _ in ranked) == 16
    assert max(binomial(n - 1, n // 2 - 1) for n, _ in ranked) == 6435
    # n = 20 asks p >= 7 for a >= 4
    assert dimension_bound(20, 7) == 60460 > algebra._RANK_COLS_CAP


def _dead_levels(n, p, a):
    w = algebra._reduced_profile_weights(n, p, a)
    return [s for s in range(min(p - 1, n - 1) + 1) if not (w[s] or w[s + 1])]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 300))
@example(1, 0)
@example(4, 0)
def test_profile_weights_closed_form_above_2n(m, offset):
    # for p > 2n the product is -[z = all ones] on the cube, so every
    # weight is -2^-n mod p and no level is dead
    n = 4 * m
    p = next(q for q in itertools.count(2 * n + 1 + offset) if is_prime(q))
    w = algebra._reduced_profile_weights(n, p, 4 * p - n)
    assert w == [-pow(2, -n, p) % p] * (n + 1)


def test_no_dead_level_at_any_certified_rank():
    # every triple certify_bound ranks with p < 400 (a >= 4 as it asks);
    # above 2n the closed form covers the rest, so the scan is complete
    ranked = [(n, p, 4 * p - n) for n in range(4, ENUMERATION_CAP + 1, 4)
              for p in range(2, 400) if is_prime(p) and 4 * p - n >= 4
              and dimension_bound(n, p) <= algebra._RANK_COLS_CAP]
    assert len(ranked) == 158
    assert sum(p <= 2 * n for n, p, _ in ranked) == 12
    assert [t for t in ranked if _dead_levels(*t)] == []


@pytest.mark.parametrize("n, p, a, zero", [(16, 13, 36, 9), (24, 7, 4, 4)])
def test_free_sign_matrix_at_zero_weights(n, p, a, zero):
    # on rows with x_1 = +1 the coefficient columns of S and S u {1}
    # (S within coordinates 2..n) are w_s x_S and w_{s+1} x_S mod p; a
    # zero w_s must not cost S its column while w_{s+1} is nonzero
    w = np.array(algebra._reduced_profile_weights(n, p, a))
    assert w[zero] == 0 and w[zero + 1] != 0
    X = _sigma_sample(n, 64, seed=n)
    assert (X.sum(axis=1) == 0).all()
    free = monomial_basis(n - 1, p)
    sizes = np.array([mask.bit_count() for mask in free])
    signs = algebra._monomial_sign_matrix(X[:, 1:], free)
    column = {mask: j for j, mask in enumerate(monomial_basis(n, p))}
    C = coefficient_matrix(X, p, a)
    cols = [column[mask << 1] for mask in free]
    assert np.array_equal(C[:, cols], w[sizes] * signs % p)
    up = sizes + 1 < p  # S u {1} is in the basis
    cols = [column[mask << 1 | 1] for mask in np.array(free)[up].tolist()]
    assert np.array_equal(C[:, cols], w[sizes[up] + 1] * signs[:, up] % p)
    assert rank_mod_p(free_sign_matrix(X, p, a), p) == rank_mod_p(C, p)


def test_free_sign_matrix_refuses_dead_level(monkeypatch):
    # no ranked triple has two neighbouring zero weights; planted at
    # p = 5, w_3 = w_4 = 0 (and w_5 = 0 past the degree) zero both
    # coefficient columns of every S of size 3 and 4, which the 0/1
    # columns cannot express, so the oracle refuses, and so does the
    # closed form, whose proof needs every level live
    weights = algebra._reduced_profile_weights
    for n, p, a in _RANKED:
        w = weights(n, p, a)
        assert all(w[s] or w[s + 1] for s in range(min(p - 1, n - 1) + 1))

    def planted(n, p, a):
        w = weights(n, p, a)
        w[3] = w[4] = 0
        return w

    monkeypatch.setattr(algebra, "_reduced_profile_weights", planted)
    monkeypatch.setattr(rank_oracle, "_reduced_profile_weights", planted)
    with pytest.raises(ValueError, match="no coefficient column at level 3"):
        free_sign_matrix(sigma_matrix(12), 5, 8)
    with pytest.raises(ValueError, match="no coefficient column at level 3"):
        certify_bound(12, 5, 8, seeds=1)


def test_free_sign_matrix_refuses_rows_outside_sigma():
    X = sigma_matrix(8)
    for bad in (-X, np.roll(X, 1, axis=1)):
        with pytest.raises(ValueError, match="rows must lie in Sigma"):
            free_sign_matrix(bad, 3, 4)


def test_free_sign_matrix_p2_is_one_column():
    # x_j = 1 mod 2, so every +-1 column x_S is the all-ones column and
    # the coefficient rank is 1; the 0/1 indicators y_j have rank 3 mod 2
    # at (4, 2, 4), since 2 is not invertible there
    X = sigma_matrix(4)
    F = free_sign_matrix(X, 2, 4)
    assert F.shape == (3, 1) and (F == 1).all()
    assert rank_mod_p(F, 2) == rank_mod_p(coefficient_matrix(X, 2, 4), 2) == 1
    assert rank_mod_p(X[:, 1:] > 0, 2) == 3
    cert = certify_bound(4, 2, 4, seeds=2)
    assert cert.rank == 1


def test_slice_inclusion_identity():
    # on every row of Sigma(n), sum_{j not in T} y_{T u {j}} = (k - t) y_T
    # for |T| = t, k = n/2 - 1, with the 0/1 columns as
    # _monomial_sign_matrix builds them; t runs over every level below
    # min(p - 1, k) at each ranked triple, and at n <= 8 up to k, where
    # it makes level k + 1 vanish
    for n in (4, 8, 12, 16):
        k = n // 2 - 1
        top = min(k, 4)
        Y = (sigma_matrix(n)[:, 1:] > 0).astype(np.int8)
        basis = monomial_basis(n - 1, top + 2)
        index = {mask: j for j, mask in enumerate(basis)}
        cols = algebra._monomial_sign_matrix(Y, basis).T
        for mask in basis:
            t = mask.bit_count()
            if t > top:
                break
            up = sum(cols[index[mask | 1 << j]].astype(np.int64)
                     for j in range(n - 1) if not mask >> j & 1)
            assert np.array_equal(up, (k - t) * cols[index[mask]])


@pytest.mark.parametrize("n, p, a", _RANKED)
def test_free_sign_matrix_rank_matches_coefficient_matrix(n, p, a):
    X = sigma_matrix(n)
    full = rank_mod_p(coefficient_matrix(X, p, a), p)
    assert rank_mod_p(free_sign_matrix(X, p, a), p) == full


def test_free_sign_matrix_columns_pinned():
    # columns the rank runs on: level min(p - 1, k) and the levels below
    # it congruent to k mod p; 1941, 4, 7, 29, 99, 127, 562 and 1486
    # +-1 columns before, in the order below
    columns = {(16, 5, 4): 1470, (4, 2, 4): 1, (4, 3, 8): 3, (8, 3, 4): 22,
               (8, 5, 12): 35, (8, 7, 20): 35, (12, 5, 8): 331,
               (12, 7, 16): 462}
    for (n, p, a), count in columns.items():
        F = free_sign_matrix(sigma_matrix(n), p, a)
        assert F.shape == (binomial(n - 1, n // 2 - 1), count)
        assert F.dtype == np.int8 and set(np.unique(F)) <= {0, 1}
    assert len(_RANKED) == 19
    assert dimension_bound(12, 11) > algebra._RANK_COLS_CAP  # (12, 11, 32): no rank


@pytest.mark.parametrize("n, p, a", _RANKED)
def test_subset_rank_matches_full_rows(n, p, a):
    # the certificate's closed-form rank against the oracle's elimination,
    # decided on evenly spaced rows when they reach the Q bound, and
    # against rank_mod_p on all rows
    cert = certify_bound(n, p, a, seeds=1)
    X = sigma_matrix(n)
    full = rank_mod_p(free_sign_matrix(X, p, a), p)
    rank, rows, _ = slice_rank(X, p, a, cert.rank)
    assert cert.rank == rank == full
    assert rows == min(full + SLICE_SPARE, cert.sigma_size)
    assert cert.rank_full_family and cert.verdict == (p != 2)


def test_slice_rank_falls_back_to_all_rows():
    # Sigma(12) at (12, 5, 8), rank 330, laid out so that the evenly
    # spaced rows slice_rank takes first are all copies of one row: they
    # fall short of the bound, and the rank comes from every row
    X = sigma_matrix(12)
    F = free_sign_matrix(X, 5, 8)
    bound = algebra._sigma_rank(12, 5, 8)
    count = bound + SLICE_SPARE
    m = count + X.shape[0]
    chosen = np.arange(count) * m // count
    planted = np.empty((m, X.shape[1]), dtype=X.dtype)
    planted[chosen] = X[0]
    planted[np.setdiff1d(np.arange(m), chosen)] = X
    assert rank_mod_p(free_sign_matrix(planted[chosen], 5, 8), 5) == 1
    assert slice_rank(planted, 5, 8, bound) == (330, m, F.shape[1])
    # unplanted, the subset decides, on those rows of the full columns
    assert slice_rank(X, 5, 8, bound) == (330, count, F.shape[1])
    subset = np.arange(count) * X.shape[0] // count
    assert np.array_equal(free_sign_matrix(X[subset], 5, 8), F[subset])


def test_certify_bound_fails_when_rank_exceeds_bound(monkeypatch):
    # the verdict still requires rank <= the dimension bound: a rank one
    # past it, 795 against 794 at (12, 5, 8), fails it and nothing else
    monkeypatch.setattr(algebra, "_sigma_rank",
                        lambda n, p, a: dimension_bound(n, p) + 1)
    cert = certify_bound(12, 5, 8, seeds=2)
    assert cert.rank == 795 and cert.bound == 794
    assert cert.property_violations == 0 and not cert.verdict
    monkeypatch.undo()
    assert certify_bound(12, 5, 8, seeds=2).verdict


def test_rank_of_full_family_frozen():
    # rank over GF(p) of all reduced polynomials (that of the free
    # columns, by the test above): C(n-1, min(p-1, n/2-1)) at every odd p
    rank = {(n, p, a): rank_mod_p(free_sign_matrix(sigma_matrix(n), p, a), p)
            for n, p, a in _RANKED}
    assert rank[8, 3, 4] == 21 == binomial(7, 2)
    assert rank[8, 5, 12] == 35 == binomial(7, 4)
    assert rank[12, 5, 8] == 330 == binomial(11, 4)
    assert rank[12, 7, 16] == 462 == binomial(11, 6)
    assert rank[16, 5, 4] == 1365 == binomial(15, 4)
    assert 330 <= dimension_bound(12, 5)
    for (n, p, a), r in rank.items():
        assert r == (1 if p == 2 else binomial(n - 1, min(p - 1, n // 2 - 1)))
        assert r == algebra._sigma_rank(n, p, a)


def test_coefficient_matrix_matches_symbolic_rows():
    # every row at (8, 3, 4) against the expanded and reduced product
    n, p, a = 8, 3, 4
    basis = monomial_basis(n, p)
    X = sigma_matrix(n)
    C = coefficient_matrix(X, p, a)
    assert C.shape == (X.shape[0], len(basis))
    for i, x in enumerate(X.tolist()):
        assert (C[i] == symbolic_row(x, p, a, basis)).all()


def test_coefficient_matrix_matches_symbolic_rows_spot():
    n, p, a = 12, 5, 8
    basis = monomial_basis(n, p)
    X = sigma_matrix(n)
    C = coefficient_matrix(X, p, a)
    for i in range(0, X.shape[0], 97):
        assert (C[i] == symbolic_row(X[i].tolist(), p, a, basis)).all()
    # a restricted stack gives the same rows as the full one
    assert (coefficient_matrix(X[::97], p, a) == C[::97]).all()


def test_rank_gfp_certifies_family_independence():
    n, p, a = 12, 5, 8
    fam = greedy_avoiding_family(sigma_matrix(n), -a, seed=1)
    C = coefficient_matrix(fam, p, a)
    assert rank_mod_p(C, p) == _rank_loop(C, p) == len(fam)


def test_max_avoiding_exact_values():
    # n <= 12 is compared with the search below; past it, the triples
    # certify now settles (t = 0 or no conflict), and none where t > 0
    assert max_avoiding_exact(16, -12) == binomial(14, 6) == 3003
    assert max_avoiding_exact(20, -16) == binomial(18, 8)
    assert max_avoiding_exact(24, -28) == binomial(23, 11)
    # t = 2 at (16, 5, 4): no closed form, and the search does not run there
    assert max_avoiding_exact(16, -4) is None
    with pytest.raises(ValueError, match="exact search infeasible"):
        max_avoiding_search(sigma_matrix(16), -4)
    with pytest.raises(ValueError, match="positive multiple of 4"):
        max_avoiding_exact(10, -2)


def test_max_avoiding_exact_main_case():
    assert max_avoiding_exact(12, -8) == 210
    assert max_avoiding_search(sigma_matrix(12), -8) == 210


def test_max_avoiding_exact_closed_form_matches_search(monkeypatch):
    # every integer dot in [-n, n]: a value wherever t = |A n B| of a
    # conflicting pair is 0 or no pair conflicts, and it equals the search;
    # None exactly where 0 < t, and the closed form touches no numpy
    for n in (4, 8, 12):
        k = n // 2 - 1
        oracle = {}
        for forbidden in range(-n, n + 1):
            j, rest = divmod(n - forbidden, 4)
            t = k - j if rest == 0 and 1 <= j <= k else None
            if t != 0 and t is not None:
                continue
            oracle[forbidden] = max_avoiding_search(sigma_matrix(n), forbidden)
        with monkeypatch.context() as m:
            m.setattr(algebra, "np", None)
            closed = {f: max_avoiding_exact(n, f) for f in range(-n, n + 1)}
        for forbidden, mis in closed.items():
            assert (mis is None) == (forbidden not in oracle)
            if mis is not None:
                assert mis == oracle[forbidden]


# ---------------------------------------------------------------------------
# brute-force oracle for the exact search: plain recursion, no bounds


def _pair_conflicts(rows, forbidden):
    X = rows.astype(np.int64)
    C = X @ X.T == forbidden
    np.fill_diagonal(C, False)
    return C


def _mis_brute(conflict):
    """Maximum independent set: the lowest vertex is left out or taken."""
    m = conflict.shape[0]
    assert m <= 35
    closed = [(1 << v) | sum(1 << int(j) for j in np.flatnonzero(row))
              for v, row in enumerate(conflict)]

    @functools.lru_cache(maxsize=None)
    def mis(alive):
        if not alive:
            return 0
        v = (alive & -alive).bit_length() - 1
        return max(mis(alive & ~(1 << v)), 1 + mis(alive & ~closed[v]))

    return mis((1 << m) - 1)


def _record_eigvalsh(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(A):
        ev = eigvalsh(A)
        seen.append(ev)
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return seen


@pytest.mark.parametrize("forbidden, expected", [(0, 5), (4, 7)])
def test_max_avoiding_exact_branches_on_sigma8(monkeypatch, forbidden, expected):
    # the root's inertia bound leaves a gap here, so the search branches
    X = sigma_matrix(8)
    assert _mis_brute(_pair_conflicts(X, forbidden)) == expected
    seen = _record_eigvalsh(monkeypatch)
    assert max_avoiding_search(X, forbidden) == expected
    assert len(seen) > 1
    # t = |A n B| is 1 and 2 here: no closed form
    assert max_avoiding_exact(8, forbidden) is None


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("forbidden", [-4, 0, 4])
def test_max_avoiding_exact_matches_brute_force_on_subsets(n, forbidden):
    X = sigma_matrix(n)
    rng = np.random.default_rng(100 * n + forbidden)
    for _ in range(4):
        size = int(rng.integers(16, min(X.shape[0], 35) + 1))
        rows = X[np.sort(rng.choice(X.shape[0], size, replace=False))]
        C = _pair_conflicts(rows, forbidden)
        assert C.any()
        assert max_avoiding_search(rows, forbidden) == _mis_brute(C)


def test_max_avoiding_exact_certify_instances_settle_at_root(monkeypatch):
    # every triple certify_bound meets at n <= 12: prime p, a = 4p - n >= 4
    # (a <= 3n here; past a = n - 4 no pair attains -a at all).  Only
    # K(7, 3) and K(11, 5) have conflicts, and one eigendecomposition,
    # of integer eigenvalues, settles each; the closed form agrees
    seen = _record_eigvalsh(monkeypatch)
    searched = []
    for n in (4, 8, 12):
        for p in range(2, n + 1):
            a = 4 * p - n
            if not is_prime(p) or a < 4:
                continue
            seen.clear()
            mis = max_avoiding_search(sigma_matrix(n), -a)
            assert mis == max_avoiding_exact(n, -a)
            assert len(seen) <= 1
            if seen:
                nearest = np.round(seen[0])
                assert (nearest != 0).all()
                assert np.abs(seen[0] - nearest).max() < 1e-9
                searched.append((n, p, a, mis))
    assert searched == [(8, 3, 4, 15), (12, 5, 8, 210)]


def test_certify_bound_frozen_desk_case():
    cert = certify_bound(12, 5, 8, seeds=8)
    assert cert.bound == 794
    assert cert.sigma_size == 462
    assert cert.mis_exact == 210
    assert cert.rank == 330 and cert.rank_full_family
    assert cert.vacuous  # 794 >= 462
    assert cert.property_violations == 0
    assert cert.verdict
    assert max(cert.family_sizes) <= cert.mis_exact


def test_certify_bound_sampled_pool_branch():
    # |Sigma(20)| = 92378 > _FULL_SCAN_CAP: families come from seeded
    # pools of _FAMILY_POOL rows, with no rank and no exact maximum (-8
    # is attained at |A n B| = 2, where no closed form is known)
    assert binomial(19, 9) > algebra._FULL_SCAN_CAP
    cert = certify_bound(20, 7, 8, seeds=2)
    assert cert.sigma_size == 92378
    assert cert.rank is None and not cert.rank_full_family
    assert cert.mis_exact is None
    assert len(cert.family_sizes) == 2
    assert all(size <= cert.bound for size in cert.family_sizes)
    assert cert.property_violations == 0
    assert cert.verdict


def test_certify_bound_first_pool_is_sampled():
    # rows 0..4095 of Sigma(20) all avoid -8, so a first pool taken in
    # enumeration order made the whole pool the first family
    X = sigma_matrix(20)
    assert len(greedy_avoiding_family(X[:algebra._FAMILY_POOL], -8)) == algebra._FAMILY_POOL
    cert = certify_bound(20, 7, 8, seeds=2)
    assert cert.family_sizes[0] < algebra._FAMILY_POOL
    pools = [algebra._family_pool(cert.sigma_size, s) for s in (None, 0)]
    assert not np.array_equal(pools[0], pools[1])
    for pool, seed, size in zip(pools, (None, 0), cert.family_sizes):
        fam = greedy_avoiding_family(X[pool], -8, seed=seed)
        assert len(fam) == size
        assert independence_verify(fam, 7, 8)


def test_certify_bound_fails_on_property_violation(monkeypatch):
    # a wrong weight leaves the families, the evaluation certificates and
    # the rank bound intact; only the property count can catch it
    weights = algebra._reduced_profile_weights

    def perturbed(n, p, a):
        w = weights(n, p, a)
        w[2] = (w[2] + 2) % p
        return w

    monkeypatch.setattr(algebra, "_reduced_profile_weights", perturbed)
    cert = certify_bound(8, 3, 4, seeds=2)
    assert cert.property_violations == 1050
    # every level stays live, so the rank is C(7, 2)
    assert cert.rank == 21
    assert cert.rank <= cert.bound and max(cert.family_sizes) <= cert.mis_exact
    assert not cert.verdict


def test_certify_bound_relation_check():
    with pytest.raises(ValueError, match="n - 4p != -a"):
        certify_bound(12, 5, 4)


@pytest.mark.parametrize("p, a", [(3, 0), (2, -4)])
def test_certify_bound_refuses_offset_below_4(p, a):
    # n - 4p = -a holds with p prime; the planner takes a as a positive
    # multiple of 4, and so does certify
    with pytest.raises(ValueError, match="offset a = %d below 4" % a):
        certify_bound(12, p, a)
