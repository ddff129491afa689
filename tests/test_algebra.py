"""Residue-product polynomials, multilinear reduction, rank and MIS oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borsuk import algebra
from borsuk.algebra import (
    AvoidingFamily,
    certify_bound,
    coefficient_matrix,
    dimension_bound,
    evaluation_certificate,
    evaluation_matrix,
    excluded_residue,
    greedy_avoiding_family,
    independence_verify,
    max_avoiding_exact,
    monomial_basis,
    property_check,
    property_check_exhaustive,
    rank_mod_p,
    reduced_indicator,
    residue_excluded_dots,
    residue_value_table,
    sigma_gram,
    ReducedPolynomial,
)
from borsuk.construction import SignVector, sign_vectors, sigma_matrix
from borsuk.exactnum import binomial, is_prime


# ---------------------------------------------------------------------------
# symbolic oracle: the residue product expanded in dense exponent vectors,
# then reduced monomial by monomial; deliberately naive, and independent
# of the weight-profile recurrence behind reduced_indicator


def _signs(x):
    return x.entries if isinstance(x, SignVector) else tuple(int(v) for v in x)


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

    Valid on +-1 inputs, where y**2 = 1.
    """
    assert p == poly.p
    out = {}
    for expo, c in poly.coefficients.items():
        mask = 0
        for j, e in enumerate(expo):
            if e & 1:
                mask |= 1 << j
        out[mask] = (out.get(mask, 0) + c) % p
    return ReducedPolynomial(
        n=poly.n, p=p, coefficients={m: c for m, c in out.items() if c}
    )


def test_dimension_bound_values():
    assert dimension_bound(16, 5) == 2517
    assert dimension_bound(12, 5) == 794
    assert dimension_bound(8, 5) == 163
    for n, p in [(8, 3), (12, 5), (16, 5)]:
        assert dimension_bound(n, p) == sum(math.comb(n, i) for i in range(p))


def test_excluded_residue_and_dots():
    assert excluded_residue(5, 8) == (-8) % 5 == 2
    assert excluded_residue(3, 4) == 2
    # residues congruent to -a besides -a itself are never multiples of 4
    for n, p in [(8, 3), (12, 5), (16, 5)]:
        for t in residue_excluded_dots(n, p):
            assert t % 4 != 0


def test_residue_value_table_brute():
    for p, a in [(3, 4), (5, 8), (7, 8)]:
        table = residue_value_table(p, a)
        skip = excluded_residue(p, a)
        for s in range(p):
            want = 1
            for i in range(p):
                if i != skip:
                    want = want * (i - s) % p
            assert table[s] == want
        assert table[skip] != 0
        assert all(table[s] == 0 for s in range(p) if s != skip)


def test_residue_product_polynomial_evaluations():
    p, a = 3, 4
    vs = sign_vectors(8)
    x = vs[0]
    poly = residue_product_polynomial(x, p, a)
    assert poly.degree() == p - 1
    skip = excluded_residue(p, a)
    for y in vs[:12]:
        dot = sum(u * v for u, v in zip(x.entries, y.entries))
        want = 1
        for i in range(p):
            if i != skip:
                want = want * (i - dot) % p
        assert poly.evaluate(y.entries) == want


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


def test_reduced_indicator_matches_symbolic_route_exhaustive():
    n, p, a = 8, 3, 4
    for x in sign_vectors(n):
        bulk = reduced_indicator(x.entries, p, a)
        symbolic = reduce_multilinear(residue_product_polynomial(x.entries, p, a), p)
        assert bulk.coefficients == symbolic.coefficients


def test_reduced_indicator_matches_symbolic_route_spot():
    n, p, a = 12, 5, 8
    for x in sign_vectors(n)[::97]:
        bulk = reduced_indicator(x.entries, p, a)
        symbolic = reduce_multilinear(residue_product_polynomial(x.entries, p, a), p)
        assert bulk.coefficients == symbolic.coefficients


def test_property_check_pointwise():
    vs = sign_vectors(12)
    G = sigma_gram(12)
    hit = np.argwhere(G == -8)
    i, j = hit[0]
    lhs, rhs = property_check(vs[i].entries, vs[j].entries, 5, 8)
    assert lhs and rhs
    # self-pair: (x, x) = 12 = -8 mod 5, the diagonal congruence
    lhs, rhs = property_check(vs[0].entries, vs[0].entries, 5, 8)
    assert lhs and rhs


@pytest.mark.parametrize("n,p,a", [(8, 3, 4), (12, 5, 8)])
def test_property_equivalence_exhaustive_desk(n, p, a):
    assert property_check_exhaustive(n, p, a) == 0


def test_property_check_detects_a_wrong_weight(monkeypatch):
    # the check must be able to fail: one perturbed weight of the
    # symmetric profile corrupts the coefficient matrix it evaluates
    weights = algebra._reduced_profile_weights

    def perturbed(n, p, a):
        w = weights(n, p, a)
        w[1] = (w[1] + 1) % p
        return w

    monkeypatch.setattr(algebra, "_reduced_profile_weights", perturbed)
    assert property_check_exhaustive(12, 5, 8) > 0


def test_property_check_refuses_inexact_float32(monkeypatch):
    # (13 // 2) * sum_{i<13} C(24, i) passes 2**24: refused before
    # Sigma(24), 1.35 million rows, or its monomial basis is built
    assert 6 * dimension_bound(24, 13) > 2 ** 24

    def no_build(*args):
        raise AssertionError("built before the exactness guard")

    monkeypatch.setattr(algebra, "sigma_matrix", no_build)
    monkeypatch.setattr(algebra, "monomial_basis", no_build)
    with pytest.raises(ValueError, match="exact float32"):
        property_check_exhaustive(24, 13, 28)


def test_evaluation_matrix_structure():
    n, p, a = 12, 5, 8
    fam = greedy_avoiding_family(n, -a)
    M = evaluation_matrix(fam.matrix(), p, a)
    assert (np.diag(M) != 0).all()
    off = M.copy()
    np.fill_diagonal(off, 0)
    assert not off.any()


def test_evaluation_certificate_rejects_forbidden_pair():
    vs = sign_vectors(12)
    G = sigma_gram(12)
    i, j = np.argwhere(G == -8)[0]
    members = np.array([vs[i].entries, vs[j].entries], dtype=np.int8)
    assert not evaluation_certificate(members, 5, 8)


def test_avoiding_family_rejects_forbidden_pair():
    vs = sign_vectors(12)
    G = sigma_gram(12)
    i, j = np.argwhere(G == -8)[0]
    with pytest.raises(ValueError, match="forbidden pair"):
        AvoidingFamily(members=(vs[i], vs[j]), forbidden=-8)


def test_independence_verify_input_checks():
    fam = greedy_avoiding_family(12, -8)
    assert independence_verify(fam, 5, 8)
    with pytest.raises(ValueError, match="n - 4p != -a"):
        independence_verify(fam, 5, 12)
    fam4 = greedy_avoiding_family(12, -4)
    with pytest.raises(ValueError, match="certificate needs -a"):
        independence_verify(fam4, 5, 8)


def test_greedy_family_deterministic_and_seeded():
    f1 = greedy_avoiding_family(12, -8)
    f2 = greedy_avoiding_family(12, -8)
    assert f1.members == f2.members
    f3 = greedy_avoiding_family(12, -8, seed=3)
    f4 = greedy_avoiding_family(12, -8, seed=3)
    assert f3.members == f4.members
    assert len(f1) <= 210 and len(f3) <= 210


def test_greedy_family_pool_restriction():
    pool = np.arange(100)
    fam = greedy_avoiding_family(12, -8, pool=pool)
    vs = sign_vectors(12)
    first100 = {v.entries for v in vs[:100]}
    assert all(m.entries in first100 for m in fam.members)


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


def _rank_gfp(polys, p):
    # rank of reduced polynomials as vectors of monomial coefficients
    masks = sorted(
        {m for q in polys for m in q.coefficients}, key=lambda m: (m.bit_count(), m)
    )
    index = {m: j for j, m in enumerate(masks)}
    A = np.zeros((len(polys), len(masks)), dtype=np.int64)
    for i, q in enumerate(polys):
        for m, c in q.coefficients.items():
            A[i, index[m]] = c
    return rank_mod_p(A, p)


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
    # p = 409 runs in float32, where a panel of 96 pivots adds up to
    # 96 (p-1)^2 ~ 2^24 to the trailing entries: from the second panel on
    # the trailing block must be reduced mod p before every update, and
    # 390 pivots take five panels, enough to go wrong without it
    p = 409
    assert (p - 1) ** 2 * algebra._PANEL + 2 * p < 2 ** 24
    M = _low_rank(420, 400, 390, p, seed=0)
    assert rank_mod_p(M, p) == _rank_loop(M, p) == 390


def test_rank_mod_p_pivots_outside_sample():
    # a panel's pivot search starts on every (rows // _PANEL_SAMPLE)-th
    # row; here those rows are zero or of rank 3, so the pivots must come
    # from the rows the first sample left out
    rows = 2 * algebra._PANEL_SAMPLE + 1
    for p in (2, 7):
        M = _low_rank(rows, 70, 45, p, seed=p)
        M[::2] = 0
        assert rank_mod_p(M, p) == _rank_loop(M, p)
        M[::2] = _low_rank(rows // 2 + 1, 70, 3, p, seed=p + 1)
        assert rank_mod_p(M, p) == _rank_loop(M, p)


def test_rank_mod_p_rejects_non_prime():
    for p in (4, 1, 0, -5):
        with pytest.raises(ValueError, match="not prime"):
            rank_mod_p(np.array([[2]]), p)


def test_rank_mod_p_rejects_inexact_prime():
    assert rank_mod_p(np.array([[2, 1], [1, 3]]), _P_EDGE) == 2
    with pytest.raises(ValueError, match="too large"):
        rank_mod_p(np.array([[2]]), 94906297)  # next prime past the edge


def test_rank_of_full_family_frozen():
    # rank over GF(p) of all reduced polynomials; observed C(n-1, p-1)
    assert rank_mod_p(coefficient_matrix(8, 3, 4), 3) == 21 == binomial(7, 2)
    assert rank_mod_p(coefficient_matrix(8, 5, 12), 5) == 35 == binomial(7, 4)
    assert rank_mod_p(coefficient_matrix(12, 5, 8), 5) == 330 == binomial(11, 4)
    assert rank_mod_p(coefficient_matrix(12, 7, 16), 7) == 462 == binomial(11, 6)
    assert rank_mod_p(coefficient_matrix(16, 5, 4), 5) == 1365 == binomial(15, 4)
    assert 330 <= dimension_bound(12, 5)


def test_coefficient_matrix_matches_symbolic_rows():
    n, p, a = 8, 3, 4
    basis = monomial_basis(n, p)
    index = {m: j for j, m in enumerate(basis)}
    C = coefficient_matrix(n, p, a)
    for i, x in enumerate(sign_vectors(n)):
        poly = reduced_indicator(x.entries, p, a)
        row = np.zeros(len(basis), dtype=np.int64)
        for mask, c in poly.coefficients.items():
            row[index[mask]] = c
        assert (C[i] % p == row % p).all()


def test_rank_gfp_certifies_family_independence():
    n, p, a = 12, 5, 8
    fam = greedy_avoiding_family(n, -a, seed=1)
    polys = [reduced_indicator(m.entries, p, a) for m in fam.members]
    assert _rank_gfp(polys, p) == len(fam)


def test_max_avoiding_exact_values():
    assert max_avoiding_exact(8, -4) == 15
    assert max_avoiding_exact(4, -4) == 3  # no pair attains -4, whole set
    assert max_avoiding_exact(8, 7) == binomial(7, 3)  # odd dot: empty graph
    with pytest.raises(ValueError, match="exact search infeasible"):
        max_avoiding_exact(16, -4)


def test_max_avoiding_exact_main_case():
    assert max_avoiding_exact(12, -8) == 210


def test_certify_bound_frozen_desk_case():
    cert = certify_bound(12, 5, 8, seeds=8)
    assert cert.bound == 794
    assert cert.sigma_size == 462
    assert cert.mis_exact == 210
    assert cert.rank == 330 and cert.rank_full_family
    assert cert.vacuous  # 794 >= 462
    assert cert.verdict
    assert max(cert.family_sizes) <= cert.mis_exact


def test_certify_bound_relation_check():
    with pytest.raises(ValueError, match="n - 4p != -a"):
        certify_bound(12, 5, 4)
