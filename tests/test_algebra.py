"""Residue-product polynomials, multilinear reduction, rank and MIS oracles."""

import dataclasses
import itertools
import math

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
    residue_excluded_dots,
    residue_value_table,
    sigma_gram,
)
from borsuk.construction import sigma_matrix
from borsuk.exactnum import binomial, is_prime


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
    # a cached conflict matrix changes no family
    conflict = algebra._conflict_matrix(X, -8)
    assert (greedy_avoiding_family(X, -8, seed=3, conflict=conflict) == f3).all()


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


def test_greedy_family_pool_restriction():
    X = sigma_matrix(12)
    fam = greedy_avoiding_family(X[:100], -8)
    first100 = {tuple(v) for v in X[:100].tolist()}
    assert all(tuple(m) in first100 for m in fam.tolist())


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
    def rank(n, p, a):
        return rank_mod_p(coefficient_matrix(sigma_matrix(n), p, a), p)

    assert rank(8, 3, 4) == 21 == binomial(7, 2)
    assert rank(8, 5, 12) == 35 == binomial(7, 4)
    assert rank(12, 5, 8) == 330 == binomial(11, 4)
    assert rank(12, 7, 16) == 462 == binomial(11, 6)
    assert rank(16, 5, 4) == 1365 == binomial(15, 4)
    assert 330 <= dimension_bound(12, 5)


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
    assert max_avoiding_exact(sigma_matrix(8), -4) == 15
    # no pair attains -4, whole set
    assert max_avoiding_exact(sigma_matrix(4), -4) == 3
    # odd dot: empty graph
    assert max_avoiding_exact(sigma_matrix(8), 7) == binomial(7, 3)
    # the diagonal (x, x) = n is no edge
    assert max_avoiding_exact(sigma_matrix(8), 8) == binomial(7, 3)
    with pytest.raises(ValueError, match="exact search infeasible"):
        max_avoiding_exact(sigma_matrix(16), -4)


def test_max_avoiding_exact_main_case():
    assert max_avoiding_exact(sigma_matrix(12), -8) == 210


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


def test_certify_bound_fails_on_property_violation(monkeypatch):
    # a wrong weight leaves the families, the evaluation certificates and
    # the rank bound intact; only the property count can catch it
    weights = algebra._reduced_profile_weights

    def perturbed(n, p, a):
        w = weights(n, p, a)
        w[2] = (w[2] + 1) % p
        return w

    monkeypatch.setattr(algebra, "_reduced_profile_weights", perturbed)
    cert = certify_bound(8, 3, 4, seeds=2)
    assert cert.property_violations > 0
    assert cert.rank <= cert.bound and max(cert.family_sizes) <= cert.mis_exact
    assert not cert.verdict


def test_certify_bound_relation_check():
    with pytest.raises(ValueError, match="n - 4p != -a"):
        certify_bound(12, 5, 4)
