"""Residue polynomials over GF(p) and the linear-independence bound.

For a sign vector x and the construction prime p, the polynomial

    P_x(y) = prod over residues i in {0..p-1}, i != (-a mod p), of (i - (x, y))

vanishes mod p exactly when (x, y) is NOT congruent to -a.  Reducing each
monomial multilinearly (even exponents drop, odd become 1) preserves all
evaluations on +-1 vectors and confines the polynomials to the span of
multilinear monomials of degree at most p-1, a space of dimension
sum_{i<p} C(n, i).  Polynomials attached to a family avoiding the inner
product -a are linearly independent (diagonal nonzero, off-diagonal zero
in the evaluation matrix), so no avoiding family can outgrow that
dimension.  Sign vectors and families are int8 rows of
construction.sigma_matrix(n) throughout; a polynomial is its row of
coefficient_matrix, built in bulk from one symmetric weight profile.  This
module certifies independence two independent ways (coefficient rank and
evaluation matrix) and cross-checks the bound against the exact maximum
avoiding family, in closed form by the Erdos-Ko-Rado theorem where one is
known (max_avoiding_exact).  Every row of Sigma(n) has x_1 = +1,
so the coefficient columns of y_S and y_{S u {1}} are both multiples of
the +-1 column x_S in the n - 1 free coordinates 2..n.  There Sigma(n)
is the slice of k-subsets, k = n/2 - 1, on which low-degree functions
are spanned by one top level of 0/1 subset indicators and the levels
congruent to k mod p (the inclusion matrices of Frankl & Wilson,
Combinatorica 1, 1981).  The coefficient rank is taken on those
columns (_free_sign_matrix, whose docstring proves the ranks equal):
1470 columns in place of 2517 at n = 16.  Over Q their rank is at most
C(n-1, e), e = min(p-1, k), so evenly spaced rows whose GF(p) rank
reaches it decide the full rank (_slice_rank): C(n-1, e) + 8 rows, 1373
of 6435 at n = 16, whose columns alone are built, with a fall-back to
all rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from .exactnum import binomial, binomial_tail_sum, is_prime
from .construction import ENUMERATION_CAP, sigma_matrix

# Full-family rank elimination is O(rows * cols * rank); these caps keep it
# to a few seconds.  The column cap applies to the dimension bound, the
# coefficient matrix's column count, though the rank runs on fewer columns
# (_free_sign_matrix) and, when they reach the slice bound, on fewer rows
# (_slice_rank; n=16 decides on 1373 x 1470 in place of 6435 x 1470).
# Above them the sampled-family certificates carry the evidence instead.
_RANK_ROWS_CAP = 8000
_RANK_COLS_CAP = 4000
# rows past the slice bound that _slice_rank ranks first
_SLICE_SPARE = 8

# float32 and float64 hold every integer of magnitude up to these
_EXACT32 = 2 ** 24
_EXACT64 = 2 ** 53

# rank_mod_p: columns per panel, and rows sampled for a panel's pivots,
# a few more than a panel can have; narrow panels keep each pivot's
# rank-1 update in _gauss_jordan small.  Rows per matmul in its trailing
# update and in sigma_gram, which bounds their temporaries
_PANEL = 32
_PANEL_SAMPLE = _PANEL + 8
_ROW_CHUNK = 1024

# greedy families scan all of Sigma up to this size; past it they are
# built inside seeded candidate pools of _FAMILY_POOL rows, which keeps
# each scan short.  A scan settles up to _SCAN_BLOCK live rows per step,
# at most 64, so that one uint64 holds a candidate's conflicts in its block
_FULL_SCAN_CAP = 20000
_SCAN_BLOCK = 64
_BLOCK_BITS = np.uint64(1) << np.arange(_SCAN_BLOCK, dtype=np.uint64)
_FAMILY_POOL = 4096
# the unseeded family's pool, drawn apart from the seeds 0, 1, ... of the rest
_FIRST_POOL_SEED = 2 ** 32 - 1


def sigma_gram(n: int) -> np.ndarray:
    """All pairwise inner products over Sigma(n), enumeration order, int16.

    Goes through float64 so the product hits BLAS, _ROW_CHUNK rows at a
    time so that no full float64 copy exists; exact since every entry is
    an integer of magnitude at most n.
    """
    Xf = sigma_matrix(n).astype(np.float64)
    G = np.empty((Xf.shape[0], Xf.shape[0]), dtype=np.int16)
    for lo in range(0, Xf.shape[0], _ROW_CHUNK):
        G[lo:lo + _ROW_CHUNK] = Xf[lo:lo + _ROW_CHUNK] @ Xf.T
    return G


def dimension_bound(n: int, p: int) -> int:
    """Number of multilinear monomials of degree < p: sum_{i<p} C(n,i)."""
    return binomial_tail_sum(n, p)


def excluded_residue(p: int, a: int) -> int:
    """The residue left out of the product: -a mod p."""
    return (-a) % p


# ---------------------------------------------------------------------------
# reduced polynomials in bulk: one symmetric weight profile serves every x


def _reduced_profile_weights(n: int, p: int, a: int) -> List[int]:
    """Weights w[s] with reduced coefficient of monomial y_S = w[|S|] * x_S.

    Write (x, y) = sum_j z_j with z_j = x_j y_j, also a +-1 assignment.
    The product is then a symmetric polynomial in the z_j, so its
    multilinear reduction has one coefficient per monomial size.
    Multiplying a symmetric reduced polynomial by sum_j z_j sends
    w[s] -> s*w[s-1] + (n-s)*w[s+1] (z_j**2 = 1 merges neighbours).
    Substituting z_j = x_j y_j turns the z-monomial z_S into x_S y_S.
    After i factors the product has degree at most i, so each step only
    fills sizes up to the degree reached; w[s] = 0 for s >= p.
    """
    skip = excluded_residue(p, a)
    w = [0] * (n + 2)
    w[0] = 1
    deg = 0
    for i in range(p):
        if i == skip:
            continue
        deg = min(deg + 1, n)
        nxt = [0] * (n + 2)
        for s in range(deg + 1):
            v = i * w[s] - (s * w[s - 1] if s else 0) - (n - s) * w[s + 1]
            nxt[s] = v % p
        w = nxt
    return w[: n + 1]


def _masks_of_size(n: int, size: int) -> List[int]:
    return [sum(1 << j for j in c) for c in combinations(range(n), size)]


def monomial_basis(n: int, p: int) -> List[int]:
    """Bitmasks of all monomials of degree < p, sorted by (degree, mask)."""
    out: List[int] = []
    for size in range(min(p - 1, n) + 1):
        out.extend(sorted(_masks_of_size(n, size)))
    return out


def _monomial_sign_matrix(X: np.ndarray, basis: List[int]) -> np.ndarray:
    """signs[i, j] = value of basis monomial j on int8 row i.

    The rows hold +-1 signs or 0/1 indicators.  Fills columns size by
    size, reusing the column for the monomial with the lowest variable
    removed; basis order guarantees it exists.  The columns are built as
    contiguous rows of the transpose, which is returned as a
    (Fortran-ordered) view.
    """
    index = {mask: j for j, mask in enumerate(basis)}
    XT = np.ascontiguousarray(X.T)
    signs = np.empty((len(basis), X.shape[0]), dtype=np.int8)
    for j, mask in enumerate(basis):
        if mask == 0:
            signs[j] = 1
        else:
            low = mask & -mask
            np.multiply(signs[index[mask ^ low]], XT[low.bit_length() - 1],
                        out=signs[j])
    return signs.T


def coefficient_matrix(rows: np.ndarray, p: int, a: int) -> np.ndarray:
    """Reduced polynomials of a stack of sign vectors, one row per vector.

    Row i holds the coefficients mod p of the multilinear reduction of
    prod_{j != -a mod p} (j - (x_i, y)), the polynomial that is nonzero
    mod p iff (x_i, y) = -a mod p, in the columns of monomial_basis(n, p).
    Built from the symmetric weight profile; tests/test_algebra.py expands
    the product symbolically as the oracle for it.
    """
    X = np.asarray(rows, dtype=np.int8)
    n = X.shape[1]
    basis = monomial_basis(n, p)
    w = _reduced_profile_weights(n, p, a)
    signs = _monomial_sign_matrix(X, basis)
    wcol = np.array([w[mask.bit_count()] for mask in basis], dtype=np.int16)
    # signs are +-1: pick w or -w, reduced mod p, per entry
    return np.where(signs > 0, wcol % p, -wcol % p)


def _free_sign_matrix(X: np.ndarray, p: int, a: int) -> np.ndarray:
    """A 0/1 int8 matrix with the GF(p) rank of coefficient_matrix(X, p, a).

    The rows of X must lie in Sigma(n): x_1 = +1 and k = n/2 - 1 more +1
    entries.  In the n - 1 free coordinates 2..n let y_j = (1 + x_j)/2,
    the indicator of x_j = +1, and y_T the product over T.  With
    e = min(p - 1, k), the columns are y_T for |T| = e and for the
    levels |T| = t < e with t = k mod p, in monomial_basis order: 1470
    columns at (16, 5, 4), where the +-1 columns x_S, |S| < p, number
    1941.  For p = 2 the matrix is one all-ones column.  Each row's
    entries depend on that row alone, so the matrix of a subset of rows
    is those rows of the full one: _slice_rank builds only the rows it
    ranks, and the Sigma check runs on them.

    Same rank, as column spaces over GF(p) of functions on the rows.
    Let d = min(p - 1, n - 1) and level s live when w[s] or w[s+1] is
    nonzero mod p (w[s] = 0 for s >= p).
    1. For S within {2..n}, coefficient_matrix has column w[|S|] x_S at
       y_S and w[|S|+1] x_S at y_{S u {1}}, since x_1 = +1.  With every
       level s <= d live they span exactly span{x_S : |S| <= d}.  A dead
       level would drop its x_S and break steps 2-4, so it raises
       ValueError.  certify_bound meets none: for p > 2n the product is
       -[z = all ones] on the cube (Wilson's theorem; -a = n mod p and
       |sum z| <= n < p/2), so every w[s] = -2^-n mod p, and the ranked
       triples with p <= 2n, all at n <= 16, are scanned in the tests.
    2. p = 2: x_j = 1 mod 2, so every x_S is the all-ones column.
    3. p odd: x_S = prod_{j in S} (2 y_j - 1)
       = sum_{T within S} 2^|T| (-1)^|S - T| y_T, a triangular change of
       basis with diagonal 2^|S|, invertible mod p.  So the span is
       span{y_T : |T| <= d}.
    4. Every row has sum_j y_j = k, and y_T y_j = y_T for j in T, so
       y_T k = (k - |T|) y_T + sum_{j not in T} y_{T u {j}}.  Hence
       sum_{j not in T} y_{T u {j}} = (k - |T|) y_T, and y_T = 0 when
       |T| > k.  Levels above e are therefore zero, and by downward
       induction from e each level t < e lies in the span of the chosen
       columns: in the span of level t + 1 when k - t is nonzero mod p,
       chosen itself when t = k mod p.
    """
    n = X.shape[1]
    k = n // 2 - 1
    w = _reduced_profile_weights(n, p, a)
    dead = [s for s in range(min(p - 1, n - 1) + 1)
            if not (w[s] % p or w[s + 1] % p)]
    if dead:
        raise ValueError("no coefficient column at level %d for (n, p, a) = "
                         "(%d, %d, %d)" % (dead[0], n, p, a))
    Y = (X[:, 1:] > 0).astype(np.int8)
    if not ((np.abs(X) == 1).all() and (X[:, 0] == 1).all()
            and (Y.sum(axis=1) == k).all()):
        raise ValueError("rows must lie in Sigma(%d)" % n)
    if p == 2:
        return np.ones((X.shape[0], 1), dtype=np.int8)
    e = min(p - 1, k)
    levels = [t for t in range(e) if (k - t) % p == 0] + [e]
    basis = monomial_basis(n - 1, e + 1)
    keep = np.isin([mask.bit_count() for mask in basis], levels)
    return _monomial_sign_matrix(Y, basis).T[keep].T


def _slice_rank_bound(n: int, p: int) -> int:
    """C(n-1, e), a bound on the rank of _free_sign_matrix(X, p, a) mod p.

    e = min(p - 1, k), k = n/2 - 1, and 1 for p = 2, whose matrix is one
    column.  For p odd, step 4 of _free_sign_matrix holds over Q too,
    with (k - t) y_T = sum_{j not in T} y_{T u {j}}, and k - t > 0 for
    every chosen level t < e <= k.  So each chosen column below level e
    lies in the Q-span of the C(n-1, e) columns of level e.  The GF(p)
    rank of an integer matrix is at most its rank over Q (every larger
    minor is the integer 0, so 0 mod p), and a row subset's at most the
    full matrix's.
    """
    return 1 if p == 2 else binomial(n - 1, min(p - 1, n // 2 - 1))


def _slice_rank(X: np.ndarray, p: int, a: int, bound: int) -> Tuple[int, int, int]:
    """(GF(p) rank, rows ranked, columns) of _free_sign_matrix(X, p, a),
    whose full rank is at most bound.

    First builds the columns of bound + _SLICE_SPARE evenly spaced rows
    of X only (no randomness) and ranks them: if they reach bound, so
    does the whole matrix, and that is its rank.  _free_sign_matrix works
    row by row, so these are exactly those rows of the full matrix.
    Otherwise, or when the subset would be every row, builds and ranks
    all rows.  bound must hold, as _slice_rank_bound does.
    """
    m = X.shape[0]
    count = bound + _SLICE_SPARE
    if count < m:
        columns = _free_sign_matrix(X[np.arange(count) * m // count], p, a)
        rank = rank_mod_p(columns, p)
        if rank == bound:
            return rank, count, columns.shape[1]
    columns = _free_sign_matrix(X, p, a)
    return rank_mod_p(columns, p), m, columns.shape[1]


def evaluation_matrix(members: np.ndarray, p: int, a: int) -> np.ndarray:
    """M[i, j] = reduced polynomial of row i evaluated at row j, mod p.

    Uses the evaluation identity through the Gram matrix, an independent
    route from the coefficient expansion.  At a dot s the value is
    prod_{i != c} (i - s) mod p, c = excluded_residue(p, a): 0 unless
    s = c mod p, as some factor vanishes, and at s = c the factors run
    over every nonzero residue, so it is (p-1)! = -1 mod p by Wilson's
    theorem.  The Gram is one float32 product, exact since every entry
    is an integer of magnitude at most n < 2**24; shifted by n it indexes
    those values for every dot in [-n, n].  The index and the result take
    the narrowest unsigned dtypes that hold them (uint16 and uint8 for
    certify), so no |F|^2 int64 array is formed.
    """
    X = np.asarray(members, dtype=np.float32)
    n = X.shape[1]
    if n >= _EXACT32:
        raise ValueError("vector length %d too large for an exact float32 Gram" % n)
    dots = np.arange(-n, n + 1)
    values = np.where(dots % p == excluded_residue(p, a), p - 1, 0).astype(
        np.min_scalar_type(p - 1))
    index = np.empty((X.shape[0], X.shape[0]), dtype=np.min_scalar_type(2 * n))
    np.add(X @ X.T, n, out=index, casting="unsafe")
    return values[index]


def property_check_exhaustive(n: int, p: int, a: int) -> int:
    """Number of pairs in Sigma(n)^2 violating the equivalence (0 expected).

    An exact count in integers over Krawtchouk values, at every n; no
    polynomial is built or evaluated.

    Value.  The reduced polynomial of x has coefficient w[|S|] x_S at y_S
    (_reduced_profile_weights, w[s] = 0 for s >= p), so with z = x o y,
    P_x(y) = sum_s w[s] e_s(z), e_s the elementary symmetric polynomial.
    For a +-1 vector z with m entries -1, e_s(z) is the Krawtchouk value
    K_s(m; n) = sum_i (-1)^i C(m, i) C(n-m, s-i), and m = (n - (x, y)) / 2.
    Both sides of the equivalence therefore depend on the pair only
    through m.  K_0 = 1, K_1 = n - 2m, and the three-term recurrence
    (s+1) K_{s+1} = (n-2m) K_s - (n-s+1) K_{s-1} gives the rest mod p:
    s + 1 <= p - 1 is invertible mod p for prime p.

    Attainable m.  A member of Sigma(n) has x_1 = +1 and n/2 entries +1.
    For x, y in Sigma(n) let j be the number of coordinates with x = +1,
    y = -1; since both have n/2 entries +1, as many have x = -1, y = +1,
    so m = 2j.  Coordinate 1 is +1 in both, so 0 <= j <= n/2 - 1, and
    each such j is attained.  So m runs over 0, 2, ..., n - 2.

    Pair counts.  For fixed x, a y at m = 2j turns j of the n/2 - 1 entries
    +1 of x past coordinate 1 to -1 and j of its n/2 entries -1 to +1:
    C(n/2 - 1, j) C(n/2, j) choices, the same for every x.  By Vandermonde
    they sum to C(n-1, n/2-1) = |Sigma(n)|.  The violating pairs number
    |Sigma(n)| times the sum of these counts over the j where
    (n - 4j + a) = 0 mod p and P_x(y) != 0 mod p disagree.
    """
    if n % 4 != 0 or n <= 0:
        raise ValueError("vector length must be a positive multiple of 4")
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    w = _reduced_profile_weights(n, p, a)
    top = min(p - 1, n)
    inverse = [0] + [pow(s, -1, p) for s in range(1, top + 1)]
    half = n // 2
    bad = 0
    for j in range(half):
        dot = n - 4 * j
        k_prev, k, value = 0, 1, w[0]
        for s in range(top):
            k_prev, k = k, (dot * k - (n - s + 1) * k_prev) * inverse[s + 1] % p
            value += w[s + 1] * k
        if ((dot + a) % p == 0) != (value % p != 0):
            bad += binomial(half - 1, j) * binomial(half, j)
    return binomial(n - 1, half - 1) * bad


# ---------------------------------------------------------------------------
# avoiding families, independence certificates, rank


def greedy_avoiding_family(
    rows: np.ndarray,
    forbidden: int,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Greedy maximal family: scan rows, accept whatever stays legal.

    Returns the chosen rows in their order in rows.  seed None scans in
    row order; an integer seed scans a reproducible random permutation.
    A row is accepted iff no earlier accepted row has inner product
    forbidden with it.  The scan keeps only the live rows, those not
    yet passed or struck, in scan order, and takes the first _SCAN_BLOCK
    of them as candidates: their Gram marks the conflicts among them, a
    walk in scan order accepts each candidate that no acceptance before
    it in the block has struck, and one product of the accepted rows
    with the remaining live rows strikes those at forbidden.  The
    survivors are the next live rows.  Each candidate is live, so no
    earlier block struck it, and the walk settles it against its own
    block: the families are those of a row-by-row scan.  No pair matrix
    of all rows is formed, and struck rows are never multiplied again.
    The products are float32, exact since every product of two +-1 rows
    is an integer of magnitude at most n < 2**24.  Past n in magnitude
    no pair attains forbidden, and every row is returned with no scan.
    Pass a slice of Sigma(n), such as a sampled pool, to restrict the
    scan.
    """
    if abs(forbidden) > rows.shape[1]:
        return rows.copy()
    order = np.arange(rows.shape[0])
    if seed is not None:
        order = np.random.default_rng(seed).permutation(rows.shape[0])
    # np.take and np.compress gather rows several times faster than indexing
    live = np.take(rows, order, axis=0).astype(np.float32)
    chosen: List[int] = []
    while order.size:
        block = live[:_SCAN_BLOCK]
        # bit j of masks[i]: candidates i and j conflict
        masks = np.dot(np.dot(block, block.T) == forbidden, _BLOCK_BITS[:len(block)])
        take: List[int] = []
        struck = 0
        for i, mask in enumerate(masks.tolist()):
            if not struck >> i & 1:
                take.append(i)
                struck |= mask
        chosen.extend(order[take].tolist())
        live, order = live[_SCAN_BLOCK:], order[_SCAN_BLOCK:]
        keep = ~(np.dot(block[take], live.T) == forbidden).any(axis=0)
        live, order = np.compress(keep, live, axis=0), order[keep]
    chosen.sort()
    return np.take(rows, chosen, axis=0)


def independence_verify(members: np.ndarray, p: int, a: int) -> bool:
    """Certify linear independence through the evaluation matrix.

    members are +-1 rows.  Diagonal entries must be nonzero (each vector
    satisfies its own congruence, as n = -a mod p by construction) and
    off-diagonal entries zero (no other pair dot is congruent to -a, so
    in particular no pair attains -a).  Rank then equals the family size.
    Returns False on any violation rather than raising.
    """
    if members.shape[1] - 4 * p != -a:
        raise ValueError("construction relation violated: n - 4p != -a")
    M = evaluation_matrix(members, p, a)
    return bool(np.diag(M).all() and np.count_nonzero(M) == M.shape[0])


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p), for integer-valued float x with |x| <= 2**b - p.

    b is the significand width: 24 for float32, 53 for float64.  Exact
    there: |x / p| < 2**b / p, where the float spacing is below 2/p, so
    rounding moves x / p by less than 1/p and never past an integer;
    floor then gives the true quotient, and p times it stays within
    2**b.  (np.fmod is exact too, but several times slower on large
    entries.)
    """
    return x - p * np.floor(x / p)


def _gauss_jordan(A: np.ndarray, p: int, width: int) -> Tuple[List[int], List[int]]:
    """Reduce float A, entries in [0, p), mod p in place on its first
    width columns.

    Each pivot row is made monic and cleared from every other row, so the
    pivot rows end in reduced row-echelon form.  Returns (rows, cols) of
    the pivots in the order found.  Only column j and the pivot row are
    reduced before pivot j; its rank-1 update then moves every other
    entry by at most (p-1)**2, and the whole of A is reduced only when
    that tracked bound would pass 2**b - p, b = 24 for float32 A and 53
    for float64, and once at the end.  The update skips the columns
    before j, where the pivot row is exactly 0.

    Exact in both types: every entry is an integer float of magnitude at
    most 2**b - p, which _mod reduces exactly; the monic scaling of a
    reduced row stays below (p-1)**2, within that limit whenever one
    pivot fits, p - 1 + (p-1)**2 <= 2**b - p.  For a sample of at most
    _PANEL columns with (p-1)**2 _PANEL + 2p < 2**24, as rank_mod_p
    gives float32 panels, the bound never reaches the limit, so float32
    A is reduced only at the end.  Each entry stays congruent to its
    value in an elimination reduced at every step, and a pivot is chosen
    from the reduced column, so the pivots and the final, fully reduced
    array are the ones that elimination gives.
    """
    limit = (_EXACT32 if A.dtype == np.float32 else _EXACT64) - p
    step = (p - 1) ** 2
    bound = p - 1  # on |entries| of A
    rows: List[int] = []
    cols: List[int] = []
    free = np.ones(A.shape[0], dtype=bool)
    for j in range(width):
        col = A[:, j] = _mod(A[:, j], p)
        cand = np.flatnonzero(col.astype(bool) & free)
        if cand.size == 0:
            continue
        i = int(cand[0])
        # a free row is exactly 0 on the columns before j
        A[i, j:] = _mod(_mod(A[i, j:], p) * pow(int(col[i]), -1, p), p)
        if bound + step > limit:
            A[...] = _mod(A, p)
            bound = p - 1
        col[i] = 0
        A[:, j:] -= col[:, None] * A[i, j:]
        bound += step
        free[i] = False
        rows.append(i)
        cols.append(j)
    A[...] = _mod(A, p)
    return rows, cols


def _panel_pivots(P: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivots of a reduced panel P: rows whose span is P's row space.

    Gauss-Jordan runs on an evenly spaced sample of about _PANEL_SAMPLE
    rows, in P's dtype, augmented with the identity so that it also
    yields minv, the inverse of the pivot block P[rows][:, cols].  Every
    row of P is then reduced against the sample's pivots; rows left
    nonzero join the sample's pivot rows and the search repeats, each
    round adding at least one pivot.  A sample row lies in the span of
    the sample's pivot rows, so it is never left nonzero, and the two
    sets joined are disjoint.

    Exact: P has entries in [0, p) and at most k <= _PANEL columns, so
    the residues checked stay below p - 1 + k (p-1)^2, and _gauss_jordan
    is exact in float32 and float64 alike.  rank_mod_p picks float32
    only when (p-1)^2 _PANEL + 2p < 2**24, which keeps both that residue
    and _gauss_jordan's tracked bound within 2**24 - p, and float64 only
    when one pivot fits within 2**53 - p, which _gauss_jordan needs.
    """
    m, k = P.shape
    sample = np.arange(0, m, max(1, m // _PANEL_SAMPLE))
    while True:
        s = sample.size
        A = np.zeros((s, k + s), dtype=P.dtype)
        A[:, :k] = P[sample]
        np.fill_diagonal(A[:, k:], 1)
        rows, cols = _gauss_jordan(A, p, k)
        left = P - P[:, cols] @ A[rows, :k]
        live = np.flatnonzero(_mod(left, p).any(axis=1))
        if live.size == 0:
            minv = A[np.ix_(rows, [k + i for i in rows])]
            return sample[rows], np.array(cols, dtype=np.intp), minv
        sample = np.sort(np.concatenate([sample[rows], live[:_PANEL_SAMPLE]]))


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) by blocked right-looking elimination.

    Works on a float copy oriented to have at least as many rows as
    columns, _PANEL columns at a time (Dumas, Giorgi, Pernet, ACM TOMS
    2008).  The panel's pivot rows are found by a small Gauss-Jordan on
    a sample of its rows, with the same delayed reduction and in the
    same float type; their reduced row-echelon form then clears the
    panel from every other row, and the trailing columns take the same
    step as one matmul, T -= X @ U.  U is formed from the pivot rows
    where they lie; then the rows among the top k that are not pivots
    move into the places of the k pivot rows below them, one copy per
    panel, and the rows left form one block.

    The copy is float32 when a full panel's growth fits in it,
    (p-1)^2 _PANEL + 2p < 2**24 (p <= 719), and float64 otherwise.
    Every intermediate is an integer of magnitude at most the limit
    2**24 - p, or 2**53 - p, so the float type holds it exactly and _mod
    reduces it exactly: the panel and the pivot rows are reduced mod p
    before use, and the trailing block only when its tracked bound,
    grown by k (p-1)^2 per panel of k pivots, would pass the limit.
    That bound starts at the largest magnitude of A's integer type when
    it lies within the limit, and the copy takes A's entries as they are
    (int8 at certify); otherwise at p - 1, and the copy is A mod p, by
    fmod in A's own type, which holds p as it holds more than the limit.
    p must be prime with (p-1)^2 + p < 2**53; the largest such prime,
    94906249, still has p - 1 + (p-1)^2 below 2**53 - p by 3 * 10**9,
    so one pivot per panel always fits, and in _gauss_jordan one pivot
    between full reductions (_panel_pivots gives the sample's argument).
    """
    p = operator.index(p)
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    step = (p - 1) ** 2
    if step * _PANEL + 2 * p < _EXACT32:
        dtype, limit = np.float32, _EXACT32 - p
    elif step + p < _EXACT64:
        dtype, limit = np.float64, _EXACT64 - p
    else:
        raise ValueError("p = %d too large for exact float64 elimination" % p)
    A = np.asarray(matrix)
    if A.dtype.kind not in "iu":
        A = A.astype(np.int64)
    if A.shape[0] < A.shape[1]:
        A = A.T
    m, n = A.shape
    info = np.iinfo(A.dtype)
    bound = max(-info.min, info.max)  # on |entries| of the trailing block
    if bound > limit:
        A, bound = np.fmod(A, A.dtype.type(p)), p - 1
    W = np.ascontiguousarray(A, dtype=dtype)
    width = min(_PANEL, (limit - (p - 1)) // step)
    r = 0
    for c0 in range(0, n, width):
        if r == m:
            break
        c1 = min(n, c0 + width)
        P = _mod(W[r:, c0:c1], p)
        rows, cols, minv = _panel_pivots(P, p)
        kp = rows.size
        if kp == 0:
            continue
        U = _mod(minv @ _mod(W[r + rows, c1:], p), p)
        # the top's other rows take the pivot rows' places below it
        top = np.ones(kp, dtype=bool)
        top[rows[rows < kp]] = False
        into, out = np.flatnonzero(top), rows[rows >= kp]
        W[r + out, c1:] = W[r + into, c1:]
        P[out] = P[into]
        X = P[kp:, cols]
        T = W[r + kp:, c1:]
        reduce = bound + kp * step > limit
        bound = (p - 1 if reduce else bound) + kp * step
        for lo in range(0, T.shape[0], _ROW_CHUNK):
            block = T[lo:lo + _ROW_CHUNK]
            if reduce:
                block[...] = _mod(block, p)
            block -= X[lo:lo + _ROW_CHUNK] @ U
        r += kp
    return r


# ---------------------------------------------------------------------------
# exact maximum avoiding family, in closed form


def max_avoiding_exact(n: int, forbidden: int) -> Optional[int]:
    """Largest family in Sigma(n) with no pair at inner product forbidden.

    A closed form, with no search; None where none is known.  A row x of
    Sigma(n) has x_1 = +1 and k = n/2 - 1 more entries +1; let A and B
    be those coordinates of x and y, k-subsets of {2..n}.  x and y differ
    exactly on the symmetric difference of A and B, of size
    2k - 2|A n B|, so

        (x, y) = n - 4j  with  |A n B| = k - j.

    j = 0 only for x = y, and every j in 1..k occurs (|A u B| = k + j is
    at most n - 1).  So a pair x != y attains forbidden iff
    forbidden = n - 4j for some 1 <= j <= k, and then exactly when
    |A n B| = t, t = k - j.
    - No such j: no pair conflicts, and all C(n-1, k) rows avoid it.
    - t = 0: a family avoids forbidden iff its sets pairwise meet, an
      intersecting family of k-subsets of n - 1 >= 2k points.  Its
      maximum size is C(n-2, k-1), a star (Erdos, Ko & Rado, Quart. J.
      Math. 12, 1961).
    - 0 < t < k: None.
    certify's triples at n <= 12 (prime p, a = 4p - n >= 4, so
    p >= n/2 - 1) all fall in the first two cases.  The tests check the
    values against a branch and bound on Sigma(n).
    """
    if n % 4 != 0 or n <= 0:
        raise ValueError("vector length must be a positive multiple of 4")
    k = n // 2 - 1
    j, rest = divmod(n - forbidden, 4)
    if rest or not 1 <= j <= k:
        return binomial(n - 1, k)
    if j == k:
        return binomial(n - 2, k - 1)
    return None


# ---------------------------------------------------------------------------
# the certified bound


@dataclass(frozen=True)
class LemmaCertificate:
    """Everything checkable about the independence bound at one (n, p, a)."""

    n: int
    p: int
    a: int
    bound: int                 # sum_{i<p} C(n, i)
    sigma_size: int            # C(n-1, n/2-1)
    excluded_residue: int      # -a mod p; 0 is a legal but notable edge
    mis_exact: Optional[int]   # exact max avoiding family, closed form only
    rank: Optional[int]        # rank of the full polynomial family
    rank_columns: Optional[int]  # columns the rank ran on, free coordinates
    rank_rows: Optional[int]   # rows the deciding rank ran on
    rank_full_family: bool     # rank is that of all of Sigma; a row subset
                               # certifies it by reaching the slice bound
    family_sizes: Tuple[int, ...]
    vacuous: bool              # bound at or above |Sigma|: nothing to prune
    property_violations: int   # pairs breaking congruence iff nonzero value
    verdict: bool


def _family_pool(sigma_size: int, seed: Optional[int]) -> np.ndarray:
    """Sorted uniform sample of _FAMILY_POOL row indices for one family.

    seed None draws from _FIRST_POOL_SEED, not enumeration order: rows
    0..4095 of Sigma(20) all avoid -8, so that pool would itself be the
    family rather than a greedy-maximal one cut short by conflicts.
    """
    rng = np.random.default_rng(_FIRST_POOL_SEED if seed is None else seed)
    return np.sort(rng.choice(sigma_size, _FAMILY_POOL, replace=False))


def certify_bound(
    n: int,
    p: int,
    a: int,
    seeds: int = 20,
) -> LemmaCertificate:
    """Assemble the desk-scale certificate for the independence bound.

    Greedy avoiding families (one per seed, plus the enumeration order)
    must all pass the evaluation-matrix certificate and stay at or below
    the dimension bound, and the exact property count must find no pair
    where the congruence and the polynomial's value disagree; the exact
    maximum (max_avoiding_exact, where it has a closed form) and the
    full-family rank join in whenever feasible.  The offset a must be at
    least 4, as in the planner, which takes a as a positive multiple of 4.

    Past ENUMERATION_CAP, as at the planner's own sizes, Sigma(n) is not
    enumerated: the families, the exact maximum and the rank are skipped
    (family_sizes empty, mis_exact and the rank fields None), and the
    verdict rests on the exact property count alone.
    """
    if n - 4 * p != -a:
        raise ValueError("construction relation violated: n - 4p != -a")
    if a < 4:
        raise ValueError("offset a = %d below 4" % a)
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if seeds < 1:
        raise ValueError("seeds must be at least 1, got %d" % seeds)
    bound = dimension_bound(n, p)
    sigma_size = binomial(n - 1, n // 2 - 1)
    forbidden = -a

    sizes: List[int] = []
    all_verified = True
    mis: Optional[int] = None
    rank = rank_columns = rank_rows = slice_bound = None
    if n <= ENUMERATION_CAP:
        X = sigma_matrix(n)
        for seed in [None] + list(range(seeds - 1)):
            # past the cap, a sampled candidate pool; any greedy-maximal
            # family inside it is still a genuine avoiding family, which
            # is all the certificate needs
            rows = X
            if sigma_size > _FULL_SCAN_CAP:
                rows = X[_family_pool(sigma_size, seed)]
            fam = greedy_avoiding_family(rows, forbidden, seed=seed)
            sizes.append(len(fam))
            if not independence_verify(fam, p, a):
                all_verified = False
        mis = max_avoiding_exact(n, forbidden)

        if sigma_size <= _RANK_ROWS_CAP and bound <= _RANK_COLS_CAP:
            slice_bound = _slice_rank_bound(n, p)
            rank, rank_rows, rank_columns = _slice_rank(X, p, a, slice_bound)

    violations = property_check_exhaustive(n, p, a)
    checks = [
        violations == 0,
        all_verified,
        max(sizes, default=0) <= bound,
        mis is None or mis <= bound,
        mis is None or max(sizes) <= mis,
        rank is None or rank <= bound,
        slice_bound is None or rank == slice_bound,
    ]
    return LemmaCertificate(
        n=n,
        p=p,
        a=a,
        bound=bound,
        sigma_size=sigma_size,
        excluded_residue=excluded_residue(p, a),
        mis_exact=mis,
        rank=rank,
        rank_columns=rank_columns,
        rank_rows=rank_rows,
        rank_full_family=rank is not None,
        family_sizes=tuple(sizes),
        vacuous=bound >= sigma_size,
        property_violations=violations,
        verdict=all(checks),
    )
