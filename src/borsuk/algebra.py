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
module certifies independence through the evaluation matrix (the tests
add the coefficient rank) and cross-checks the bound against the exact
maximum avoiding family, in closed form by the Erdos-Ko-Rado theorem
where one is known (max_avoiding_exact).  The rank of the whole family, all of
Sigma(n), is a closed form (_sigma_rank, whose docstring proves it):
every row has x_1 = +1, so the coefficient columns of y_S and
y_{S u {1}} are multiples of the +-1 column x_S in the n - 1 free
coordinates 2..n, where Sigma(n) is the slice of k-subsets,
k = n/2 - 1, and those columns span the functions of degree at most
e = min(p - 1, k) on it, a space of dimension C(n - 1, e) over every
field (Frankl, JCTA 54, 1990; Wilson, Europ. J. Combin. 11, 1990).
certify runs no elimination; rank_mod_p, a blocked elimination over
GF(p), is the tests' oracle for that value (1373 x 1470 0/1 rows and
43 panels at n = 16).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Set, Tuple

import numpy as np

from .exactnum import binomial, binomial_tail_sum, is_prime
from .construction import ENUMERATION_CAP, sigma_matrix

# certify reports the full-family rank only where the dimension bound is
# within this cap, which holds n <= 16 (at n >= 20, a >= 4 asks p >= 7 and
# the bound is past 60,000).  _sigma_rank needs no cap, but the benchmark's
# desk-checks pin (12, 11, 32), whose dimension bound 4083 passes the cap,
# at rank null: a rank there would fail that check.
_RANK_COLS_CAP = 4000

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
# the unseeded family's pool key, apart from the seeds 0, 1, ... of the
# rest; its scan inside the pool is still in row order
_FIRST_POOL_SEED = 2 ** 32 - 1

# SplitMix64's Weyl increment and finalizer multipliers (Steele, Lea and
# Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _hashed_counters(seed: int, count: int) -> np.ndarray:
    """Keys of the counters 0 .. count - 1 in the stream of seed, uint64.

    Counter c has key mix(seed + (c + 1) * _GOLDEN) mod 2**64, the
    output c of SplitMix64 seeded with seed.  _GOLDEN is odd, and the
    finalizer mix is a bijection of 2**64 (each xor-shift and each
    multiplication by an odd constant is invertible), so distinct
    counters below 2**64 have distinct keys.  The keys stand in for
    numpy's random generators, whose import cost a fresh certify more
    than all of its orders did.
    """
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must lie in [0, 2**64), got %d" % seed)
    z = np.uint64(seed) + np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _scan_order(size: int, seed: Optional[int]) -> np.ndarray:
    """Row order for seed None, else the argsort of seed's keys (no ties)."""
    if seed is None:
        return np.arange(size)
    return np.argsort(_hashed_counters(seed, size))


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


def _sigma_rank(n: int, p: int, a: int) -> int:
    """GF(p) rank of coefficient_matrix(sigma_matrix(n), p, a), in closed form.

    C(n-1, e) with k = n/2 - 1 and e = min(p - 1, k), and 1 for p = 2.
    Ranks here are dimensions of column spaces over GF(p), of functions
    on the rows of Sigma(n): x_1 = +1 and k more +1 entries.  In the
    n - 1 free coordinates 2..n let y_j = (1 + x_j)/2, the indicator of
    x_j = +1, and y_T the product over T; there Sigma(n) is the slice of
    k-subsets of N = n - 1 points.  Write V_e(N, k) for the span of the
    y_T with |T| <= e on that slice.  Let d = min(p - 1, n - 1) and
    level s live when w[s] or w[s+1] is nonzero mod p (w from
    _reduced_profile_weights, w[s] = 0 for s >= p).
    1. For S within {2..n}, the matrix has column w[|S|] x_S at y_S and
       w[|S|+1] x_S at y_{S u {1}}, since x_1 = +1.  With every level
       s <= d live they span exactly span{x_S : |S| <= d}.  A dead level
       would drop its x_S and break the steps below, so it raises
       ValueError.  certify_bound meets none: for p > 2n the product is
       -[z = all ones] on the cube (Wilson's theorem; -a = n mod p and
       |sum z| <= n < p/2), so every w[s] = -2^-n mod p, and the ranked
       triples with p <= 2n, all at n <= 16, are scanned in the tests.
    2. p = 2: x_j = 1 mod 2, so every x_S is the all-ones column, and the
       rank is 1.
    3. p odd: x_S = prod_{j in S} (2 y_j - 1)
       = sum_{T within S} 2^|T| (-1)^|S - T| y_T, a triangular change of
       basis with diagonal 2^|S|, invertible mod p.  So the span is that
       of the y_T with |T| <= d.
    4. Every row has sum_j y_j = k, and y_T y_j = y_T for j in T, so
       sum_{j not in T} y_{T u {j}} = (k - |T|) y_T, and y_T = 0 when
       |T| > k.  Levels above e are therefore zero (e < d only when
       e = k), and the span is V_e(N, k).
    5. At most C(N, e): over Q, k - t > 0 for t < e <= k, so step 4's
       identity puts each level t < e in the span of level t + 1, and
       the C(N, e) columns y_T of level e span V_e(N, k) over Q.  The
       GF(p) rank of an integer matrix is at most its rank over Q
       (every larger minor is the integer 0, so 0 mod p).
    6. At least C(N, e) over any field, whenever e <= k <= N - e (here
       N = 2k + 1), by induction on N.  e = 0: the constant 1, nonzero
       on a nonempty slice.  k = e: the y_T with |T| = k are the
       indicators of the points, all C(N, k) of them.  k = N - e: with
       y'_j = 1 - y_j, the indicators of the complement, y_T is a
       polynomial of degree |T| in the y'_j and back, so V_e(N, k) is
       V_e(N, N - k), the case k = e, read on complements.  Otherwise
       e >= 1 and e < k < N - e.  Restricted to the k-sets without
       point N, V_e(N, k) maps onto V_e(N - 1, k): y_T with N in T
       restricts to 0, every other y_T to itself.  The kernel holds
       y_N g for every g in V_{e-1}(N - 1, k - 1), which reads g on the
       sets K u {N}, K a (k-1)-subset of the other N - 1 points, so it
       holds a copy of that space.  Both triples meet the hypothesis,
       so the dimension is at least C(N-1, e) + C(N-1, e-1) = C(N, e).
    Steps 5 and 6 are the known dimension of the slice's functions of
    degree <= e (Frankl, JCTA 54, 1990, and Wilson's diagonal form,
    Europ. J. Combin. 11, 1990, give the GF(p) ranks of the single
    inclusion matrices).  The tests check the value against an
    elimination at every triple certify_bound ranks.
    """
    w = _reduced_profile_weights(n, p, a)
    dead = [s for s in range(min(p - 1, n - 1) + 1)
            if not (w[s] % p or w[s + 1] % p)]
    if dead:
        raise ValueError("no coefficient column at level %d for (n, p, a) = "
                         "(%d, %d, %d)" % (dead[0], n, p, a))
    return 1 if p == 2 else binomial(n - 1, min(p - 1, n // 2 - 1))


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
    row order; an integer seed scans the reproducible permutation of
    _scan_order, hashed from the seed by _hashed_counters.
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
    order = _scan_order(rows.shape[0], seed)
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
    rank: Optional[int]        # GF(p) rank of the full polynomial family
    rank_full_family: bool     # rank is that of all of Sigma
    family_sizes: Tuple[int, ...]
    vacuous: bool              # bound at or above |Sigma|: nothing to prune
    property_violations: int   # pairs breaking congruence iff nonzero value
    verdict: bool


def _family_pool(sigma_size: int, seed: Optional[int]) -> np.ndarray:
    """Sorted sample of _FAMILY_POOL distinct row indices for one family.

    The indices are the first _FAMILY_POOL distinct values, in counter
    order, of the keys of seed's counters 0, 1, ... (_hashed_counters, a
    keyed hash, not a random generator) reduced mod sigma_size; counters
    are drawn until that many are distinct, so the work is O(pool), never
    O(sigma_size).  seed None takes the key _FIRST_POOL_SEED, not
    enumeration order: rows 0..4095 of Sigma(20) all avoid -8, so that
    pool would itself be the family rather than a greedy-maximal one cut
    short by conflicts.
    """
    key = _FIRST_POOL_SEED if seed is None else seed
    pool: Set[int] = set()
    drawn = 0
    while len(pool) < _FAMILY_POOL:
        # as many fresh counters as values missing: none can overshoot
        fresh = _hashed_counters(key, drawn + _FAMILY_POOL - len(pool))[drawn:]
        pool.update((fresh % np.uint64(sigma_size)).tolist())
        drawn += fresh.size
    return np.array(sorted(pool))


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
    full-family rank (_sigma_rank, in closed form, within the rank cap)
    join in.  The offset a must be at least 4, as in the planner, which
    takes a as a positive multiple of 4.

    Past ENUMERATION_CAP, as at the planner's own sizes, Sigma(n) is not
    enumerated: the families, the exact maximum and the rank are skipped
    (family_sizes empty, mis_exact and rank None), and the verdict rests
    on the exact property count alone.
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
    rank: Optional[int] = None
    if n <= ENUMERATION_CAP:
        X = sigma_matrix(n)
        scans = [None] + list(range(seeds - 1))
        # past n in magnitude no pair attains forbidden, and every scan of
        # all of Sigma(n) returns it whole: one family stands for them all
        whole = abs(forbidden) > n and sigma_size <= _FULL_SCAN_CAP
        for seed in scans[:1] if whole else scans:
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
        if whole:
            sizes *= seeds
        mis = max_avoiding_exact(n, forbidden)

        if bound <= _RANK_COLS_CAP:
            rank = _sigma_rank(n, p, a)

    violations = property_check_exhaustive(n, p, a)
    checks = [
        violations == 0,
        all_verified,
        max(sizes, default=0) <= bound,
        mis is None or mis <= bound,
        mis is None or max(sizes) <= mis,
        rank is None or rank <= bound,
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
        rank_full_family=rank is not None,
        family_sizes=tuple(sizes),
        vacuous=bound >= sigma_size,
        property_violations=violations,
        verdict=all(checks),
    )
