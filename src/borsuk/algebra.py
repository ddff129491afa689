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
evaluation matrix) and cross-checks the bound against exact maximum
independent set search at desk scale.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactnum import binomial, binomial_tail_sum, is_prime
from .construction import sigma_matrix

# Full-family rank elimination is O(rows * cols * rank); these caps keep it
# to a few seconds (n=16, 6435 x 2517, takes about one).  Above them the
# sampled-family certificates carry the evidence instead.
_RANK_ROWS_CAP = 8000
_RANK_COLS_CAP = 4000

# float32 and float64 hold every integer of magnitude up to these
_EXACT32 = 2 ** 24
_EXACT64 = 2 ** 53

# rank_mod_p: columns per panel and rows sampled for a panel's pivots;
# rows per matmul in its trailing update, in sigma_gram and in
# _conflict_matrix, which bounds their temporaries
_PANEL = 96
_PANEL_SAMPLE = 128
_ROW_CHUNK = 1024

_EXACT_MIS_CAP = 12

# full |Sigma|^2 pair matrices up to this size; past it families are
# built inside seeded candidate pools of _FAMILY_POOL rows
_CONFLICT_CAP = 20000
_FAMILY_POOL = 4096


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


def residue_excluded_dots(n: int, p: int) -> Tuple[int, ...]:
    """Dot values in (-n, n) congruent to -a mod p besides -a itself.

    With n - 4p = -a these are n - jp for j in {1,2,3,5,6,7}; none is a
    multiple of 4 when p is odd, so no pair of sign vectors attains them.
    """
    return tuple(n - j * p for j in (1, 2, 3, 5, 6, 7))


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
    """signs[i, j] = value of basis monomial j on +-1 row i.

    Fills columns size by size, reusing the column for the monomial with
    the lowest variable removed; basis order guarantees it exists.  The
    columns are built as contiguous rows of the transpose, which is
    returned as a (Fortran-ordered) view.
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


def residue_value_table(p: int, a: int) -> np.ndarray:
    """q[s] = prod_{i != -a mod p} (i - s) mod p for s in 0..p-1.

    Nonzero only at s = -a mod p: the product runs over all residues but
    one, so any other s annihilates some factor.
    """
    skip = excluded_residue(p, a)
    out = np.empty(p, dtype=np.int64)
    for s in range(p):
        v = 1
        for i in range(p):
            if i != skip:
                v = v * (i - s) % p
        out[s] = v
    return out


def evaluation_matrix(members: np.ndarray, p: int, a: int) -> np.ndarray:
    """M[i, j] = reduced polynomial of row i evaluated at row j, mod p.

    Uses the evaluation identity through the Gram matrix, an independent
    route from the coefficient expansion.
    """
    X = np.asarray(members, dtype=np.int64)
    table = residue_value_table(p, a)
    G = X @ X.T
    return table[G % p]


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


def _greedy_indices(conflict: np.ndarray, order: np.ndarray) -> List[int]:
    allowed = np.ones(conflict.shape[0], dtype=bool)
    chosen: List[int] = []
    for idx in order:
        if allowed[idx]:
            chosen.append(int(idx))
            allowed &= ~conflict[idx]
    chosen.sort()
    return chosen


def _conflict_matrix(X: np.ndarray, forbidden: int) -> np.ndarray:
    """Bool matrix of (x, y) == forbidden over all pairs of rows of X.

    Each _ROW_CHUNK rows take one float32 product, compared straight into
    the result, so no full-size integer or float matrix exists; exact
    since every entry is an integer of magnitude at most n < 2**24.
    """
    Xf = X.astype(np.float32)
    out = np.empty((X.shape[0], X.shape[0]), dtype=bool)
    for lo in range(0, X.shape[0], _ROW_CHUNK):
        np.equal(Xf[lo:lo + _ROW_CHUNK] @ Xf.T, forbidden,
                 out=out[lo:lo + _ROW_CHUNK])
    return out


def greedy_avoiding_family(
    rows: np.ndarray,
    forbidden: int,
    seed: Optional[int] = None,
    conflict: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy maximal family: scan rows, accept whatever stays legal.

    Returns the chosen rows in their order in rows.  seed None scans in
    row order; an integer seed scans a reproducible random permutation.
    conflict caches _conflict_matrix(rows, forbidden) across repeated
    calls.  Pass a slice of Sigma(n), such as a sampled pool, to restrict
    the scan where the full pair matrix stops fitting in memory.
    """
    if conflict is None:
        conflict = _conflict_matrix(rows, forbidden)
    order = np.arange(rows.shape[0])
    if seed is not None:
        order = np.random.default_rng(seed).permutation(rows.shape[0])
    return rows[_greedy_indices(conflict, order)]


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
    off = M.copy()
    np.fill_diagonal(off, 0)
    return bool((np.diag(M) != 0).all() and not off.any())


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
    """Reduce int64 A mod p in place on its first width columns.

    Each pivot row is made monic and cleared from every other row, so the
    pivot rows end in reduced row-echelon form.  Returns (rows, cols) of
    the pivots in the order found.
    """
    rows: List[int] = []
    cols: List[int] = []
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


def _panel_pivots(P: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivots of a reduced panel P: rows whose span is P's row space.

    Gauss-Jordan runs on an evenly spaced sample of rows, augmented with
    the identity so that it also yields minv, the inverse of the pivot
    block P[rows][:, cols].  Every row of P is then reduced against the
    sample's pivots; rows left nonzero join the sample and the search
    repeats, each round adding at least one pivot.  The residues checked
    stay below p - 1 + k (p-1)^2 for a panel of k columns, within _mod's
    range since k is at most rank_mod_p's panel width.
    """
    m, k = P.shape
    sample = np.arange(0, m, max(1, m // _PANEL_SAMPLE))
    while True:
        s = sample.size
        A = np.zeros((s, k + s), dtype=np.int64)
        A[:, :k] = P[sample]
        A[:, k:] = np.eye(s, dtype=np.int64)
        rows, cols = _gauss_jordan(A, p, k)
        left = P - P[:, cols] @ A[rows, :k].astype(P.dtype)
        live = np.flatnonzero(_mod(left, p).any(axis=1))
        if live.size == 0:
            minv = A[np.ix_(rows, [k + i for i in rows])]
            return sample[rows], np.array(cols, dtype=np.intp), minv
        sample = np.union1d(sample[rows], live[:_PANEL_SAMPLE])


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) by blocked right-looking elimination.

    Works on a float copy oriented to have at least as many rows as
    columns, _PANEL columns at a time (Dumas, Giorgi, Pernet, ACM TOMS
    2008).  The panel's pivot rows are found by a small int64
    elimination and swapped to the top; their reduced row-echelon form
    then clears the panel from every other row, and the trailing columns
    take the same step as one matmul, T -= X @ U.

    The copy is float32 when a full panel's growth fits in it,
    (p-1)^2 _PANEL + 2p < 2**24 (p <= 419), and float64 otherwise.
    Every intermediate is an integer of magnitude at most the limit
    2**24 - p, or 2**53 - p, so the float type holds it exactly and _mod
    reduces it exactly: the panel and the pivot rows are reduced mod p
    before use, and the trailing block only when its tracked bound,
    grown by k (p-1)^2 per panel of k pivots, would pass the limit.
    p must be prime with (p-1)^2 + p < 2**53; the largest such prime,
    94906249, still has p - 1 + (p-1)^2 below 2**53 - p by 3 * 10**9,
    so one pivot per panel always fits.
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
    W = np.empty((m, n), dtype=dtype)
    np.fmod(A, np.int64(p), out=W)
    width = min(_PANEL, (limit - (p - 1)) // step)
    bound = p - 1  # on |entries| of the active rows past the last panel
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
        order = np.argsort(rows)
        rows, cols, minv = rows[order], cols[order], minv[np.ix_(order, order)]
        # sorted, each pivot row still sits at its index when its turn comes
        for t, i in enumerate(rows.tolist()):
            if i != t:
                W[[r + t, r + i], c1:] = W[[r + i, r + t], c1:]
                P[[t, i]] = P[[i, t]]
        if c1 < n and r + kp < m:
            U = _mod(minv.astype(dtype) @ _mod(W[r:r + kp, c1:], p), p)
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
# exact maximum avoiding family at desk scale


def max_avoiding_exact(rows: np.ndarray, forbidden: int) -> int:
    """Exact maximum size of an avoiding family among rows, by branch and bound.

    The conflict graph on the rows (all of Sigma(n) for the lemma) has an
    edge where a pair attains the forbidden inner product; the answer is
    its maximum independent set.
    """
    n = rows.shape[1]
    if n > _EXACT_MIS_CAP:
        raise ValueError("exact search infeasible: n=%d > %d" % (n, _EXACT_MIS_CAP))
    conflict = _conflict_matrix(rows, forbidden)
    np.fill_diagonal(conflict, False)
    if not conflict.any():
        return rows.shape[0]
    adj = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in conflict]
    return _mis_bitset(adj, conflict, rows)


def _greedy_independent(adj: List[int], order: Sequence[int]) -> int:
    blocked = 0
    count = 0
    for v in order:
        v = int(v)
        b = 1 << v
        if not blocked & b:
            blocked |= b | adj[v]
            count += 1
    return count


def _greedy_matching(adj: List[int], alive: int) -> int:
    m = 0
    temp = alive
    while temp:
        vbit = temp & -temp
        temp ^= vbit
        nb = adj[(vbit.bit_length() - 1)] & temp
        if nb:
            temp ^= nb & -nb
            m += 1
    return m


def _mis_bitset(adj: List[int], conflict: np.ndarray, X: np.ndarray) -> int:
    nv = len(adj)
    adjf = conflict.astype(np.float64)

    # Incumbents: enumeration order, static degree order, pivot-first
    # orders (vectors sharing a fixed +1 coordinate first; the extremal
    # families of intersection type look like this), then seeded shuffles.
    orders: List[Sequence[int]] = [range(nv)]
    deg = conflict.sum(axis=1)
    orders.append(np.argsort(deg, kind="stable"))
    for j in range(1, X.shape[1]):
        orders.append(np.argsort(X[:, j] != 1, kind="stable"))
    for s in range(16):
        orders.append(np.random.default_rng(s).permutation(nv))
    best = max(_greedy_independent(adj, order) for order in orders)

    inertia_cache: Dict[int, int] = {}

    def inertia_bound(alive: int) -> int:
        cached = inertia_cache.get(alive)
        if cached is not None:
            return cached
        idx = []
        temp = alive
        while temp:
            b = temp & -temp
            idx.append(b.bit_length() - 1)
            temp ^= b
        ev = np.linalg.eigvalsh(adjf[np.ix_(idx, idx)])
        eps = 1e-6
        n0 = int(np.count_nonzero(np.abs(ev) <= eps))
        npos = int(np.count_nonzero(ev > eps))
        nneg = int(np.count_nonzero(ev < -eps))
        out = n0 + min(npos, nneg)
        inertia_cache[alive] = out
        return out

    def solve(alive: int, size: int) -> None:
        nonlocal best
        # take isolated and degree-1 vertices outright
        while True:
            changed = False
            temp = alive
            while temp:
                vbit = temp & -temp
                temp ^= vbit
                if not alive & vbit:
                    continue
                nb = adj[vbit.bit_length() - 1] & alive
                d = nb.bit_count()
                if d == 0:
                    alive ^= vbit
                    size += 1
                    changed = True
                elif d == 1:
                    alive &= ~(vbit | nb)
                    size += 1
                    changed = True
            if not changed:
                break
        if alive == 0:
            if size > best:
                best = size
            return
        cnt = alive.bit_count()
        if size + cnt <= best:
            return
        if size + cnt - _greedy_matching(adj, alive) <= best:
            return
        if cnt >= 40 and size + inertia_bound(alive) <= best:
            return
        # branch on a maximum-degree vertex, inclusion first
        vb, vdeg = 0, -1
        temp = alive
        while temp:
            b = temp & -temp
            temp ^= b
            d = (adj[b.bit_length() - 1] & alive).bit_count()
            if d > vdeg:
                vb, vdeg = b, d
        v = vb.bit_length() - 1
        solve(alive & ~(adj[v] | vb), size + 1)
        solve(alive & ~vb, size)

    solve((1 << nv) - 1, 0)
    return best


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
    mis_exact: Optional[int]   # exact max avoiding family, desk scale only
    rank: Optional[int]        # rank of the full polynomial family
    rank_full_family: bool     # rank column computed over all of Sigma
    family_sizes: Tuple[int, ...]
    vacuous: bool              # bound at or above |Sigma|: nothing to prune
    property_violations: int   # pairs breaking congruence iff nonzero value
    verdict: bool


def certify_bound(
    n: int,
    p: int,
    a: int,
    seeds: int = 20,
    compute_rank: Optional[bool] = None,
) -> LemmaCertificate:
    """Assemble the desk-scale certificate for the independence bound.

    Greedy avoiding families (one per seed, plus the enumeration order)
    must all pass the evaluation-matrix certificate and stay at or below
    the dimension bound, and the exact property count must find no pair
    where the congruence and the polynomial's value disagree; the exact
    search and the full-family rank join in whenever feasible.
    """
    if n - 4 * p != -a:
        raise ValueError("construction relation violated: n - 4p != -a")
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if seeds < 1:
        raise ValueError("seeds must be at least 1, got %d" % seeds)
    bound = dimension_bound(n, p)
    sigma_size = binomial(n - 1, n // 2 - 1)
    forbidden = -a

    X = sigma_matrix(n)
    conflict = _conflict_matrix(X, forbidden) if sigma_size <= _CONFLICT_CAP else None
    sizes: List[int] = []
    all_verified = True
    for seed in [None] + list(range(seeds - 1)):
        if conflict is None:
            # sampled candidate pool; any greedy-maximal family inside it
            # is still a genuine avoiding family, which is all the
            # certificate needs
            if seed is None:
                pool = np.arange(_FAMILY_POOL)
            else:
                pool = np.sort(np.random.default_rng(seed).choice(
                    sigma_size, _FAMILY_POOL, replace=False))
            fam = greedy_avoiding_family(X[pool], forbidden, seed=seed)
        else:
            fam = greedy_avoiding_family(X, forbidden, seed=seed, conflict=conflict)
        sizes.append(len(fam))
        if not independence_verify(fam, p, a):
            all_verified = False
    del conflict  # 41 MB at n = 16, not needed by the rank below

    mis: Optional[int] = None
    if n <= _EXACT_MIS_CAP:
        mis = max_avoiding_exact(X, forbidden)

    rank: Optional[int] = None
    rank_full_family = False
    if compute_rank is None:
        compute_rank = sigma_size <= _RANK_ROWS_CAP and bound <= _RANK_COLS_CAP
    if compute_rank:
        rank = rank_mod_p(coefficient_matrix(X, p, a), p)
        rank_full_family = True

    violations = property_check_exhaustive(n, p, a)
    checks = [
        violations == 0,
        all_verified,
        max(sizes) <= bound,
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
        rank_full_family=rank_full_family,
        family_sizes=tuple(sizes),
        vacuous=bound >= sigma_size,
        property_violations=violations,
        verdict=all(checks),
    )
