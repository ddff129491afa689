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
dimension.  This module builds the reduced polynomials in bulk from one
symmetric weight profile, certifies independence two independent ways
(coefficient rank and evaluation matrix), and cross-checks the bound
against exact maximum independent set search at desk scale.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exactnum import binomial, binomial_tail_sum, is_prime
from .construction import SignVector, sigma_matrix

Vectorish = Union[SignVector, Sequence[int]]

# Full-family rank elimination is O(rows * cols * rank); these caps keep it
# to a few seconds (n=16, 6435 x 2517, takes about one).  Above them the
# sampled-family certificates carry the evidence instead.
_RANK_ROWS_CAP = 8000
_RANK_COLS_CAP = 4000

# float32 and float64 hold every integer of magnitude up to these
_EXACT32 = 2 ** 24
_EXACT64 = 2 ** 53

# rank_mod_p: columns per panel and rows sampled for a panel's pivots;
# rows per matmul in its trailing update and in sigma_gram, and in
# property_check_exhaustive, which bounds their temporaries
_PANEL = 96
_PANEL_SAMPLE = 128
_ROW_CHUNK = 1024
_PROPERTY_CHUNK = 512

_EXACT_MIS_CAP = 12

# full |Sigma|^2 pair matrices up to this size; past it families are
# built inside seeded candidate pools of _FAMILY_POOL rows
_CONFLICT_CAP = 20000
_FAMILY_POOL = 4096


def _entries(x: Vectorish) -> Tuple[int, ...]:
    if isinstance(x, SignVector):
        return x.entries
    t = tuple(int(v) for v in x)
    if any(v not in (-1, 1) for v in t):
        raise ValueError("entries must be +-1")
    return t


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


@dataclass(frozen=True)
class ReducedPolynomial:
    """Multilinear polynomial mod p: monomial bitmask -> coefficient."""

    n: int
    p: int
    coefficients: Dict[int, int]

    def __post_init__(self):
        for mask, c in self.coefficients.items():
            if not 0 <= mask < (1 << self.n):
                raise ValueError("monomial outside variable range")
            if not 0 < c < self.p:
                raise ValueError("coefficient not a reduced nonzero residue")

    def degree(self) -> int:
        return max((m.bit_count() for m in self.coefficients), default=0)

    def evaluate(self, y: Vectorish) -> int:
        ey = _entries(y)
        if len(ey) != self.n:
            raise ValueError("length mismatch")
        neg = 0
        for i, v in enumerate(ey):
            if v < 0:
                neg |= 1 << i
        total = 0
        for mask, c in self.coefficients.items():
            total += -c if (mask & neg).bit_count() & 1 else c
        return total % self.p


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
    """
    skip = excluded_residue(p, a)
    w = [0] * (n + 2)
    w[0] = 1
    for i in range(p):
        if i == skip:
            continue
        nxt = [0] * (n + 2)
        for s in range(n + 1):
            v = i * w[s] - (s * w[s - 1] if s else 0) - (n - s) * w[s + 1]
            nxt[s] = v % p
        w = nxt
    assert all(w[s] == 0 for s in range(p, n + 2)), "degree above p-1 survived"
    return w[: n + 1]


def reduced_indicator(x: Vectorish, p: int, a: int) -> ReducedPolynomial:
    """Multilinear polynomial that is nonzero mod p iff (x, y) = -a mod p.

    The multilinear reduction of prod_{i != -a mod p} (i - (x, y)) over
    GF(p).  tests/test_algebra.py expands that product symbolically and
    reduces it monomial by monomial as the oracle for this bulk route.
    """
    ex = _entries(x)
    n = len(ex)
    w = _reduced_profile_weights(n, p, a)
    coeffs: Dict[int, int] = {}
    for size in range(min(p - 1, n) + 1):
        if w[size] == 0:
            continue
        for mask in _masks_of_size(n, size):
            xs = 1
            m = mask
            while m:
                j = (m & -m).bit_length() - 1
                xs *= ex[j]
                m &= m - 1
            c = (w[size] * xs) % p
            if c:
                coeffs[mask] = c
    return ReducedPolynomial(n=n, p=p, coefficients=coeffs)


def _masks_of_size(n: int, size: int) -> List[int]:
    from itertools import combinations

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


def coefficient_matrix(
    n: int, p: int, a: int, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Reduced coefficients for a stack of sign vectors, one row per vector.

    Columns follow monomial_basis(n, p).  rows defaults to all of Sigma(n)
    in enumeration order; pass a +-1 matrix to restrict.  Built from the
    symmetric weight profile; tests pin it against the symbolic route.
    """
    X = sigma_matrix(n) if rows is None else np.asarray(rows, dtype=np.int8)
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


def property_check(x: Vectorish, y: Vectorish, p: int, a: int) -> Tuple[bool, bool]:
    """((x,y) = -a mod p,  reduced polynomial of x nonzero at y).

    The two booleans must agree; their equivalence is what turns the
    forbidden inner product into a linear-algebra statement.
    """
    ex, ey = _entries(x), _entries(y)
    lhs = (sum(u * v for u, v in zip(ex, ey)) + a) % p == 0
    rhs = reduced_indicator(ex, p, a).evaluate(ey) != 0
    return lhs, rhs


def property_check_exhaustive(n: int, p: int, a: int) -> int:
    """Number of pairs in Sigma(n)^2 violating the equivalence (0 expected).

    Bulk form: evaluates every reduced polynomial on every sign vector as
    the all-pairs product signs @ coef.T, in float32, _PROPERTY_CHUNK
    sign vectors at a time; each chunk's inner products come from its own
    Gram product.  With the coefficients centred in [-p//2, p//2] every
    partial sum is an integer of magnitude at most len(basis) * (p//2),
    which must stay within 2**24 - p, so float32 holds it exactly and _mod
    tests it against zero mod p exactly.
    """
    if dimension_bound(n, p) * (p // 2) > _EXACT32 - p:
        raise ValueError("bulk evaluation would overflow exact float32: "
                         "n=%d, p=%d" % (n, p))
    X = sigma_matrix(n)
    coef_t = coefficient_matrix(n, p, a).astype(np.float32).T
    coef_t[coef_t > p // 2] -= p
    signs = _monomial_sign_matrix(X, monomial_basis(n, p))
    Xf = X.astype(np.float32)
    bad = 0
    for lo in range(0, X.shape[0], _PROPERTY_CHUNK):
        hi = lo + _PROPERTY_CHUNK
        lhs = _mod(Xf[lo:hi] @ Xf.T + a, p) == 0
        rhs = _mod(signs[lo:hi].astype(np.float32) @ coef_t, p) != 0  # rhs[y, x]
        bad += int(np.count_nonzero(lhs != rhs))
    return bad


# ---------------------------------------------------------------------------
# avoiding families, independence certificates, rank


@dataclass(frozen=True)
class AvoidingFamily:
    """Sign vectors no two of which have inner product equal to forbidden."""

    members: Tuple[SignVector, ...]
    forbidden: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty family")
        X = self.matrix()
        G = X.astype(np.int64) @ X.T.astype(np.int64)
        bad = (G == self.forbidden) & ~np.eye(len(self.members), dtype=bool)
        if bad.any():
            raise ValueError("family contains a forbidden pair")

    def matrix(self) -> np.ndarray:
        return np.array([m.entries for m in self.members], dtype=np.int8)

    def __len__(self) -> int:
        return len(self.members)


def _greedy_indices(conflict: np.ndarray, order: np.ndarray) -> List[int]:
    allowed = np.ones(conflict.shape[0], dtype=bool)
    chosen: List[int] = []
    for idx in order:
        if allowed[idx]:
            chosen.append(int(idx))
            allowed &= ~conflict[idx]
    chosen.sort()
    return chosen


def greedy_avoiding_family(
    n: int,
    forbidden: int,
    seed: Optional[int] = None,
    conflict: Optional[np.ndarray] = None,
    pool: Optional[np.ndarray] = None,
) -> AvoidingFamily:
    """Greedy maximal family: scan Sigma(n), accept whatever stays legal.

    seed None scans in enumeration order; an integer seed scans a
    reproducible random permutation.  conflict caches the pair predicate
    matrix across repeated calls.  pool restricts the scan to a subset of
    Sigma positions, for sizes where the full pair matrix stops fitting
    in memory; conflict is then indexed by pool position.  Only the
    chosen rows of the int8 Sigma matrix become SignVector objects.
    """
    X = sigma_matrix(n)
    pool = np.arange(X.shape[0]) if pool is None else np.asarray(pool)
    if conflict is None:
        sub = X[pool].astype(np.float64)
        conflict = (sub @ sub.T).astype(np.int64) == forbidden
    order = np.arange(len(pool))
    if seed is not None:
        order = np.random.default_rng(seed).permutation(len(pool))
    chosen = pool[_greedy_indices(conflict, order)]
    return AvoidingFamily(
        members=tuple(SignVector(tuple(row)) for row in X[chosen].tolist()),
        forbidden=forbidden,
    )


def evaluation_certificate(members: np.ndarray, p: int, a: int) -> bool:
    """Diagonal nonzero, off-diagonal zero in the evaluation matrix.

    Takes a raw +-1 row matrix so that deliberately broken inputs can be
    fed through; returns False on any violation rather than raising.
    """
    M = evaluation_matrix(members, p, a)
    diag = np.diag(M)
    off = M.copy()
    np.fill_diagonal(off, 0)
    return bool((diag != 0).all() and not off.any())


def independence_verify(family: AvoidingFamily, p: int, a: int) -> bool:
    """Certify linear independence through the evaluation matrix.

    Diagonal entries must be nonzero (each vector satisfies its own
    congruence, as n = -a mod p by construction) and off-diagonal entries
    zero (no other pair dot is congruent to -a).  Rank then equals the
    family size.
    """
    n = family.members[0].n
    if n - 4 * p != -a:
        raise ValueError("construction relation violated: n - 4p != -a")
    if family.forbidden != -a:
        raise ValueError("family avoids %d, certificate needs -a = %d"
                         % (family.forbidden, -a))
    return evaluation_certificate(family.matrix(), p, a)


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


def max_avoiding_exact(n: int, forbidden: int) -> int:
    """Exact maximum size of an avoiding family, by branch and bound.

    The conflict graph on Sigma(n) has an edge where a pair attains the
    forbidden inner product; the answer is its maximum independent set.
    """
    if n > _EXACT_MIS_CAP:
        raise ValueError("exact search infeasible: n=%d > %d" % (n, _EXACT_MIS_CAP))
    X = sigma_matrix(n)
    conflict = (sigma_gram(n) == forbidden) & ~np.eye(X.shape[0], dtype=bool)
    if not conflict.any():
        return X.shape[0]
    adj = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in conflict]
    return _mis_bitset(adj, conflict, X)


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
    the dimension bound; the exact search and the full-family rank join
    in whenever feasible.
    """
    if n - 4 * p != -a:
        raise ValueError("construction relation violated: n - 4p != -a")
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    bound = dimension_bound(n, p)
    sigma_size = binomial(n - 1, n // 2 - 1)
    forbidden = -a

    conflict = sigma_gram(n) == forbidden if sigma_size <= _CONFLICT_CAP else None
    sizes: List[int] = []
    all_verified = True
    for seed in [None] + list(range(max(0, seeds - 1))):
        pool = None
        if conflict is None:
            # sampled candidate pool; any greedy-maximal family inside it
            # is still a genuine avoiding family, which is all the
            # certificate needs
            if seed is None:
                pool = np.arange(_FAMILY_POOL)
            else:
                pool = np.sort(np.random.default_rng(seed).choice(
                    sigma_size, _FAMILY_POOL, replace=False))
        fam = greedy_avoiding_family(
            n, forbidden, seed=seed, conflict=conflict, pool=pool)
        sizes.append(len(fam))
        if not independence_verify(fam, p, a):
            all_verified = False

    mis: Optional[int] = None
    if n <= _EXACT_MIS_CAP:
        mis = max_avoiding_exact(n, forbidden)

    rank: Optional[int] = None
    rank_full_family = False
    if compute_rank is None:
        compute_rank = sigma_size <= _RANK_ROWS_CAP and bound <= _RANK_COLS_CAP
    if compute_rank:
        rank = rank_mod_p(coefficient_matrix(n, p, a), p)
        rank_full_family = True

    checks = [
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
        verdict=all(checks),
    )
