"""Elimination oracle for the full-family GF(p) rank.

borsuk.algebra._sigma_rank gives the GF(p) rank of the residue
polynomials of all of Sigma(n) in closed form, C(n-1, min(p-1, n/2-1)).
This is the independent check: free_sign_matrix builds 0/1 columns with
the rank of borsuk.algebra.coefficient_matrix, and slice_rank ranks them
with borsuk.algebra.rank_mod_p, on a row subset when that subset already
reaches the rank's upper bound.
"""

from typing import Tuple

import numpy as np

from borsuk.algebra import (
    _monomial_sign_matrix,
    _reduced_profile_weights,
    monomial_basis,
    rank_mod_p,
)

# rows past the slice bound that slice_rank ranks first
SLICE_SPARE = 8


def free_sign_matrix(X: np.ndarray, p: int, a: int) -> np.ndarray:
    """A 0/1 int8 matrix with the GF(p) rank of coefficient_matrix(X, p, a).

    The rows of X must lie in Sigma(n): x_1 = +1 and k = n/2 - 1 more +1
    entries.  In the n - 1 free coordinates 2..n let y_j = (1 + x_j)/2
    and y_T the product over T.  With e = min(p - 1, k), the columns are
    y_T for |T| = e and for the levels |T| = t < e with t = k mod p, in
    monomial_basis order: 1470 columns at (16, 5, 4), where the +-1
    columns x_S, |S| < p, number 1941.  For p = 2 the matrix is one
    all-ones column.  Each row's entries depend on that row alone, so
    the matrix of a subset of rows is those rows of the full one.

    Same rank: steps 1-4 of _sigma_rank's proof show that the
    coefficient columns span the y_T with |T| <= e, and a dead level
    raises ValueError here too.  By step 4's identity,
    sum_{j not in T} y_{T u {j}} = (k - t) y_T, each level t < e lies in
    the span of level t + 1 when k - t is nonzero mod p, and is chosen
    itself when t = k mod p; so by downward induction from e the chosen
    columns span every level up to e.
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


def slice_rank(X: np.ndarray, p: int, a: int, bound: int) -> Tuple[int, int, int]:
    """(GF(p) rank, rows ranked, columns) of free_sign_matrix(X, p, a),
    whose full rank is at most bound.

    First builds the columns of bound + SLICE_SPARE evenly spaced rows of
    X only (no randomness) and ranks them: if they reach bound, so does
    the whole matrix, and that is its rank.  Otherwise, or when the
    subset would be every row, builds and ranks all rows.  bound must
    hold, as step 5 of _sigma_rank's proof shows C(n-1, e) does.
    """
    m = X.shape[0]
    count = bound + SLICE_SPARE
    if count < m:
        columns = free_sign_matrix(X[np.arange(count) * m // count], p, a)
        rank = rank_mod_p(columns, p)
        if rank == bound:
            return rank, count, columns.shape[1]
    columns = free_sign_matrix(X, p, a)
    return rank_mod_p(columns, p), m, columns.shape[1]
