"""Conflict-matrix oracles for avoiding families.

borsuk.algebra.max_avoiding_exact gives the maximum in closed form, by
the Erdos-Ko-Rado theorem.  This is the independent check: a search for
the maximum independent set of the conflict graph on any stack of rows,
pruned by the inertia bound on float64 eigenvalues.  The same |rows|^2
conflict matrix drives greedy_from_conflicts, the check on
borsuk.algebra.greedy_avoiding_family, which settles blocks of live
rows, strikes the accepted rows' conflicts among the rows still live
and forms no pair matrix.
"""

from typing import List, Optional

import numpy as np

from borsuk.algebra import _ROW_CHUNK, _scan_order

_EXACT_MIS_CAP = 12


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


def greedy_from_conflicts(rows: np.ndarray, forbidden: int,
                          seeds: List[Optional[int]]) -> List[np.ndarray]:
    """The families of greedy_avoiding_family(rows, forbidden, seed) for
    each seed, read off one full conflict matrix: the same scan order,
    taken from borsuk.algebra._scan_order, and the acceptance rule applied
    row by row."""
    conflict = _conflict_matrix(rows, forbidden)
    families = []
    for seed in seeds:
        order = _scan_order(rows.shape[0], seed)
        families.append(rows[_greedy_indices(conflict, order)])
    return families


def max_avoiding_search(rows: np.ndarray, forbidden: int) -> int:
    """Exact maximum size of an avoiding family among rows, by branch and bound.

    The conflict graph on the rows (all of Sigma(n) for the lemma) has an
    edge where a pair attains the forbidden inner product; the answer is
    its maximum independent set.  The incumbent is the best greedy family
    over the pivot-first orders (rows with x_j = +1 first, for each j; the
    stars of Erdos-Ko-Rado look like this).  Each node is pruned by its
    size bound and by the inertia bound of Cvetkovic (1971): an
    independent set of a graph is at most n0 + min(n+, n-), counting the
    zero, positive and negative eigenvalues of its adjacency matrix.
    Otherwise it branches on a vertex of maximum degree, inclusion first.

    The eigenvalues come from float64 eigvalsh, counted against 1e-6, and
    the bound stays valid.  The solver is backward stable: each computed
    eigenvalue lies within c(m) 2**-52 ||A|| of a true one (Weyl), c a
    modest polynomial in the order m and ||A|| at most the maximum degree,
    far below 1e-6 at the few hundred vertices searched here.  So a true
    zero counts as zero, and a nonzero eigenvalue keeps its sign or counts
    as zero; moving one eigenvalue from n+ or n- to n0 changes
    n0 + min(n+, n-) by 0 or +1, so a miscount only loosens the bound.
    The instances certify meets are conflict-free or the Kneser graphs
    K(7, 3) (n = 8, a = 4) and K(11, 5) (n = 12, a = 8), whose eigenvalues
    are all nonzero integers (Lovasz, 1979): there the bound is exact, 15
    and 210, equals the star family, and settles the root node.
    """
    n = rows.shape[1]
    if n > _EXACT_MIS_CAP:
        raise ValueError("exact search infeasible: n=%d > %d" % (n, _EXACT_MIS_CAP))
    conflict = _conflict_matrix(rows, forbidden)
    np.fill_diagonal(conflict, False)
    if not conflict.any():
        return rows.shape[0]
    orders = (np.argsort(rows[:, j] != 1, kind="stable") for j in range(n))
    best = max(len(_greedy_indices(conflict, order)) for order in orders)
    stack = [(np.arange(rows.shape[0]), 0)]
    while stack:
        alive, size = stack.pop()
        if size + alive.size <= best:
            continue
        sub = conflict[np.ix_(alive, alive)]
        deg = sub.sum(axis=1)
        if not deg.any():
            best = size + alive.size
            continue
        ev = np.linalg.eigvalsh(sub.astype(np.float64))
        zero = int(np.count_nonzero(np.abs(ev) <= 1e-6))
        pos = int(np.count_nonzero(ev > 1e-6))
        if size + zero + min(pos, ev.size - zero - pos) <= best:
            continue
        v = int(np.argmax(deg))
        keep = ~sub[v]
        keep[v] = False
        stack.append((np.delete(alive, v), size))
        stack.append((alive[keep], size + 1))
    return best
