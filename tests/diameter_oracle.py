"""Exact image Gram and all-pairs diameter scan, the oracle for geometry.

borsuk.construction.geometry takes the diameter of the image set from a
closed form with its minimum at inner product -a.  These recompute it
from the images themselves: the scalar-product identity on a row Gram,
in exact integers, and the maximum pairwise distance over a family.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from borsuk.construction import _tail_weight_sq


def image_gram(G: np.ndarray, k: int, a: int) -> np.ndarray:
    """Exact image inner products t**(2k) + 2k a**(2k-1) t at each t of G.

    G holds base inner products, a row Gram or any array of them; the
    result has G's shape and holds Python ints (object dtype), so it stays
    exact where t**(2k) outgrows int64.
    """
    t = np.asarray(G).astype(object)
    return t ** (2 * k) + _tail_weight_sq(k, a) * t


@dataclass(frozen=True)
class DiameterScan:
    """Result of the exact all-pairs scan over a family of images."""

    diam_sq: int                    # max squared distance, raw coordinates
    diam_sq_scaled: Fraction        # relative to the closed-form diameter
    pairs: Tuple[Tuple[int, int], ...]
    attaining_inner: Optional[int]  # base inner product at the maximum


def diameter_scan(rows: np.ndarray, k: int, a: int) -> DiameterScan:
    """Exact maximum pairwise squared distance among the images of rows,
    and all attaining pairs.

    Distances depend only on base inner products, |x* - y*|^2 = 2 h(n) -
    2 h(t) with h the image Gram, so the scan reduces to the row Gram;
    everything stays in exact ints.
    """
    X = np.asarray(rows, dtype=np.int64)
    if X.shape[0] > 10 ** 5:
        raise ValueError("pair scan too large: %d points" % X.shape[0])
    if X.shape[0] == 0:
        raise ValueError("empty point set")
    norm_sq, h_minus_a = image_gram([X.shape[1], -a], k, a)
    formula_diam_sq = 2 * norm_sq - 2 * h_minus_a
    if X.shape[0] == 1:
        return DiameterScan(0, Fraction(0), (), None)
    iu = np.triu_indices(X.shape[0], k=1)
    dots = (X @ X.T)[iu]
    # squared distance is decreasing in h(t)
    values = np.unique(dots)
    h = image_gram(values, k, a)
    best = min(range(len(values)), key=h.__getitem__)
    t_star = int(values[best])
    dmax = 2 * norm_sq - 2 * h[best]
    hit = dots == t_star
    return DiameterScan(
        diam_sq=dmax,
        diam_sq_scaled=Fraction(dmax, formula_diam_sq),
        pairs=tuple(zip(iu[0][hit].tolist(), iu[1][hit].tolist())),
        attaining_inner=t_star,
    )
