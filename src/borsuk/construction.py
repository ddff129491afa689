"""The point configuration: Sigma(n) as int8 rows, exact geometry, embedding.

Sigma(n) is the family of +-1 vectors of length n with first entry +1 and
zero sum.  sigma_matrix(n) stacks it as an int8 matrix, and a sign vector,
a family or a set of tensor images is always a row or a stack of rows of
it.  Each row x maps to the order-2k tensor power of x concatenated with a
weighted copy of x; inner products of images satisfy

    <x*, y*> = <x, y>**(2k) + 2k * a**(2k-1) * <x, y>,

so squared distances depend on <x, y> alone.  As a polynomial in the
inner product t the right side has its minimum at t = -a, which makes
pairs at inner product -a exactly the diameter pairs (the tests rescan
every pair in exact integers as the oracle).  Scaling to diameter 1 and
lifting by a constant height places the whole set on a sphere of any
requested radius at or above the compressed circumradius; the lift adds
one coordinate, which is the canonical isometry used throughout.
embed is that map in float64; export_points writes the same points from
the rows' signs, since every coordinate is +-s, +-s c, the lift or 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import IO

import numpy as np

from .params import ParamSet

ENUMERATION_CAP = 24
MATERIALIZE_CAP = 10 ** 6

# export_points writes this many coordinates at a time
_EXPORT_FLOATS = 1 << 16


def sigma_matrix(n: int) -> np.ndarray:
    """Sigma(n) stacked as an int8 matrix, rows ordered by +1 positions.

    Its size is C(n-1, n/2-1); the one enumeration of Sigma.
    """
    if n % 4 != 0 or n <= 0:
        raise ValueError("vector length must be a positive multiple of 4")
    if n > ENUMERATION_CAP:
        raise ValueError("enumeration too large: n=%d > %d" % (n, ENUMERATION_CAP))
    plus = np.array(list(combinations(range(1, n), n // 2 - 1)), dtype=np.intp)
    X = np.full((plus.shape[0], n), -1, dtype=np.int8)
    X[:, 0] = 1
    np.put_along_axis(X, plus, 1, axis=1)
    return X


# BENCHMARK.json declares construction.sign_vectors as a per-layer metric,
# and perfbench/run.py raises KeyError on a declared name that is missing.
# Bound after the def, the tracer wraps sigma_matrix first, so the calls
# count there and this name reads as idle.
sign_vectors = sigma_matrix


def _tail_weight_sq(k: int, a: int) -> int:
    """Squared weight 2k a**(2k-1) of the copy of x appended to its image."""
    if k < 1:
        raise ValueError("tensor power must be positive")
    if a < 4 or a % 4 != 0:
        raise ValueError("offset must be a positive multiple of 4")
    return 2 * k * a ** (2 * k - 1)


def _word_signs(X: np.ndarray, k: int) -> np.ndarray:
    """The n**(2k) word products x_i1 ... x_i2k of each row of X, in X's
    dtype, indexed lexicographically by (i_1, ..., i_2k)."""
    m, n = X.shape
    word = X
    for _ in range(2 * k - 1):
        word = (word[:, :, None] * X[:, None, :]).reshape(m, word.shape[1] * n)
    return word


def materialize(rows: np.ndarray, k: int, a: int) -> np.ndarray:
    """Image coordinates, one row per sign vector: n**(2k) word products,
    then sqrt(2k a**(2k-1)) x."""
    X = np.asarray(rows, dtype=np.float64)
    n = X.shape[1]
    w = n ** (2 * k)
    if w + n > MATERIALIZE_CAP:
        raise ValueError("materialization too large: %d coordinates" % (w + n))
    tail = math.sqrt(_tail_weight_sq(k, a))
    return np.concatenate([_word_signs(X, k), tail * X], axis=1)


@dataclass(frozen=True)
class GeometryReport:
    """Exact metric data of the configuration, before and after compression.

    diam_sq and rho_sq describe the raw image set; both come from the
    closed form with minimum at inner product -a.  When no pair of sign
    vectors attains -a (offset at or above n) the closed form is an upper
    bound only and `degenerate` is set.
    """

    n: int
    k: int
    a: int
    diam_sq: int
    rho_sq: int
    r_prime_sq: Fraction
    scale_sq: Fraction
    lift_height_sq: Fraction
    degenerate: bool


def geometry(ps: ParamSet) -> GeometryReport:
    """Exact geometry of the configuration planned by ps."""
    n, k, a = ps.n, ps.k, ps.a
    tail = _tail_weight_sq(k, a)
    rho_sq = n ** (2 * k) + tail * n
    diam_sq = 2 * n ** (2 * k) + 2 * tail * n + (4 * k - 2) * a ** (2 * k)
    r_prime_sq = Fraction(rho_sq, diam_sq)
    lift = ps.rsq - r_prime_sq
    if lift < 0:
        raise ValueError(
            "compression failed: r'^2 = %s exceeds r^2 = %s" % (r_prime_sq, ps.rsq)
        )
    return GeometryReport(
        n=n,
        k=k,
        a=a,
        diam_sq=diam_sq,
        rho_sq=rho_sq,
        r_prime_sq=r_prime_sq,
        scale_sq=Fraction(1, diam_sq),
        lift_height_sq=lift,
        degenerate=a >= n,
    )


def check_dimension(ps: ParamSet) -> None:
    """Refuse a d that cannot hold the lifted images or is too large to write.

    The images take n**(2k) + n coordinates and the lift one more.
    """
    need = ps.n ** (2 * ps.k) + ps.n + 1
    if ps.d < need:
        raise ValueError("ambient dimension insufficient: d=%d < %d" % (ps.d, need))
    if ps.d > MATERIALIZE_CAP:
        raise ValueError("materialization too large: d=%d" % ps.d)


def embed(ps: ParamSet, geo: GeometryReport, rows: np.ndarray) -> np.ndarray:
    """Scale the images of rows to diameter 1 and lift them onto the sphere.

    One point of R^d per row: scaled coordinates, one lift coordinate, zeros.
    """
    check_dimension(ps)
    coords = materialize(rows, ps.k, ps.a)
    s = math.sqrt(float(geo.scale_sq))
    h = math.sqrt(float(geo.lift_height_sq))
    out = np.zeros((coords.shape[0], ps.d), dtype=np.float64)
    out[:, : coords.shape[1]] = s * coords
    out[:, coords.shape[1]] = h
    return out


def export_points(
    fh: IO[str], ps: ParamSet, geo: GeometryReport, rows: np.ndarray
) -> None:
    """Write the embedded images of rows, one point per line, with a header.

    The bytes are repr of every float of embed(ps, geo, rows), written
    from the rows' signs without embedding.  embed multiplies by the scale
    s the word products +-1.0 and the weighted copy c * (+-1.0), c the
    tail weight.  Multiplying by +-1.0 is exact and round-to-nearest is
    symmetric, s * (-c) = -(s * c), so each of those coordinates is s, -s,
    s * c or -(s * c) by its sign; s and c are positive, so none is -0.0.
    Neither is the lift, sqrt(lift_height_sq) with lift_height_sq >= 0,
    nor a zero padding to d.  So a line is its signs' texts from a
    four-entry table, then the lift and the zeros, joined once per call.
    Rows go a block of about _EXPORT_FLOATS coordinates at a time.
    """
    check_dimension(ps)
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != ps.n or not (abs(rows) == 1).all():
        raise ValueError("rows must be +-1 vectors of length n=%d" % ps.n)
    s = math.sqrt(float(geo.scale_sq))
    sc = s * math.sqrt(_tail_weight_sq(ps.k, ps.a))
    text = np.array([repr(-s), repr(s), repr(-sc), repr(sc)], dtype=object)
    w = ps.n ** (2 * ps.k)
    lift = [repr(math.sqrt(float(geo.lift_height_sq)))]
    end = " " + " ".join(lift + ["0.0"] * (ps.d - w - ps.n - 1)) + "\n"
    fh.write(
        "# borsuk-omega d=%d r=%r n=%d k=%d a=%d p=%d\n"
        % (ps.d, ps.r, ps.n, ps.k, ps.a, ps.p)
    )
    rows = rows.astype(np.int8)
    block = max(1, _EXPORT_FLOATS // ps.d)
    for lo in range(0, len(rows), block):
        X = rows[lo:lo + block]
        # 0/1 for -s/s on the words, 2/3 for -sc/sc on the weighted copy
        codes = (np.concatenate([_word_signs(X, ps.k), X], axis=1) > 0).view(np.int8)
        codes[:, w:] += 2
        fh.write("".join(" ".join(line) + end for line in text[codes].tolist()))
