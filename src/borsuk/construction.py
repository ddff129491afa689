"""The point configuration: sign vectors, tensor images, sphere embedding.

Sigma(n) is the family of +-1 vectors of length n with first entry +1 and
zero sum.  Each x maps to the order-2k tensor power of x concatenated with
a weighted copy of x; inner products of images satisfy

    <x*, y*> = <x, y>**(2k) + 2k * a**(2k-1) * <x, y>,

so squared distances depend on <x, y> alone.  As a polynomial in the inner
product t the right side has its minimum at t = -a, which makes pairs at
inner product -a exactly the diameter pairs.  Scaling to diameter 1 and
lifting by a constant height places the whole set on a sphere of any
requested radius at or above the compressed circumradius; the lift adds
one coordinate, which is the canonical isometry used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import IO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .params import ParamSet

ENUMERATION_CAP = 24
MATERIALIZE_CAP = 10 ** 6


@dataclass(frozen=True)
class SignVector:
    """A +-1 vector with first entry +1 and zero sum."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        if not self.entries or self.entries[0] != 1:
            raise ValueError("first entry must be +1")
        if any(e not in (-1, 1) for e in self.entries):
            raise ValueError("entries must be +-1")
        if sum(self.entries) != 0:
            raise ValueError("entries must sum to zero")

    @property
    def n(self) -> int:
        return len(self.entries)


def iter_sign_vectors(n: int) -> Iterator[SignVector]:
    """Yield Sigma(n) ordered by the positions of the +1 entries."""
    for row in sigma_matrix(n).tolist():
        yield SignVector(tuple(row))


def sign_vectors(n: int) -> List[SignVector]:
    """Sigma(n) as a list; its size is C(n-1, n/2-1)."""
    return list(iter_sign_vectors(n))


def sigma_matrix(n: int) -> np.ndarray:
    """Sigma(n) stacked as an int8 matrix, rows ordered by +1 positions.

    The one enumeration of Sigma: sign_vectors wraps these rows.
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


def inner(x: SignVector, y: SignVector) -> int:
    """Exact inner product; for Sigma members it is 0 mod 4 and in (-n, n]."""
    if x.n != y.n:
        raise ValueError("length mismatch")
    return sum(a * b for a, b in zip(x.entries, y.entries))


@dataclass(frozen=True)
class TensorImage:
    """The image of a sign vector: x tensor ... tensor x, plus a weighted tail."""

    base: SignVector
    k: int
    a: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("tensor power must be positive")
        if self.a < 4 or self.a % 4 != 0:
            raise ValueError("offset must be a positive multiple of 4")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def tail_weight_sq(self) -> int:
        return 2 * self.k * self.a ** (2 * self.k - 1)

    @property
    def norm_sq(self) -> int:
        return self.n ** (2 * self.k) + self.tail_weight_sq * self.n


def tensor_inner(u: TensorImage, v: TensorImage) -> int:
    """Exact <u, v> = t**(2k) + 2k a**(2k-1) t with t = <base_u, base_v>."""
    if (u.k, u.a, u.n) != (v.k, v.a, v.n):
        raise ValueError("mismatched construction parameters")
    t = inner(u.base, v.base)
    return t ** (2 * u.k) + u.tail_weight_sq * t


def pair_distance_sq(u: TensorImage, v: TensorImage) -> int:
    """Exact squared distance |u - v|^2 = 2*norm_sq - 2*<u, v>."""
    return 2 * u.norm_sq - 2 * tensor_inner(u, v)


def materialize(img: TensorImage) -> np.ndarray:
    """Coordinates of the image: n**(2k) word products then sqrt(2k a**(2k-1)) x.

    Word coordinates are indexed lexicographically by (i_1, ..., i_2k).
    """
    n, k = img.n, img.k
    w = n ** (2 * k)
    if w + n > MATERIALIZE_CAP:
        raise ValueError("materialization too large: %d coordinates" % (w + n))
    x = np.array(img.base.entries, dtype=np.float64)
    word = x
    for _ in range(2 * k - 1):
        word = np.multiply.outer(word, x).reshape(-1)
    tail = math.sqrt(img.tail_weight_sq) * x
    return np.concatenate([word, tail])


@dataclass(frozen=True)
class GeometryReport:
    """Exact metric data of the configuration, before and after compression.

    diam_sq and rho_sq describe the raw image set; both come from the
    closed form with minimum at inner product -a.  When no pair of sign
    vectors attains -a (offset at or above n) the closed form is an upper
    bound only and `degenerate` is set; diameter_scan reports the attained
    maximum in that case.
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
    tail = 2 * k * a ** (2 * k - 1)
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


def embed(ps: ParamSet, geo: GeometryReport, img: TensorImage) -> np.ndarray:
    """Scale the image to diameter 1 and lift it onto the radius-r sphere.

    Output lives in R^d: scaled coordinates, one lift coordinate, zeros.
    """
    w = img.n ** (2 * img.k)
    need = w + img.n + 1
    if ps.d < need:
        raise ValueError("ambient dimension insufficient: d=%d < %d" % (ps.d, need))
    if ps.d > MATERIALIZE_CAP:
        raise ValueError("materialization too large: d=%d" % ps.d)
    coords = materialize(img)
    s = math.sqrt(float(geo.scale_sq))
    h = math.sqrt(float(geo.lift_height_sq))
    out = np.zeros(ps.d, dtype=np.float64)
    out[: len(coords)] = s * coords
    out[len(coords)] = h
    return out


@dataclass(frozen=True)
class DiameterScan:
    """Result of the exact all-pairs scan over a family of images."""

    diam_sq: int                    # max squared distance, raw coordinates
    diam_sq_scaled: Fraction        # relative to the closed-form diameter
    pairs: Tuple[Tuple[int, int], ...]
    attaining_inner: Optional[int]  # base inner product at the maximum


def diameter_scan(images: Sequence[TensorImage]) -> DiameterScan:
    """Exact maximum pairwise squared distance and all attaining pairs.

    Distances depend only on base inner products, so the scan reduces to
    the Gram matrix of the sign vectors; everything stays in exact ints.
    """
    if len(images) > 10 ** 5:
        raise ValueError("pair scan too large: %d points" % len(images))
    if not images:
        raise ValueError("empty point set")
    first = images[0]
    n, k, a = first.n, first.k, first.a
    if any((im.n, im.k, im.a) != (n, k, a) for im in images):
        raise ValueError("mismatched construction parameters")
    tail = first.tail_weight_sq
    formula_diam_sq = 2 * first.norm_sq - 2 * ((-a) ** (2 * k) + tail * (-a))
    if len(images) == 1:
        return DiameterScan(0, Fraction(0), (), None)
    X = np.array([im.base.entries for im in images], dtype=np.float64)
    G = (X @ X.T).astype(np.int64)  # entries bounded by n <= 24, exact
    iu = np.triu_indices(len(images), k=1)
    dots = G[iu]
    # squared distance is decreasing in h(t) = t^(2k) + tail*t
    h = lambda t: t ** (2 * k) + tail * t
    t_star = min((int(t) for t in np.unique(dots)), key=h)
    dmax = 2 * first.norm_sq - 2 * h(t_star)
    hit = dots == t_star
    pairs = tuple(zip(iu[0][hit].tolist(), iu[1][hit].tolist()))
    return DiameterScan(
        diam_sq=dmax,
        diam_sq_scaled=Fraction(dmax, formula_diam_sq),
        pairs=pairs,
        attaining_inner=t_star,
    )


def export_points(
    fh: IO[str], ps: ParamSet, geo: GeometryReport, images: Sequence[TensorImage]
) -> None:
    """Write the embedded point set, one point per line, with a header."""
    fh.write(
        "# borsuk-omega d=%d r=%r n=%d k=%d a=%d p=%d\n"
        % (ps.d, ps.r, ps.n, ps.k, ps.a, ps.p)
    )
    for img in images:
        coords = embed(ps, geo, img)
        fh.write(" ".join(repr(float(c)) for c in coords))
        fh.write("\n")
