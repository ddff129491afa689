"""Partition upper bounds for spheres of radius just above one half.

A sphere of radius r in R^d splits into the d+1 radial projections of
the facets of an inscribed regular simplex.  Each piece is congruent, so
one number controls everything: the largest distance between two points
of a single projected facet.  For r = 1/2 the circle case gives the
classical sqrt(3)/2, and as long as the piece diameter stays below 1 the
partition witnesses an upper bound matching the construction's regime
r = 1/2 + Theta(1/d).

The piece diameter has a closed form.  On the unit sphere the facet
vertices v_1..v_d satisfy |v_i|^2 = 1 and <v_i, v_j> = -1/d.  A point of
the piece is L/|L| with L = sum l_i v_i for convex weights l, and the
chord between two such points has square 2 - 2 <L, M>/(|L| |M|).

  * Disjoint supports S, T with uniform weights minimise the norms.
    For disjoint supports <L, M> = -1/d whatever the weights, so the
    chord grows as the norms shrink; |L|^2 = (1 + 1/d) sum l_i^2 - 1/d
    is least for uniform weights on S, where it equals (d+1-s)/(s d)
    with s = |S|.  So the chord square is 2 + 2 sqrt(q) with
    q = s t / ((d+1-s)(d+1-t)), t = |T|.
  * s + t = d is best: q grows in s and in t, and s + t <= d.
  * Then q = g(s) g(t) with g(x) = x/(x+1), and log g is concave, so on
    s + t = d the product is largest at the balanced split s = floor(d/2).

For even d this is chord = 2 sqrt((d+1)/(d+2)).  One step is checked
only numerically: that supports which overlap never do better than
disjoint ones.  A projected gradient ascent over all pairs of weight
vectors, kept in the tests as an oracle, agrees with the closed form to
1e-9 for d = 2..12.

The pass test r^2 chord^2 < 1 is decided in exact rationals: with
r = 1/2 + c_r/d and m = 1/(2 r^2) - 1 it holds iff m > 0 and q < m^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

MIN_DIMENSION = 2


def _split_q(d: int) -> Fraction:
    """q = st/((s+1)(t+1)) at the balanced split s = floor(d/2), t = d - s."""
    s = d // 2
    t = d - s
    return Fraction(s * t, (s + 1) * (t + 1))


def piece_diameter(d: int, r: float) -> float:
    """Diameter of one projected-facet piece on the radius-r sphere.

    r times the unit chord sqrt(2 + 2 sqrt(q)) of the balanced split.
    """
    if d < MIN_DIMENSION:
        raise ValueError("dimension must be at least %d" % MIN_DIMENSION)
    if r <= 0:
        raise ValueError("radius must be positive")
    return r * math.sqrt(2 + 2 * math.sqrt(_split_q(d)))


@dataclass(frozen=True)
class SimplexPartitionReport:
    """One row of the partition table.

    passes means the piece stays strictly below diameter 1, decided by
    an exact rational comparison; piece_diam is its float value.
    """

    d: int
    r: float
    piece_diam: float
    passes: bool


def simplex_partition_check(d: int, c_r: float = 0.01) -> SimplexPartitionReport:
    """Check the facet partition at radius r = 1/2 + c_r/d."""
    if c_r < 0:
        raise ValueError("radius margin must be nonnegative")
    r = 0.5 + c_r / d
    m = 1 / (2 * (Fraction(1, 2) + Fraction(c_r) / d) ** 2) - 1
    return SimplexPartitionReport(
        d=d,
        r=r,
        piece_diam=piece_diameter(d, r),
        passes=m > 0 and _split_q(d) < m * m,
    )


def partition_table(
    d_values: Sequence[int], c_r: float = 0.01
) -> List[SimplexPartitionReport]:
    """Partition reports for a list of dimensions."""
    return [simplex_partition_check(d, c_r) for d in d_values]
