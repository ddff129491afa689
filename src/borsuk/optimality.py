"""Optimality of the quotient polynomial behind the construction.

The compressed radius is governed by the quotient h(n) / (2h(n) - 2h(-a))
where h ranges over degree-m polynomials with nonnegative coefficients
whose minimum on [-n, n] sits at -a with vanishing derivative.  The
extremal member for a = n and even m is

    h*(t) = t**m + m n**(m-1) t,

with quotient (m+1)/(4m) and |h*(-n)|/h*(n) = (m-1)/(m+1).  The
construction's own polynomial t**(2k) + 2k a**(2k-1) t is the a-offset
copy of h*, so no other admissible polynomial improves the radius.  This
module evaluates the quotient exactly, verifies class membership
numerically, and proves extremality by an exact enumeration:

Drop "minimum at -a" from the class and scale to h(n) = 1.  What is left
is a linear-fractional program (Charnes & Cooper, Naval Res. Logist. Q. 9
(1962)): maximise -h(-a) over u >= 0 with h(n) = 1 and h'(-a) = 0.  Each
u_j n**j is at most 1, so the feasible set is a bounded polytope cut by 2
equalities, and the linear objective peaks at a vertex, a point with at
most 2 nonzero coefficients.  A lone u_j needs j u_j a**(j-1) = 0, so it
is the constant, objective -1.  In h'(-a) = sum j u_j (-a)**(j-1) the
even exponents count negative and the odd ones positive, so a vertex with
2 nonzero coefficients is a pair (j even >= 2, i odd).  Scaled to u_j = 1
it has u_i = (j/i) a**(j-i), and with x = a/n it scores

    -h(-a)/h(n) = (j-i) x**j / (i + j x**(j-i)).

For j > i the score is positive and its log-derivative in x is
j i (1 + x**(j-i)) / (x (i + j x**(j-i))) > 0, so it strictly increases
in a; for j < i it is negative.  (2, 1) scores above 0, so the best pair
has j > i, and the per-offset maximum, a maximum of strictly increasing
functions, strictly increases in a.  At a = n the pair scores
(j-i)/(j+i), largest at the top even exponent and i = 1: (m-1)/(m+1) at
(m, 1) for even m, (m-2)/m at (m-1, 1) for odd m.  h*' = m (t**(m-1) +
n**(m-1)) has -n as its only real root, so h* is in the class and attains
that maximum.  The relaxation contains the class, so no member at any
offset in (0, n] has a quotient below (m+1)/(4m): the bound and the
reduction to a = n in one argument.  Each pair with j > i is itself a
member (its derivative j t**(i-1) (t**(j-i) + a**(j-i)) vanishes only at
-a and, for i > 1, at 0, where h = 0 > h(-a)), so the per-offset maxima
are attained in the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence, Tuple, Union

import numpy as np

Coeff = Union[int, Fraction, float]

_GRID_POINTS = 10 ** 4
_CLASS_TOL = 1e-9


def _is_exact(values) -> bool:
    return all(isinstance(v, Rational) for v in values)


def _eval_poly(coeffs: Sequence[Coeff], t: Coeff):
    """Horner evaluation, exact when inputs are exact."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def _derivative(coeffs: Sequence[Coeff]) -> Tuple[Coeff, ...]:
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


@dataclass(frozen=True)
class CandidatePolynomial:
    """A member of the admissible polynomial class.

    coefficients are u0..um in ascending order, all nonnegative; the
    derivative must vanish at -a and the minimum over [-n, n] must sit
    there.  validate() checks the lot; construction does not, so that
    deliberately broken candidates can exercise the error paths.
    """

    coefficients: Tuple[Coeff, ...]
    a: Coeff
    n: int

    @property
    def m(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t: Coeff):
        return _eval_poly(self.coefficients, t)

    def derivative_at(self, t: Coeff):
        return _eval_poly(_derivative(self.coefficients), t)

    def validate(self, tol: float = _CLASS_TOL) -> None:
        """Raise unless this is a genuine class member.

        The minimum location is checked on a dense grid plus every real
        critical point; with nonnegative coefficients those are few.
        """
        if self.m < 1:
            raise ValueError("degree must be positive")
        if not 0 < float(self.a) <= self.n:
            raise ValueError("offset outside (0, n]")
        if any(float(c) < 0 for c in self.coefficients):
            raise ValueError("negative coefficient")
        cf = np.array([float(c) for c in self.coefficients])
        n, a = self.n, float(self.a)
        scale = max(1.0, float(np.polynomial.polynomial.polyval(n, cf)))
        dcf = cf[1:] * np.arange(1, len(cf))
        dscale = max(1.0, float(np.polynomial.polynomial.polyval(n, dcf)))
        if abs(float(np.polynomial.polynomial.polyval(-a, dcf))) > tol * dscale:
            raise ValueError("derivative does not vanish at -a")
        h_min = float(np.polynomial.polynomial.polyval(-a, cf))
        ts = np.linspace(-n, n, _GRID_POINTS + 1)
        vals = np.polynomial.polynomial.polyval(ts, cf)
        if vals.min() < h_min - tol * scale:
            raise ValueError("minimum not attained at -a (grid)")
        if len(dcf) > 1:
            roots = np.roots(dcf[::-1])
        else:
            roots = np.array([])
        for z in roots:
            if abs(z.imag) > 1e-9 * (1 + abs(z)):
                continue
            t = float(z.real)
            if -n <= t <= n:
                v = float(np.polynomial.polynomial.polyval(t, cf))
                if v < h_min - tol * scale:
                    raise ValueError("minimum not attained at -a (critical point)")

    def in_reduced_class(self) -> bool:
        """Whether the value at -a is nonpositive."""
        return self(-self.a) <= 0


def extremal_polynomial(m: int, n: int) -> CandidatePolynomial:
    """h*(t) = t**m + m n**(m-1) t with offset a = n; m must be even."""
    if m % 2 != 0 or m < 2:
        raise ValueError("degree must be even and at least 2")
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    coeffs[1] = m * n ** (m - 1)
    return CandidatePolynomial(coefficients=tuple(coeffs), a=n, n=n)


@dataclass(frozen=True)
class RatioValue:
    """The quotient h(n) / (2h(n) - 2h(-a)) and its ingredients."""

    value: Coeff
    h_at_n: Coeff
    h_at_minus_a: Coeff
    objective: Coeff  # |h(-a)| / h(n), the equivalent maximization target

    def __float__(self) -> float:
        return float(self.value)


def ratio(h: CandidatePolynomial) -> RatioValue:
    """Exact-formula quotient; requires h(-a) <= 0 (the reduced class)."""
    hn = h(h.n)
    hma = h(-h.a)
    if hma > 0:
        raise ValueError("not in reduced class: h(-a) = %r > 0" % (hma,))
    if hn <= 0:
        raise ValueError("h(n) must be positive")
    if _is_exact((hn, hma)):
        hn_q, hma_q = Fraction(hn), Fraction(hma)
        return RatioValue(
            value=hn_q / (2 * hn_q - 2 * hma_q),
            h_at_n=hn,
            h_at_minus_a=hma,
            objective=-hma_q / hn_q,
        )
    return RatioValue(
        value=hn / (2 * hn - 2 * hma),
        h_at_n=hn,
        h_at_minus_a=hma,
        objective=-hma / hn,
    )


@dataclass(frozen=True)
class OddEvenSplit:
    """The split inequality odd_sum <= factor * even_sum at t = n."""

    odd_sum: Coeff
    even_sum: Coeff
    factor: int
    passed: bool


def odd_even_split_check(h: CandidatePolynomial) -> OddEvenSplit:
    """Check the odd/even coefficient split that forces extremality.

    Requires a = n and no constant term.  With the derivative vanishing
    at -n, the odd-exponent mass at n is at most m times the even mass
    (m-1 times when m is odd, since even exponents then stop at m-1).
    """
    if h.coefficients[0] != 0:
        raise ValueError("constant term must vanish for the split inequality")
    if h.a != h.n:
        raise ValueError("split inequality needs offset a = n")
    n = h.n
    odd_sum = sum(c * n ** j for j, c in enumerate(h.coefficients) if j % 2 == 1)
    even_sum = sum(
        c * n ** j for j, c in enumerate(h.coefficients) if j % 2 == 0 and j > 0
    )
    factor = h.m if h.m % 2 == 0 else h.m - 1
    return OddEvenSplit(
        odd_sum=odd_sum,
        even_sum=even_sum,
        factor=factor,
        passed=odd_sum <= factor * even_sum,
    )


# ---------------------------------------------------------------------------
# exact optimum over the extreme rays


@dataclass(frozen=True)
class SearchResult:
    """The exact optimum at one offset: the best pair and its value.

    best is the pair's polynomial scaled to h(n) = 1 and corner its
    exponents (j, i).  evaluated counts the pairs scored; resampled is
    always 0, because the enumeration rejects nothing (perfbench's tracer
    reads both fields).
    """

    best: CandidatePolynomial
    corner: Tuple[int, int]
    best_objective: Fraction
    best_ratio: Fraction
    evaluated: int
    resampled: int = 0


def search_optimum(m: int, n: int, a: Optional[Rational] = None) -> SearchResult:
    """Maximum of |h(-a)|/h(n) over the class of degree m, a = n by default.

    Scores every pair (j even >= 2, i odd) in Fractions and keeps the
    best; the module docstring proves that this is the class optimum.  The
    quotient 1/(2 + 2*objective) falls as the objective rises.
    """
    if m < 2:
        raise ValueError("degree must be at least 2")
    if n < 1:
        raise ValueError("interval endpoint must be positive")
    a = Fraction(n if a is None else a)
    if not 0 < a <= n:
        raise ValueError("offset %s outside (0, n]" % a)
    x = a / n
    pairs = [(j, i) for j in range(2, m + 1, 2) for i in range(1, m + 1, 2)]
    obj, j, i = max(
        ((j - i) * x ** j / (i + j * x ** (j - i)), j, i) for j, i in pairs
    )
    coeffs = [Fraction(0)] * (m + 1)
    coeffs[j] = Fraction(1)
    coeffs[i] = Fraction(j, i) * a ** (j - i)
    hn = n ** j + coeffs[i] * n ** i
    best = CandidatePolynomial(coefficients=tuple(c / hn for c in coeffs), a=a, n=n)
    return SearchResult(
        best=best,
        corner=(j, i),
        best_objective=obj,
        best_ratio=1 / (2 + 2 * obj),
        evaluated=len(pairs),
    )


@dataclass(frozen=True)
class OffsetReductionReport:
    """Exact optimum per offset; must strictly climb to the value at a = n."""

    a_grid: Tuple[Fraction, ...]
    objectives: Tuple[Fraction, ...]
    reference: Fraction  # objective of the extremal polynomial at a = n
    passed: bool


def offset_reduction_check(
    m: int, n: int, a_grid: Sequence[Rational]
) -> OffsetReductionReport:
    """Exact optima along a strictly increasing grid of offsets in (0, n].

    Passes when they strictly increase and end at the extremal objective:
    on the last grid point if that is n, just above it otherwise.
    """
    grid = [Fraction(a) for a in a_grid]
    if not grid:
        raise ValueError("offset grid is empty")
    if any(not 0 < a <= n for a in grid):
        raise ValueError("offsets must lie in (0, n]")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("offset grid must be strictly increasing")
    objs = [search_optimum(m, n, a).best_objective for a in grid]
    ref = ratio(extremal_polynomial(m - m % 2, n)).objective
    chain = objs if grid[-1] == n else objs + [ref]
    return OffsetReductionReport(
        a_grid=tuple(grid),
        objectives=tuple(objs),
        reference=ref,
        passed=all(u < v for u, v in zip(chain, chain[1:])) and chain[-1] == ref,
    )
