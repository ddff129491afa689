"""Random-search oracle for the polynomial class, in floats.

borsuk.optimality finds the class optimum exactly by enumerating the
extreme rays of the relaxed class.  This is the independent numeric
check: seeded rejection sampling of class members with a deterministic
coordinate-descent refinement, at any offset a in (0, n].  It can only
find members, so it must never beat the exact optimum, and it reaches it
through the corner candidates it tries first.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from borsuk.optimality import CandidatePolynomial


@dataclass(frozen=True)
class SampledOptimum:
    best: CandidatePolynomial
    best_ratio: float
    best_objective: float
    evaluated: int
    resampled: int


def _corner_candidates(m: int, n: int, a: float) -> List[np.ndarray]:
    """One even and one odd exponent, derivative balanced at -a.

    Includes the extremal polynomial itself at (even=m, odd=1).
    """
    corners = []
    for j in range(2, m + 1, 2):
        for i in range(1, m + 1, 2):
            u = np.zeros(m + 1)
            u[j] = 1.0
            u[i] = j * a ** (j - 1) / (i * a ** (i - 1))
            corners.append(u)
    return corners


def _sample_candidate(m: int, n: int, a: float, rng: np.random.Generator) -> np.ndarray:
    """Random nonnegative coefficients with the derivative zeroed at -a."""
    evens = list(range(2, m + 1, 2))
    odds = list(range(1, m + 1, 2))
    u = np.zeros(m + 1)
    u[evens] = rng.exponential(1.0, size=len(evens))
    mass = float(sum(j * u[j] * a ** (j - 1) for j in evens))
    weights = rng.dirichlet(np.ones(len(odds)))
    for w, i in zip(weights, odds):
        u[i] = mass * w / (i * a ** (i - 1))
    return u


def _class_member(u: np.ndarray, n: int, a: float) -> bool:
    """Cheap membership test used inside the search loop."""
    dcf = u[1:] * np.arange(1, len(u))
    h_min = float(np.polynomial.polynomial.polyval(-a, u))
    ts = np.linspace(-n, n, 513)
    if np.polynomial.polynomial.polyval(ts, u).min() < h_min - 1e-12 * max(
        1.0, abs(h_min)
    ):
        return False
    if len(dcf) > 1:
        for z in np.roots(dcf[::-1]):
            if abs(z.imag) <= 1e-9 * (1 + abs(z)) and -n <= z.real <= n:
                if float(np.polynomial.polynomial.polyval(z.real, u)) < h_min - 1e-12:
                    return False
    return True


def _objective(u: np.ndarray, n: int, a: float) -> Optional[float]:
    """|h(-a)|/h(n) for reduced-class members, None outside."""
    hn = float(np.polynomial.polynomial.polyval(n, u))
    hma = float(np.polynomial.polynomial.polyval(-a, u))
    if hn <= 0 or hma > 0:
        return None
    return -hma / hn


def _rebalance(u: np.ndarray, a: float) -> Optional[np.ndarray]:
    """Restore the derivative-at--a constraint by rescaling the odd part."""
    m = len(u) - 1
    evens = list(range(2, m + 1, 2))
    odds = list(range(1, m + 1, 2))
    even_mass = float(sum(j * u[j] * a ** (j - 1) for j in evens))
    odd_mass = float(sum(j * u[j] * a ** (j - 1) for j in odds))
    if even_mass <= 0 or odd_mass <= 0:
        return None
    out = u.copy()
    out[odds] *= even_mass / odd_mass
    return out


def _refine(u: np.ndarray, n: int, a: float, obj: float) -> Tuple[np.ndarray, float]:
    """Deterministic coordinate descent around an improving candidate."""
    best_u, best_obj = u, obj
    step = 0.5
    sweeps = 0
    while step > 1e-5 and sweeps < 200:
        sweeps += 1
        improved = False
        for j in range(1, len(u)):
            for fac in (1.0 + step, 1.0 / (1.0 + step)):
                cand = best_u.copy()
                cand[j] *= fac
                cand2 = _rebalance(cand, a)
                if cand2 is None or not _class_member(cand2, n, a):
                    continue
                o = _objective(cand2, n, a)
                if o is not None and o > best_obj + 1e-15:
                    best_u, best_obj = cand2, o
                    improved = True
        if not improved:
            step *= 0.5
    return best_u, best_obj


def _constrained_search(
    m: int, n: int, a: float, samples: int, seed: int
) -> Tuple[np.ndarray, float, int, int]:
    """Maximize |h(-a)|/h(n) over the class; returns (u, obj, evals, resamples).

    Deterministic corner candidates come first, then one candidate per
    sample index from its own seeded stream, so enlarging samples only
    extends the sequence (the incumbent never gets worse).  Improving
    candidates get a deterministic local refinement pass.
    """
    best_u: Optional[np.ndarray] = None
    best_obj = -1.0
    evals = 0
    resampled = 0
    for u in _corner_candidates(m, n, a):
        if not _class_member(u, n, a):
            continue
        obj = _objective(u, n, a)
        evals += 1
        if obj is not None and obj > best_obj:
            best_u, best_obj = u, obj
    for t in range(samples):
        u = None
        for attempt in range(16):
            cand = _sample_candidate(
                m, n, a, np.random.default_rng([seed, t, attempt])
            )
            if _class_member(cand, n, a):
                u = cand
                break
            resampled += 1
        if u is None:
            continue
        obj = _objective(u, n, a)
        evals += 1
        if obj is not None and obj > best_obj + 1e-15:
            u2, obj2 = _refine(u, n, a, obj)
            best_u, best_obj = u2, obj2
    if best_u is None:
        raise ValueError("search never produced a class member")
    return best_u, best_obj, evals, resampled


def random_search(m: int, n: int, samples: int = 10 ** 4, seed: int = 0) -> SampledOptimum:
    """Search the class at offset a = n for the best quotient.

    The quotient 1/(2 + 2*objective) falls as the objective |h(-n)|/h(n)
    rises, so the search maximizes the objective.  For even m nothing
    found ever beats the extremal polynomial; for odd m nothing beats the
    degree m-1 optimum.
    """
    if samples < 10 ** 3:
        raise ValueError("samples below the search floor 10^3")
    if m < 2:
        raise ValueError("degree must be at least 2")
    u, obj, evals, resampled = _constrained_search(m, n, float(n), samples, seed)
    # normalize h(n) = 1; the objective is scale invariant
    u = u / float(np.polynomial.polynomial.polyval(n, u))
    best = CandidatePolynomial(coefficients=tuple(float(c) for c in u), a=n, n=n)
    return SampledOptimum(
        best=best,
        best_ratio=1.0 / (2.0 + 2.0 * obj),
        best_objective=obj,
        evaluated=evals,
        resampled=resampled,
    )


def sample_members(
    m: int, n: int, count: int, seed: int = 0
) -> List[CandidatePolynomial]:
    """Draw validated class members at offset a = n, rejection sampled.

    The same per-index streams as random_search, so the sequence is
    stable under count extension.  Members come out with a zero constant
    term, which keeps them inside the split inequality's hypotheses.
    """
    if m < 2:
        raise ValueError("degree must be at least 2")
    out: List[CandidatePolynomial] = []
    a = float(n)
    t = 0
    while len(out) < count:
        for attempt in range(16):
            u = _sample_candidate(m, n, a, np.random.default_rng([seed, t, attempt]))
            if _class_member(u, n, a):
                out.append(
                    CandidatePolynomial(
                        coefficients=tuple(float(c) for c in u), a=n, n=n
                    )
                )
                break
        t += 1
    return out


def sampled_offset_maxima(
    m: int, n: int, a_grid: Sequence[float], samples: int = 2000, seed: int = 0
) -> List[float]:
    """Best objective the search finds at each offset of the grid."""
    grid = [float(x) for x in a_grid]
    if any(not 0 < x <= n for x in grid):
        raise ValueError("offsets must lie in (0, n]")
    return [
        _constrained_search(m, n, a, samples, seed + i)[1] for i, a in enumerate(grid)
    ]
