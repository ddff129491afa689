"""Counterexamples to Borsuk's conjecture on spheres of radius above 1/2.

The construction tensors balanced sign vectors with themselves, appends
a weighted copy of the vector, and compresses the result onto a sphere
of the target radius; a dimension count over GF(p) bounds how many
points fit in any piece of small diameter, and the pigeonhole ratio
beats d+1 once the ambient dimension is large enough.  Submodules:

    exactnum      exact arithmetic, primes and fixed-point logs
    params        parameter solving for fixed and shrinking radii
    construction  point sets, geometry, embeddings and export
    algebra       the GF(p) independence bound and its certificates
    bounds        lower bounds, the d0 walk and its proven rejects, asymptotics
    upper         simplex partition upper bounds near radius 1/2
    optimality    extremality of the construction's polynomial
    cli           command line front end
"""

from .exactnum import binomial, binomial_tail_sum, is_prime
from .params import (
    CheckFailed,
    ParamSet,
    choose_a,
    choose_n,
    compressed_radius_sq,
    drift,
    plan_fixed,
    plan_shrinking,
    power_threshold,
    solve_a0,
    solve_k,
)

__version__ = "0.1.0"

__all__ = [
    "CheckFailed",
    "ParamSet",
    "binomial",
    "binomial_tail_sum",
    "choose_a",
    "choose_n",
    "compressed_radius_sq",
    "drift",
    "is_prime",
    "plan_fixed",
    "plan_shrinking",
    "power_threshold",
    "solve_a0",
    "solve_k",
    "__version__",
]
