"""Exact-arithmetic search for twist values that give two curves positive rank.

Given two elliptic curves y^2 = x^3 + a*x + b over Q, the package glues
their cubics into a plane cubic, certifies a non-torsion rational point on
it, and walks its multiples: each common cubic value D yields rational
points on the quadratic twists of both curves by D.  Emitted values carry
machine-checkable certificates and pairwise distinct square classes.
"""

import sys as _sys

# Certificate coordinates are exact and grow quadratically with the multiple
# index; serializing them needs decimal conversions far beyond the default
# interpreter cap.
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(0)

from .exactnum import (
    PartialFactorization,
    factorize,
    format_rational,
    is_perfect_square,
    is_probable_prime,
    parse_rational,
    primes_avoiding,
    same_square_class,
    squarefree_part,
    valuation,
)
from .planecubic import BASE_POINT, PlaneCubic, ProjPoint, smoothness_quantity
from .twistgen import (
    Config,
    PreparedPair,
    RunReport,
    SearchExhausted,
    SquareClassLedger,
    TwistCertificate,
    certificate_from_dict,
    certificate_to_dict,
    corollary_mode,
    elementary_generate,
    generate,
    jzero_generate,
    lambda_search,
    prepare_pair,
    verify_bundle,
    verify_certificate,
)
from .weierstrass import (
    INFINITY,
    Curve,
    RATIONAL_TORSION_ORDERS,
    WPoint,
    are_isomorphic_over_q,
    certify_nontorsion,
    disc_quantity,
    quadratic_twist,
    scale_model,
)

__version__ = "0.1.0"
