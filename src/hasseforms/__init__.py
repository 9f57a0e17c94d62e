"""Twisted forms of p-th roots of unity realized on elliptic curves over
small finite fields, checked by exhaustive enumeration.

The layers, bottom up: gf (deterministic finite fields), poly
(polynomials, truncated powers, factorisation), curve (Weierstrass
models, point counts, Hasse invariants, twists), forms (unit classes and
what they classify), search (witness hunts and the census), verify
(exhaustive identity suites) and cli (the command line front end).
"""

__version__ = "0.1.0"

from .curve import (
    FrobeniusData,
    WeierstrassCurve,
    hasse_invariant,
    is_ordinary,
    point_count,
    twist,
)
from .errors import (
    BadCongruenceError,
    CtxMismatchError,
    EvenCharacteristicError,
    FieldTooLargeError,
    InconsistencyError,
    NotPrimeError,
    SingularModelError,
    WrongJInvariantError,
    ZeroElementError,
    ZeroPolynomialError,
    ZeroTwistParameterError,
)
from .forms import (
    FrobeniusKernelClass,
    PTorsionDescription,
    UnitClass,
    enumerate_classes,
    kernel_of_frobenius,
    phi,
    ptorsion_description,
    realizable_set,
    twist_class_action,
    unit_class_of,
)
from .gf import (
    FieldCtx,
    FieldElement,
    discrete_log,
    make_field,
    norm_to_prime,
    primitive_element,
    quadratic_character,
)
from .poly import Factorization, Polynomial, degree_pattern, factor
from .search import (
    RealizabilityReport,
    WitnessRecord,
    admissible_traces,
    census,
    describe_witness,
    find_curve_with_class,
    iter_curves,
)
from .verify import SUITE_NAMES, SuiteResult, run_suite

__all__ = [
    "__version__",
    "FieldCtx", "FieldElement", "make_field", "norm_to_prime",
    "quadratic_character", "primitive_element", "discrete_log",
    "Polynomial", "Factorization", "factor", "degree_pattern",
    "WeierstrassCurve", "FrobeniusData", "point_count", "hasse_invariant",
    "is_ordinary", "twist",
    "UnitClass", "unit_class_of", "enumerate_classes", "phi",
    "realizable_set", "twist_class_action", "FrobeniusKernelClass",
    "kernel_of_frobenius", "PTorsionDescription", "ptorsion_description",
    "admissible_traces", "iter_curves", "find_curve_with_class",
    "describe_witness", "WitnessRecord", "RealizabilityReport", "census",
    "SuiteResult", "SUITE_NAMES", "run_suite",
    "NotPrimeError", "EvenCharacteristicError", "FieldTooLargeError",
    "CtxMismatchError", "ZeroPolynomialError", "SingularModelError",
    "ZeroElementError", "ZeroTwistParameterError", "WrongJInvariantError",
    "BadCongruenceError", "InconsistencyError",
]
