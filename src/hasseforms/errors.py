"""Exception types shared across the package.

Everything that signals bad input derives from ValueError so that casual
callers can catch one thing; the dedicated subclasses exist for callers
(and tests) that want to distinguish the precise failure.
"""

__all__ = ["NotPrimeError", "EvenCharacteristicError", "FieldTooLargeError", "CtxMismatchError",
           "ZeroPolynomialError", "SingularModelError", "ZeroElementError",
           "ZeroTwistParameterError", "WrongJInvariantError", "BadCongruenceError",
           "InconsistencyError"]


class NotPrimeError(ValueError):
    """The requested characteristic is not a prime number."""


class EvenCharacteristicError(ValueError):
    """Characteristic 2 is outside the supported range."""


class FieldTooLargeError(ValueError):
    """q = p**n exceeds 2**20; raised when the field is constructed."""


class CtxMismatchError(ValueError):
    """Operands live in different field contexts."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class SingularModelError(ValueError):
    """The Weierstrass equation has vanishing discriminant."""


class ZeroElementError(ValueError):
    """Zero has no unit class (and no discrete logarithm)."""


class ZeroTwistParameterError(ValueError):
    """Twist parameters must be nonzero."""


class WrongJInvariantError(ValueError):
    """Quartic twists need j = 1728, sextic twists need j = 0."""


class BadCongruenceError(ValueError):
    """The characteristic fails the congruence the twist kind requires."""


class InconsistencyError(RuntimeError):
    """Two supposedly equivalent computations disagreed.

    Raised when a cross-check that should be an identity fails, for
    example when an exhaustive census contradicts the closed-form
    description of which classes occur.  This is a bug indicator, not
    an input error.
    """
