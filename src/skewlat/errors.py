"""Exception types shared across the package.

Every domain failure raised by this library derives from SkewLatError so
callers (and the CLI) can distinguish domain errors from programming bugs.
"""


class SkewLatError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidSpec(SkewLatError):
    """Algebra configuration is structurally malformed."""


class NotPrime(SkewLatError):
    """Configured p is composite."""


class NotIrreducible(SkewLatError):
    """Configured minimal polynomial is reducible over Q."""


class InvalidSigma(SkewLatError):
    """Configured automorphism does not define an order-n ring automorphism."""


class NonUnitU(SkewLatError):
    """Constant u shares a factor with p, so it is not a unit in the quotient."""


class NotInvertible(SkewLatError):
    """Element has no multiplicative inverse (a legal outcome, not a bug)."""


class TooLarge(SkewLatError):
    """Requested enumeration exceeds the configured bound."""


class DivisionByZero(SkewLatError):
    """Division by the zero polynomial."""


class NonUnitLeading(SkewLatError):
    """Divisor has a non-invertible leading coefficient."""


class NotADivisor(SkewLatError):
    """Polynomial does not divide the central modulus."""


class UnsupportedU(SkewLatError):
    """Dual-generator formula needs u*u = 1."""


class LengthMismatch(SkewLatError):
    """Vector argument has the wrong length."""


class NotInLattice(SkewLatError):
    """Point does not reduce to a codeword."""


class IndefiniteForm(SkewLatError):
    """Trace form is not positive: no definite form on the field, or a zero Gram column."""


class ParseError(SkewLatError):
    """Config text could not be parsed."""


class UnknownKey(ParseError):
    """Config contains a key this tool does not know."""


class MissingKey(ParseError):
    """Config is missing a required key."""
