"""Exception types shared across the laboratory, and per-row lists of them."""


class OpineqError(Exception):
    """Base class for every error raised by this package."""


class DimMismatch(OpineqError):
    """Matrix or tuple dimensions do not line up."""


class NotHermitian(OpineqError):
    """A matrix required to be self-adjoint is not, beyond tolerance."""


class NotPSD(OpineqError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""


class SingularNegativePower(OpineqError):
    """A negative fractional power was requested of a singular matrix."""


class InvalidK(OpineqError):
    """Ky Fan order k outside 1..dim."""


class CtxMismatch(OpineqError):
    """Module elements from different contexts were combined."""


class NotUnital(OpineqError):
    """The reference element of a covariance context is not a unit vector."""


class NotNormal(OpineqError):
    """A check hypothesis requires normal elements and the input is not normal."""


class NotContractive(OpineqError):
    """A contraction hypothesis (norm or spectral radius below one) fails."""


class MaxTermsExceeded(OpineqError):
    """An operator series would need more terms than the configured cap."""


class BallViolated(OpineqError):
    """An element is outside the ball its check hypothesis places it in."""


class InvalidSpec(OpineqError, ValueError):
    """A generator, run, tolerance or context configuration is out of range.

    It is also a ValueError, the type plain configuration validators raise.
    """


class DimCap(InvalidSpec):
    """The vectorized d^2 x d^2 representation exceeds the cap: an input the
    lab cannot hold."""


class BadExponents(InvalidSpec):
    """Schatten exponents (p, q, r) violate 1/q + 1/r = 2/p or are not all
    finite and > 1; a bad exponent is a bad configuration."""


class UnknownCheck(OpineqError):
    """A check name not present in the registry."""


class IOFailure(OpineqError):
    """Reading or writing reports/instances failed."""


def failures(error: type, *sides) -> list:
    """Per row, None where each side (message, ok, *values) has ``ok``, else ``error``
    of the first failing side's message formatted with its row of ``values``."""
    return [next((error(side[0].format(*v)) for side, (ok, *v) in zip(sides, row) if not ok), None)
            for row in zip(*(zip(*side[1:]) for side in sides))]


def raise_first(outcomes: list) -> list:
    """``outcomes`` if none is an error, else raise the first."""
    if errors := [o for o in outcomes if isinstance(o, OpineqError)]:
        raise errors[0]
    return outcomes
