"""Typed errors raised by the engine.

Every failure mode that callers are expected to handle gets its own class so
tests and the command line can match on type rather than message text.
"""


class NahilbError(Exception):
    """Base class for all engine errors."""


class MissingVariable(NahilbError):
    """An evaluation point does not assign a value to a needed variable."""


class DivisionByZero(NahilbError):
    """A denominator factor evaluates or specializes to zero."""


class SizeGuardExceeded(NahilbError):
    """A request exceeds a point budget, or a result is too long to print."""


class RequiresPointedDims(NahilbError):
    """The operation needs dims starting with a single point (d0 = 1)."""


class RequiresNilfil(NahilbError):
    """The operation needs a chain satisfying the nilpotent filtration rule."""


class NotInFiber(NahilbError):
    """The chain does not lie on the requested flag fiber."""


class TooManyPoints(NahilbError):
    """The ambient dimension cannot accommodate the requested chain."""


class IndexOutOfRange(NahilbError):
    """An index argument falls outside its documented range."""


class InconsistentVirtualDimension(NahilbError):
    """Fixed points of one space report different virtual dimensions."""


class InconsistentDegree(NahilbError):
    """An integral's degree differs from the integrand's minus vdim."""


class NoFixedPoints(NahilbError):
    """The space has an empty fixed-point set."""


class DegenerateRestriction(NahilbError):
    """A specialization kills a denominator factor."""


class RequiresFullFlag(NahilbError):
    """The operation needs dims = (1, 1, ..., 1)."""


class NonElimination(NahilbError):
    """A residue round failed to eliminate its variable."""


class ExponentOverflow(NahilbError):
    """An exponent outgrows its field in the packed monomial encoding."""


class NotLinear(NahilbError):
    """A factor of a factored rational is not a linear form."""


class NotPolynomial(NahilbError):
    """A sum that must clear its denominators did not."""


class ParseError(NahilbError):
    """A class specification, job field or name could not be read."""


class NotBisymmetric(NahilbError):
    """A class polynomial fails the required block symmetries."""


class NotPermutationInvariant(NahilbError):
    """A fixed-point sum's chain filter or weight builders change when the
    coordinates are permuted, so its orbits cannot share one term."""
