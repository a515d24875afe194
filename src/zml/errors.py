"""Exception types shared across the package."""


class ZmlError(Exception):
    """Base class for all package errors."""


class InputError(ZmlError, ValueError):
    """An argument violates a documented precondition; the message names the bound."""


class NumericsError(ZmlError, RuntimeError):
    """An iteration failed to converge or an error bound could not be met."""


class BudgetError(ZmlError, ValueError):
    """A compute or memory budget would be exceeded; the message reports the size."""


class ParseError(ZmlError, ValueError):
    """A file could not be parsed; a header fault names its line."""


class ValidationError(ZmlError, ValueError):
    """File contents or record collections violate a structural invariant."""


class SimplicityError(ZmlError, RuntimeError):
    """A zero with |Z'(gamma)| below the simplicity guard was encountered.

    This would make the reciprocal-derivative sums ill-conditioned (and, if
    genuine rather than a resolution artifact, falsify the standing
    simple-zeros assumption), so moment computations halt with diagnostics
    instead of returning numbers.
    """
