"""Exception hierarchy shared across the package; each class carries its `cospec` exit code."""


class CospecError(Exception):
    """Base class for all package errors: a usage or domain error, exit 2."""

    exit_code = 2


class LengthError(CospecError, ValueError):
    """Word shorter than the minimum ring length of three."""


class AlphabetError(CospecError, ValueError):
    """Word contains a letter outside {P, C, E}."""


class ParameterError(CospecError, ValueError):
    """A numeric parameter is out of range (e.g. k <= 0)."""


class DegreeError(CospecError, ValueError):
    """Graph has an isolated vertex where positive degrees are required."""


class ShapeError(CospecError, ValueError):
    """Structural mismatch (ring lengths differ, chain is not a path, ...)."""


class FormatError(CospecError, ValueError):
    """Unknown export format."""


class BudgetError(CospecError, RuntimeError):
    """Enumeration would exceed the configured budget."""

    exit_code = 3


class NumericalError(CospecError, RuntimeError):
    """The numeric eigensolver failed to converge, or could not be loaded."""


class CertificateError(CospecError, ArithmeticError):
    """A computed polynomial failed a check its construction guarantees:
    the exact route's point certificate (the rebuilt charpoly against a
    determinant at one point modulo a separate prime) or its det L = 0 and
    tr L = n checks, and the transfer route's divisibility by a power of
    t - 1, degree bound and monicity."""

    exit_code = 1


class OutputError(CospecError, OSError):
    """An output file could not be written."""


class IdentityCheckError(CospecError, AssertionError):
    """An exact matrix identity that must hold failed to hold."""

    exit_code = 1


class RecipeError(CospecError, ValueError):
    """Simple-graph blowup recipe hit an obstruction; message names it."""
