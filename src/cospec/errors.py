"""Exception hierarchy shared across the package."""


class CospecError(Exception):
    """Base class for all package errors."""


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


class NumericalError(CospecError, RuntimeError):
    """Numeric eigensolver failed to converge."""


class CertificateError(CospecError, ArithmeticError):
    """A computed polynomial failed a property its construction guarantees
    (divisibility by a power of t - 1, degree, monicity)."""


class OutputError(CospecError, OSError):
    """An output file could not be written."""


class IdentityCheckError(CospecError, AssertionError):
    """An exact matrix identity that must hold failed to hold."""


class RecipeError(CospecError, ValueError):
    """Simple-graph blowup recipe hit an obstruction; message names it."""
