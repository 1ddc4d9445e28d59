"""Exact rational arithmetic helpers.

gmpy2.mpq is used when available (much faster for the big verification
sweeps); fractions.Fraction is a drop-in fallback.  Both expose
.numerator/.denominator and interoperate with ints, which is all the
rest of the code relies on.
"""

from __future__ import annotations

from .errors import ParameterError

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat

BACKEND = f"{Rat.__module__}.{Rat.__name__}"  # "gmpy2.mpq" or "fractions.Fraction"


def parse_rat(text: str) -> Rat:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Rat(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational number: {text!r}") from exc


def rat_str(q) -> str:
    """Render a rational as "p/q" (denominator always present)."""
    q = Rat(q)
    return f"{q.numerator}/{q.denominator}"


def is_integral(q) -> bool:
    return Rat(q).denominator == 1
