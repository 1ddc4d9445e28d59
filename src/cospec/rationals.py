"""Exact rationals at the package's edges.

Graphs and routes work in integers; `Rat`, which is `fractions.Fraction`,
parses `--k` and `--scale` and renders weights and k in the output.
"""

from __future__ import annotations

from fractions import Fraction as Rat

from .errors import ParameterError

BACKEND = "fractions.Fraction"


def parse_rat(text: str) -> Rat:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Rat(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational number: {text!r}") from exc


def as_rat(x):
    """x as an exact rational: ints and Fractions as they are, the rest through Fraction."""
    return x if isinstance(x, (int, Rat)) else Rat(x)


def rat_str(q) -> str:
    """Render an int or a Fraction as "p/q" (denominator always present)."""
    return f"{q.numerator}/{q.denominator}"
