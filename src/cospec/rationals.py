"""Exact rationals at the package's edges.

Graphs and routes work in integers; `Rat`, which is `fractions.Fraction`,
parses `--k` and `--scale` and renders weights and k in the output, and
`module_parameter` is the package's one check of k.
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


def module_parameter(k):
    """k as it is, or ParameterError unless k is an int or a Fraction and
    k > 0: the package's one check of k."""
    if not isinstance(k, (int, Rat)):
        raise ParameterError(f"module parameter k must be an int or a Fraction, got {k!r}")
    if k.numerator <= 0:
        raise ParameterError(f"module parameter k must be positive, got {k}")
    return k


def rat_str(q) -> str:
    """Render an int or a Fraction as "p/q" (denominator always present)."""
    return f"{q.numerator}/{q.denominator}"
