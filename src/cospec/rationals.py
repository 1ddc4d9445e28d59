"""Exact rationals at the package's edges.

Graphs and routes work in integers; `Rat`, which is `fractions.Fraction`, parses
`--k` and `--scale` and renders weights and k; `module_parameter` is the package's
one check of k, and `module_parameters` reads scan's k list through it.
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


def module_parameters(text: str) -> list:
    """A checked k per value of comma-separated `text`, in first-seen order ("1" = "1/1")."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ParameterError(f"--k needs at least one value, got {text!r}")
    return [module_parameter(k) for k in dict.fromkeys(parse_rat(s) for s in items)]


def rat_str(q) -> str:
    """Render an int or a Fraction as "p/q" (denominator always present)."""
    return f"{q.numerator}/{q.denominator}"
