"""Exact rational scalars and their text form.

The canonical scalar everywhere is :class:`fractions.Fraction`.  Text input
accepts "p/q", plain integers, and decimal strings; decimals are read as
exact decimal fractions ("0.5" -> 1/2), with exponents bounded by
MAX_DECIMAL_EXPONENT.  Output is always "p/q" or "p".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import SchemaError

# Largest |exponent| accepted in a decimal such as "1.5e-3".  Fraction builds
# 10**exponent exactly, so "1e999999999" would take a billion digits.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*\Z", re.IGNORECASE)


def parse_rational(text, context="value"):
    """Parse a rational from its string (or int) form, exactly."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"{context}: expected rational string, got {type(text).__name__}")
    try:
        exp = _EXPONENT.search(text)
        if exp and abs(int(exp.group(1))) > MAX_DECIMAL_EXPONENT:
            raise SchemaError(
                f"{context}: decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}"
            )
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{context}: not a rational number: {text!r}") from exc


def format_rational(value):
    """Canonical string form: "p/q", or "p" for integers."""
    return str(Fraction(value))
