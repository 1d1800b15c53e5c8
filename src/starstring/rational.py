"""Exact rational scalars and their text form.

The canonical scalar everywhere is :class:`fractions.Fraction`.  Text input
accepts "p/q", plain integers, and decimal strings; decimals are read as
exact decimal fractions ("0.5" -> 1/2), with exponents bounded by
MAX_DECIMAL_EXPONENT.  Output is always "p/q" or "p".  Integers convert
through :class:`decimal.Decimal`: CPython limits int/str conversion to 4,300
digits by default, and the interpreter's setting stays as it is.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import SchemaError

# Largest |exponent| accepted in a decimal such as "1.5e-3".  The value is
# built exactly, so "1e999999999" would take a billion digits.
MAX_DECIMAL_EXPONENT = 1000
# Fraction's string grammar, whose digit runs are converted apart
_RATIONAL = re.compile(
    r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)(?:/(?P<den>\d+(_\d+)*)|"
    r"(?:\.(?P<dec>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*\Z", re.IGNORECASE)


def _int(digits):
    return int(Decimal(digits))


def parse_rational(text, context="value"):
    """Parse a rational from its string (or int) form, exactly."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"{context}: expected rational string, got {type(text).__name__}")
    m = _RATIONAL.match(text)
    if m is None or not (den := _int(m["den"] or "1")):
        raise SchemaError(f"{context}: not a rational number: {text!r}")
    exp = (m["exp"] or "0").replace("_", "")
    # an exponent with more digits than the bound is refused unconverted
    if (len(exp.lstrip("+-0")) > len(str(MAX_DECIMAL_EXPONENT))
            or abs(exp := _int(exp)) > MAX_DECIMAL_EXPONENT):
        raise SchemaError(f"{context}: decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    dec = (m["dec"] or "").replace("_", "")
    exp -= len(dec)
    value = Fraction(_int((m["num"] or "0") + dec) * 10 ** max(exp, 0), den * 10 ** max(-exp, 0))
    return -value if m["sign"] == "-" else value


def format_rational(value):
    """Canonical string form: "p/q", or "p" for integers."""
    value = Fraction(value)
    num = str(Decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{str(Decimal(value.denominator))}"
