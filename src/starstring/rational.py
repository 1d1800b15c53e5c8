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


_EXPONENT_DIGITS = len(str(MAX_DECIMAL_EXPONENT))


def _int(digits):
    return int(Decimal(digits))


def parse_rational(text, context="value"):
    """Parse a rational from its string (or int) form, exactly.

    A Fraction is returned as it is and an int wrapped.  Of a string, only
    the digit runs it holds are converted: the numerator and denominator of
    "p/q"; the integer and fraction digits of a decimal, as one run, and
    its exponent, if it has one and its digits (leading zeros aside) are
    no more than the bound's.
    """
    if not isinstance(text, str):
        if isinstance(text, Fraction):
            return text
        if isinstance(text, int) and not isinstance(text, bool):
            return Fraction(text)
        raise SchemaError(f"{context}: expected rational string, got {type(text).__name__}")
    m = _RATIONAL.match(text)
    den = 1 if m is None or m["den"] is None else _int(m["den"])
    if m is None or not den:
        raise SchemaError(f"{context}: not a rational number: {text!r}")
    dec = (m["dec"] or "").replace("_", "")
    exp = -len(dec)
    if m["exp"] is not None:
        digits = m["exp"].replace("_", "")
        # an exponent with more digits than the bound is refused unconverted
        if (len(digits.lstrip("+-0")) > _EXPONENT_DIGITS
                or abs(shift := _int(digits)) > MAX_DECIMAL_EXPONENT):
            raise SchemaError(
                f"{context}: decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
        exp += shift
    num = _int(m["num"] + dec)
    if m["sign"] == "-":
        num = -num
    return Fraction(num * 10 ** exp, den) if exp >= 0 else Fraction(num, den * 10 ** -exp)


def as_fractions(values):
    """``values`` as a tuple of Fractions, converting only the entries that
    are not one already."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def format_rational(value):
    """Canonical string form: "p/q", or "p" for integers."""
    if type(value) is not Fraction:
        value = Fraction(value)
    num = str(Decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{str(Decimal(value.denominator))}"
