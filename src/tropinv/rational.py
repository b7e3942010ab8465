"""Exact rationals on the wire: the "p/q" string format and decimal display.

All exact values in the library are :class:`fractions.Fraction`; this module
only converts between fractions and their canonical string form.  The wire
format is ``"p/q"`` in lowest terms with a positive denominator, or just
``"p"`` when the denominator is one.  Decimal renderings exist for human
readers only and never feed back into a computation.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
import re

from .errors import ParseError, ValueTooLarge

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text):
    """Parse ``"p"`` or ``"p/q"`` into a Fraction.  Strict: no floats, no spaces."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # more digits than the interpreter converts to an int
        raise ParseError(f"rational literal too long: {len(text)} characters") from None
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value):
    """Render a Fraction (or int) as ``"p"`` / ``"p/q"`` in lowest terms."""
    f = Fraction(value)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # more digits than the interpreter converts to a string
        bits = max(f.numerator.bit_length(), f.denominator.bit_length())
        raise ValueTooLarge(f"exact value too large to write: {bits}-bit numerator or denominator") from None


def as_fraction(value):
    """Coerce an int, Fraction or "p/q" string to Fraction.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ParseError(f"cannot interpret {value!r} as an exact rational")


def decimal_string(value, digits=12):
    """Decimal rendering of a Fraction to `digits` significant digits (display only)."""
    f = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(f.numerator) / Decimal(f.denominator)
    return str(d)


def exact_fields(values, digits):
    """{name: "p/q"} for each exact value in `values`, plus {name + "_decimal":
    its `decimal_string`} when `digits` is not 0."""
    out = {}
    for name, value in values.items():
        out[name] = format_rational(value)
        if digits:
            out[name + "_decimal"] = decimal_string(value, digits)
    return out
