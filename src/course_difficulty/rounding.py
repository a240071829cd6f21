"""Exact number parsing and rounding at the input and reporting boundaries.

Difficulty indices are returned as exact ``fractions.Fraction``s so the
documented identities hold exactly. Rounding happens once, at the edge, and
always to one decimal, the grid of the paper's tables and of every printed
value: half away from zero, as one integer ``divmod`` of the numerator and
denominator into whole tenths (``round_units``). ``format_ratio`` renders a
(numerator, denominator) pair that way without building a ``Fraction``; the
validation report's cells and plot data render from the integers each
``validation.CourseComparison`` holds, and ``validate`` rounds each course's
values with ``round_units``. Numbers read from files and flags are ASCII
literals, parsed exactly by ``parse_int`` and ``parse_decimal``; the writers
render a value back with ``decimal_text``, one exact ``decimal`` division that
refuses a value with no finite decimal expansion.
Library functions take numbers through ``to_fraction``: a ``Fraction``, an
``int`` or an ASCII decimal string; floats, bools and ``None`` are refused.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction

from .errors import DataFormatError

_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
_MAX_DIGITS = 4000  # int() refuses longer digit strings (sys.int_info.default_max_str_digits)


def parse_int(text: str, what: str) -> int:
    """ASCII digits with an optional sign; anything else raises ``DataFormatError``."""
    text = text.strip()
    if not _INTEGER.fullmatch(text) or len(text) > _MAX_DIGITS:
        raise DataFormatError(f"cannot parse {what} {text!r} as an integer")
    return int(text)


def parse_decimal(text: str, what: str) -> Fraction:
    """An ASCII decimal literal such as ``-4.25`` or ``.5``, exactly; no exponent,
    ``/``, ``_``, ``nan`` or ``inf`` (those raise ``DataFormatError``)."""
    text = text.strip()
    if not _DECIMAL.fullmatch(text) or len(text) > _MAX_DIGITS:
        raise DataFormatError(f"cannot parse {what} {text!r} as a decimal number")
    whole, _, decimals = text.partition(".")
    return Fraction(int(whole + decimals), 10 ** len(decimals))


def to_fraction(value: Fraction | int | str, what: str) -> Fraction:
    """A library argument as an exact ``Fraction``, under the same rule as file input.

    A ``Fraction`` comes back as the same object, an ``int`` converts exactly,
    and a ``str`` must be an ASCII decimal literal (``parse_decimal``). Anything
    else, such as a float, a bool or ``None``, raises ``DataFormatError``.
    """
    if isinstance(value, Fraction):  # first: every loaded grade record passes one
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_decimal(value, what)
    raise DataFormatError(f"{what} must be a Fraction, an int or a decimal string, got {value!r}")


def round_units(num: int, den: int) -> int:
    """``num/den`` (``den > 0``) as a whole number of tenths, ties away from zero."""
    q, r = divmod(abs(num) * 10, den)
    if 2 * r >= den:
        q += 1
    return -q if num < 0 else q


def round_half_away(value: Fraction) -> Fraction:
    """Round to one decimal with ties going away from zero."""
    return Fraction(round_units(value.numerator, value.denominator), 10)


def format_fixed(value: Fraction) -> str:
    """Render with one decimal after half-away rounding."""
    rounded = round_half_away(value)
    return _tenths_text(rounded.numerator * 10 // rounded.denominator)  # the denominator divides 10


def format_ratio(num: int, den: int) -> str:
    """``format_fixed(Fraction(num, den))`` for ``den > 0``, in integers:
    the pair need not be reduced, and no ``Fraction`` is built."""
    return _tenths_text(round_units(num, den))


def _tenths_text(units: int) -> str:
    """A signed whole number of tenths, written with one decimal."""
    whole, tenth = divmod(abs(units), 10)
    return f"{'-' if units < 0 else ''}{whole}.{tenth}"


def decimal_text(value: Fraction) -> str:
    """Exact decimal rendering, the inverse of ``parse_decimal``.

    One ``decimal`` division, with room for every digit and every exponent,
    under a context that traps only ``Inexact``: a value with no finite
    decimal expansion (a denominator with a prime factor other than 2 and 5,
    such as 1/3) raises ``ValueError``.
    """
    num, den = value.numerator, value.denominator
    ctx = Context(prec=num.bit_length() + den.bit_length() + 1, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[Inexact])
    try:
        exact = ctx.divide(Decimal(num), Decimal(den))
    except Inexact:
        raise ValueError(f"{value} has no finite decimal expansion") from None
    return format(exact.normalize(ctx), "f")
