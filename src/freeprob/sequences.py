"""Exact rational sequences indexed from 1.

A RationalSequence of order N carries values a_1..a_N.  The 1-based
indexing matches the way moment and cumulant sequences are written, so
formulas transcribe directly.  Values serialize as JSON arrays of
"p/q" strings in lowest terms with q > 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _decimal_str(x: Fraction, places: int) -> str:
    """x rounded half to even at the given places, formatted like "%.{places}f"."""
    digits = str(abs(round(x * 10 ** places))).rjust(places + 1, "0")
    if places:
        digits = digits[:-places] + "." + digits[-places:]
    return "-" + digits if x < 0 else digits


def frac_from_str(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational literal: {s!r}") from exc


def frac_param(x, name: str) -> Fraction:
    """A scalar parameter as an exact rational; NaN, an infinity or a
    non-number is a ValidationError."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"{name} must be a finite rational, not {x!r}") from exc


def _entry_from_json(s) -> Fraction:
    if isinstance(s, str):
        return frac_from_str(s)
    # JSON true and false arrive as bool, a subclass of int
    if type(s) is int or isinstance(s, float) and math.isfinite(s):
        return Fraction(s)
    raise ValidationError(f"not a rational literal: {s!r}")


class RationalSequence:
    """Immutable 1-based sequence of exact rationals."""

    __slots__ = ("_vals",)

    def __init__(self, values):
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if not vals:
            raise ValidationError("a sequence needs order >= 1")
        self._vals = vals

    @classmethod
    def constant(cls, c, order: int) -> "RationalSequence":
        return cls([Fraction(c)] * order)

    @classmethod
    def unit_vector(cls, index: int, order: int, value=1) -> "RationalSequence":
        vals = [Fraction(0)] * order
        vals[index - 1] = Fraction(value)
        return cls(vals)

    @classmethod
    def from_json(cls, items) -> "RationalSequence":
        """Read a JSON array of "p/q" strings; integers and finite floats
        are taken at their exact value."""
        if not isinstance(items, list):
            raise ValidationError("sequence JSON must be an array of 'p/q' strings")
        return cls([_entry_from_json(s) for s in items])

    @property
    def order(self) -> int:
        return len(self._vals)

    @property
    def values(self) -> tuple:
        return self._vals

    def __getitem__(self, n: int) -> Fraction:
        """1-based access: seq[n] is a_n."""
        if not 1 <= n <= len(self._vals):
            raise ValidationError(f"index {n} outside 1..{len(self._vals)}")
        return self._vals[n - 1]

    def __iter__(self):
        return iter(self._vals)

    def __len__(self) -> int:
        return len(self._vals)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalSequence):
            return self._vals == other._vals
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._vals)

    def __repr__(self) -> str:
        return f"RationalSequence({list(self._vals)!r})"

    def prefix(self, order: int) -> "RationalSequence":
        """a_1..a_order; a slice would read a negative order from the end."""
        if order < 1:
            raise ValidationError("a sequence needs order >= 1")
        if order > len(self._vals):
            raise ValidationError(
                f"sequence of order {len(self._vals)} cannot be truncated to {order}"
            )
        return RationalSequence(self._vals[:order])

    def scale(self, t) -> "RationalSequence":
        t = Fraction(t)
        return RationalSequence([t * v for v in self._vals])

    def add(self, other: "RationalSequence") -> "RationalSequence":
        n = min(len(self._vals), len(other._vals))
        return RationalSequence([self._vals[i] + other._vals[i] for i in range(n)])

    def to_json(self) -> list:
        return [frac_to_str(v) for v in self._vals]
