"""Certified enclosures for irrational quantities built from exact rationals.

Coordinates are exact rationals, held as integer numerators over a common
denominator in a `Drawing` and in every construction. Square roots are
never materialized. When a length or a ratio involving square roots must be
reported, it is enclosed in a rational interval [lo, hi] whose width is
driven below any requested relative tolerance by raising the working
precision.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .frozen import Frozen


class Interval(Frozen):
    """A closed rational interval certified to contain the true real value.

    lo = hi = math.inf is the infinite interval: the value is certainly
    infinite, as the spanning ratio of a drawing with coincident vertices is.
    """

    __slots__ = _fields = ("lo", "hi")
    lo: Fraction | float
    hi: Fraction | float

    def __init__(self, lo: Fraction | float, hi: Fraction | float):
        assert lo <= hi
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_infinite(self) -> bool:
        return self.lo == math.inf

    def rel_width(self) -> Fraction | float:
        """hi/lo - 1, or math.inf when lo <= 0 or the interval is infinite."""
        if self.lo <= 0 or self.is_infinite:
            return math.inf
        return self.hi / self.lo - 1

    def __repr__(self):
        lo, hi = (b if b == math.inf else format_rational(b) for b in (self.lo, self.hi))
        return f"Interval({lo}, {hi})"


def format_rational(q: Fraction) -> str:
    return format_ratio(q.numerator, q.denominator)


def format_ratio(num: int, den: int) -> str:
    """The text num/den of a fraction in lowest terms, den > 0."""
    try:
        return f"{num}/{den}"
    except ValueError:
        # More digits than sys.get_int_max_str_digits() lets int print; that
        # limit guards the parsing of outside input, and decimal has none.
        return f"{Decimal(num)}/{Decimal(den)}"


def isqrt_scaled(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integer enclosure of sqrt(num/den) at scale 2**bits.

    Returns (lo, hi) with lo/2**bits <= sqrt(num/den) <= hi/2**bits and
    hi - lo <= 1.

    With q, r = divmod(num * 4**bits, den) and s = isqrt(q), the root is
    exactly s iff num * 4**bits = s**2 den, that is iff r = 0 and s**2 = q.
    """
    assert num >= 0 and den > 0
    q, r = divmod(num << (2 * bits), den)
    s = math.isqrt(q)
    if r == 0 and s * s == q:
        return s, s
    return s, s + 1


def sqrt_interval(q: Fraction, bits: int = 64) -> Interval:
    """Certified enclosure of sqrt(q) for a nonnegative rational q."""
    assert q >= 0
    lo, hi = isqrt_scaled(q.numerator, q.denominator, bits)
    scale = Fraction(1, 1 << bits)
    return Interval(lo * scale, hi * scale)
