"""Exact rational scalars.

Everything numeric in this package flows through arbitrary-precision
rationals.  gmpy2's mpq is used when importable (it is much faster once
numerators grow to hundreds of digits); the stdlib Fraction is the fallback.
Both expose .numerator/.denominator and identical arithmetic semantics, so
the rest of the code never needs to know which one is active.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only where gmpy2 is absent
    _mpq = None
    HAVE_GMPY2 = False


def rat(num=0, den=1):
    """Build an exact rational from ints, Fractions, or another rational."""
    if HAVE_GMPY2:
        return _mpq(num, den)
    return Fraction(num, den)


def rat_from_str(s):
    """Parse "num/den", integer, or decimal strings ("0.25", "2.5e-3") exactly."""
    text = s.strip()
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {s!r}") from exc
    return rat(f.numerator, f.denominator)


def rat_to_str(q):
    """Canonical lossless string: "num" for integers, "num/den" otherwise."""
    n, d = int(q.numerator), int(q.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


def rat_to_decimal_str(q, digits=15):
    """Decimal rendering, correctly rounded (half-even) to `digits` significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        value = decimal.Decimal(int(q.numerator)) / decimal.Decimal(int(q.denominator))
    return str(value)


def as_float(q):
    """Nearest binary64 value (int/int division is correctly rounded)."""
    return int(q.numerator) / int(q.denominator)
