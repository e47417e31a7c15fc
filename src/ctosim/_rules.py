"""The input rules of the public entry points, one function per rule.

Each rule raises ValueError with one wording, naming the value it checks.
A plain int or float never reaches the ``numbers`` checks, which cost about
ten times a comparison: some rules run on every controller call.
"""

from __future__ import annotations

import numbers
import sys

#: The largest float. A number above it, an int such as 10**400 included,
#: cannot take part in float arithmetic.
FLOAT_MAX = sys.float_info.max


def _shown(value, form=str) -> str:
    """form(value), or the size of a rational beyond the float range: str() refuses an int of 4300+ digits."""
    n, d = (value.numerator, value.denominator) if isinstance(value, numbers.Rational) else (0, 1)
    if -FLOAT_MAX <= n <= FLOAT_MAX and d <= FLOAT_MAX:
        return form(value)
    if isinstance(value, int):
        return f"an integer of {abs(n).bit_length()} bits"
    return f"a fraction of a {abs(n).bit_length()}-bit numerator over a {d.bit_length()}-bit denominator"


def integer(name: str, value, lo: int, hi: float | None = None) -> None:
    """A count: an integer in [lo, hi], or at least lo when hi is None. A
    bool is not one, although it is an int to Python."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {_shown(value, repr)}")
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if value < lo else f"at most {hi}"
        raise ValueError(f"{name} must be {bound}, got {_shown(value)}")


def horizon(value) -> None:
    """A prediction horizon: a count >= 0 that converts to a float, since a
    target's projected offset is its speed times the horizon."""
    if type(value) is not int or not 0 <= value <= FLOAT_MAX:
        integer("horizon", value, 0, FLOAT_MAX)


def positive(name: str, value, hi: float = FLOAT_MAX) -> None:
    """A finite real number in (0, hi]; a bool is not one. hi is at most
    FLOAT_MAX, so the one comparison also rejects nan, the infinities and an
    int beyond the float range."""
    if (
        type(value) is not float
        and type(value) is not int
        and (isinstance(value, bool) or not isinstance(value, numbers.Real))
    ) or not 0 < value <= hi:
        bound = "> 0" if hi == FLOAT_MAX else f"in (0, {hi:g}]"
        raise ValueError(f"{name} must be a finite number {bound}, got {_shown(value, repr)}")
