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
    """form(value), or the size of an int beyond the float range: str() refuses one of 4300+ digits."""
    huge = isinstance(value, int) and not -FLOAT_MAX <= value <= FLOAT_MAX
    return f"an integer of {abs(value).bit_length()} bits" if huge else form(value)


def integer(name: str, value, lo: int, hi: float | None = None) -> None:
    """A count: an integer in [lo, hi], or at least lo when hi is None. A
    bool is not one, although it is an int to Python."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
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
