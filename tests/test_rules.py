"""Input rules: a library entry point rejects a value outside its rule with ValueError."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ctosim.controllers import ControlInput, hc_control, hc_hp_control
from ctosim.engine import SimConfig
from ctosim.geometry import Point
from ctosim.metrics import observation_matrix
from ctosim.world import PlanarGraph, TargetState, predict_target, random_target_state

# an int beyond the float range
HUGE = 10**400

TRIANGLE = PlanarGraph.from_index_pairs(
    [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 30.0)], [(0, 1), (1, 2), (0, 2)]
)
STATE = TargetState(edge=0, toward=1, offset=2.0, speed=0.5)


def _input(sr=5.0, target=(5.0, 5.0)) -> ControlInput:
    return ControlInput(((0.0, 0.0),), (Point(0.0, 0.0),), (target,), sr, np.random.default_rng(0))


# Each value used to pass, or to raise OverflowError or TypeError here or in
# the next step_target.
CASES = {
    "ControlInput-sr-10**400": lambda: _input(sr=HUGE),
    "ControlInput-sr-True": lambda: _input(sr=True),
    "observation_matrix-sr-10**400": lambda: observation_matrix([(0.0, 0.0)], [(1.0, 1.0)], HUGE),
    "observation_matrix-sr-True": lambda: observation_matrix([(0.0, 0.0)], [(1.0, 1.0)], True),
    "random_target_state-speed-10**400": lambda: random_target_state(TRIANGLE, HUGE, np.random.default_rng(0)),
    "random_target_state-speed-True": lambda: random_target_state(TRIANGLE, True, np.random.default_rng(0)),
    "hc_control-n_candidates-1.5": lambda: hc_control(_input(), 1.5),
    "hc_control-n_candidates-True": lambda: hc_control(_input(), True),
    "hc_hp_control-horizon-10**400": lambda: hc_hp_control(_input(), 5, HUGE, TRIANGLE, [STATE]),
    "hc_hp_control-horizon-1.5": lambda: hc_hp_control(_input(), 5, 1.5, TRIANGLE, [STATE]),
    "hc_hp_control-horizon-True": lambda: hc_hp_control(_input(), 5, True, TRIANGLE, [STATE]),
    "predict_target-horizon-10**400": lambda: predict_target(TRIANGLE, STATE, HUGE),
    "predict_target-horizon-1.5": lambda: predict_target(TRIANGLE, STATE, 1.5),
    "predict_target-horizon-True": lambda: predict_target(TRIANGLE, STATE, True),
    "ControlInput-coordinate-10**400": lambda: _input(target=(HUGE, 5.0)),
}


@pytest.mark.parametrize("case", CASES)
def test_entry_point_rejects_a_value_outside_its_rule(case):
    with pytest.raises(ValueError):
        CASES[case]()


# Python turns no int of more than 4300 digits into a string, so these raised
# its "Exceeds the limit" error in place of the rule's message.
HUGE_MESSAGES = {
    "steps": (-(10**5000), "steps must be >= 1, got an integer of 16610 bits"),
    "n_observers": (10**5000, "n_observers must be at most 1000, got an integer of 16610 bits"),
    "sr": (-(10**5000), "sr must be a finite number > 0, got an integer of 16610 bits"),
}


@pytest.mark.parametrize("field", HUGE_MESSAGES)
def test_an_int_too_long_to_print_is_shown_by_its_size(field):
    value, message = HUGE_MESSAGES[field]
    with pytest.raises(ValueError) as caught:
        SimConfig(**{field: value})
    assert str(caught.value) == message


# A Fraction prints its numerator and denominator, so one of more than 4300
# digits raised the same "Exceeds the limit" error; it is shown by bit counts.
FRACTION_MESSAGES = {
    "ur": (Fraction(1, 10**5000), "update rate a fraction of a 1-bit numerator over a 16610-bit denominator"
           " is too small: 1/ur is not finite"),
    "sr": (Fraction(10**5000, 3), "sr must be a finite number > 0, got a fraction of a 16610-bit numerator"
           " over a 2-bit denominator"),
    "rv": (Fraction(-(10**5000), 3), "rv must be a finite number in (0, 212.132], got a fraction of a"
           " 16610-bit numerator over a 2-bit denominator"),
    "steps": (Fraction(10**5000, 3), "steps must be an integer, got a fraction of a 16610-bit numerator"
              " over a 2-bit denominator"),
}


@pytest.mark.parametrize("field", FRACTION_MESSAGES)
def test_a_fraction_too_long_to_print_is_shown_by_its_size(field):
    value, message = FRACTION_MESSAGES[field]
    with pytest.raises(ValueError) as caught:
        SimConfig(**{field: value})
    assert str(caught.value) == message


def test_a_fraction_in_the_float_range_is_shown_as_is():
    with pytest.raises(ValueError, match=r"got Fraction\(-1, 3\)$"):
        SimConfig(sr=Fraction(-1, 3))
