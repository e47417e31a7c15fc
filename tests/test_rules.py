"""Input rules: a library entry point rejects a value outside its rule with ValueError."""

from __future__ import annotations

import numpy as np
import pytest

from ctosim.controllers import ControlInput, hc_control, hc_hp_control
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
