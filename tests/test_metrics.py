"""Coverage metric tests against the loop-based reference implementation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctosim.engine import SimConfig
from ctosim.geometry import Point
from ctosim.metrics import (
    mean_pairwise_observer_distance,
    observation_matrix,
    points_array,
)
from oracles import observed_count_loops


def _pts(rows):
    return [Point(float(x), float(y)) for x, y in rows]


def _observed(matrix) -> int:
    """Targets seen by at least one observer, as the engine counts them."""
    return int(matrix.any(axis=0).sum())


class TestObservationMatrix:
    def test_boundary_is_observed(self):
        # range boundary counts: a target exactly sr away is seen
        m = observation_matrix([Point(0.0, 0.0)], [Point(5.0, 0.0)], sr=5.0)
        assert _observed(m) == 1

    def test_just_outside_is_not_observed(self):
        m = observation_matrix([Point(0.0, 0.0)], [Point(5.0 + 1e-9, 0.0)], sr=5.0)
        assert _observed(m) == 0

    def test_sensor_range_validation(self):
        with pytest.raises(ValueError):
            observation_matrix([Point(0.0, 0.0)], [Point(1.0, 0.0)], sr=0.0)

    def test_nan_sensor_range_rejected(self):
        # nan passes `sr <= 0`, and then every comparison reads "not seen"
        with pytest.raises(ValueError, match="sensor range"):
            observation_matrix([Point(0.0, 0.0)], [Point(1.0, 0.0)], sr=math.nan)

    def test_rim_case_agrees_with_the_loop_oracle(self):
        # sqrt(d²) rounds to sr here while d² > sr²: the kernel and the
        # oracle both compare squares, and both miss the target.
        obs = [(96.34415443986684, 27.885939884207655)]
        tgt = [(72.62877641080541, 19.102269167641243)]
        sr = 25.289761294214614
        assert _observed(observation_matrix(_pts(obs), _pts(tgt), sr)) == 0
        assert observed_count_loops(obs, tgt, sr) == 0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            obs = rng.uniform(0.0, 150.0, size=(n, 2))
            tgt = rng.uniform(0.0, 150.0, size=(m, 2))
            sr = float(rng.uniform(1.0, 40.0))
            got = _observed(observation_matrix(_pts(obs), _pts(tgt), sr))
            want = observed_count_loops(obs.tolist(), tgt.tolist(), sr)
            assert got == want
            # the same sets as one (C, N, 2) batch: one count per set
            batch = rng.uniform(0.0, 150.0, size=(int(rng.integers(1, 6)), n, 2))
            counts = observation_matrix(batch, tgt, sr).any(axis=-2).sum(axis=-1)
            assert counts.tolist() == [
                observed_count_loops(c.tolist(), tgt.tolist(), sr) for c in batch
            ]


class TestPointsArray:
    """The one conversion of point sequences: cheaper than np.asarray, and
    as strict about the shape of each point."""

    ROWS = np.random.default_rng(9).uniform(0.0, 150.0, size=(7, 2))

    @pytest.mark.parametrize(
        "convert",
        [_pts, lambda r: [tuple(p) for p in r.tolist()], lambda r: r.tolist(), np.array, list],
        ids=["Point", "tuple", "list", "ndarray", "ndarray rows"],
    )
    def test_every_form_gives_the_same_matrix(self, convert):
        targets = np.random.default_rng(10).uniform(0.0, 150.0, size=(5, 2))
        want = observation_matrix(self.ROWS, targets, 40.0)
        got = observation_matrix(convert(self.ROWS), convert(targets), 40.0)
        assert got.dtype == bool and np.array_equal(got, want)
        arr = points_array(convert(self.ROWS))
        assert arr.shape == (7, 2) and arr.dtype == float
        assert np.array_equal(arr, self.ROWS)

    def test_integer_coordinates_become_floats(self):
        arr = points_array([(1, 2), (3, 4)])
        assert arr.dtype == float and arr.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_no_points_is_an_empty_matrix(self):
        assert points_array([]).shape == (0, 2)
        assert observation_matrix([], [Point(1.0, 1.0)], 5.0).shape == (0, 1)

    @pytest.mark.parametrize(
        "rows",
        [
            [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)],  # three coordinates each
            [(1.0, 2.0, 3.0), (4.0,)],  # ragged, with two coordinates a row on average
            [(1.0, 2.0), (3.0,)],
            np.zeros((3, 3)),
            np.zeros(4),
        ],
        ids=["three coordinates", "ragged", "short row", "3-column array", "flat array"],
    )
    def test_malformed_points_are_rejected(self, rows):
        with pytest.raises(ValueError):
            points_array(rows)
        with pytest.raises(ValueError):
            observation_matrix(rows, [Point(1.0, 1.0)], 5.0)
        with pytest.raises(ValueError):
            observation_matrix([Point(1.0, 1.0)], rows, 5.0)


class TestCoverageFraction:
    def test_no_targets_rejected(self):
        # the fraction of no targets is undefined: the matrix is empty, and a
        # run refuses an empty population before it divides by it
        m = observation_matrix([Point(0.0, 0.0)], [], sr=5.0)
        assert m.shape == (1, 0)
        with pytest.raises(ValueError):
            SimConfig(n_targets=0)


class TestMeanPairwiseDistance:
    def test_two_points(self):
        assert mean_pairwise_observer_distance(_pts([(0, 0), (3, 4)])) == 5.0

    def test_three_points(self):
        # pairs: 5, 5 and 6 -> mean 16/3
        pts = _pts([(0.0, 0.0), (6.0, 0.0), (3.0, 4.0)])
        assert math.isclose(mean_pairwise_observer_distance(pts), 16.0 / 3.0, rel_tol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            mean_pairwise_observer_distance(_pts([(1, 1)]))

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_batch_matches_per_set_calls(self, n):
        batch = np.random.default_rng(n).uniform(0.0, 150.0, size=(40, n, 2))
        means = mean_pairwise_observer_distance(batch)
        assert means.shape == (40,)
        for got, rows in zip(means, batch):
            want = mean_pairwise_observer_distance(_pts(rows))
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_batch_of_one_is_bitwise_the_single_set(self):
        rng = np.random.default_rng(3)
        for n in range(2, 14):
            rows = rng.uniform(0.0, 150.0, size=(n, 2))
            single = mean_pairwise_observer_distance(_pts(rows))
            assert mean_pairwise_observer_distance(rows[None])[0] == single

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shift_x=st.floats(min_value=-50.0, max_value=50.0),
        shift_y=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_translation_changes_nothing_materially(self, seed, shift_x, shift_y):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 100.0, size=(5, 2))
        base = mean_pairwise_observer_distance(_pts(rows))
        shifted = mean_pairwise_observer_distance(_pts(rows + [shift_x, shift_y]))
        assert math.isclose(base, shifted, rel_tol=1e-9, abs_tol=1e-9)
