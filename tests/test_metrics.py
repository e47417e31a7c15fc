"""Coverage metric tests against the loop-based reference implementation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctosim.geometry import Point
from ctosim.metrics import (
    finalize_rho,
    mean_pairwise_observer_distance,
    observation_matrix,
)
from oracles import observed_count_loops


def _pts(rows):
    return [Point(float(x), float(y)) for x, y in rows]


def _observed(matrix) -> int:
    """Targets seen by at least one observer, as the engine counts them."""
    return int(matrix.any(axis=0).sum())


def _coverage(matrix) -> float:
    return _observed(matrix) / matrix.shape[1]


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


class TestCoverageFraction:
    def test_double_observation_counts_once(self):
        # two observers both inside range of the one target: fraction is 1, not 2
        m = observation_matrix(
            [Point(0.0, 0.0), Point(1.0, 0.0)], [Point(0.5, 0.0)], sr=5.0
        )
        assert _coverage(m) == 1.0

    def test_partial_coverage(self):
        m = observation_matrix(
            [Point(0.0, 0.0)], [Point(1.0, 0.0), Point(100.0, 0.0)], sr=5.0
        )
        assert _coverage(m) == 0.5

    def test_no_targets_rejected(self):
        # the fraction of no targets is undefined: the matrix is empty and
        # the coverage index refuses an empty population
        m = observation_matrix([Point(0.0, 0.0)], [], sr=5.0)
        assert m.shape == (1, 0)
        with pytest.raises(ValueError):
            finalize_rho(_observed(m), 1, m.shape[1])


class TestAccumulation:
    def test_running_totals(self):
        m1 = observation_matrix([Point(0.0, 0.0)], [Point(1.0, 0.0), Point(99.0, 0.0)], 5.0)
        m2 = observation_matrix([Point(99.0, 0.0)], [Point(1.0, 0.0), Point(99.0, 0.0)], 5.0)
        counts = [_observed(m) for m in (m1, m2)]
        assert len(counts) == 2
        assert sum(counts) == 2

    def test_finalize_is_exact_division(self):
        assert finalize_rho(18000, 1500, 24) == 0.5

    def test_finalize_requires_steps(self):
        with pytest.raises(ValueError):
            finalize_rho(0, 0, 24)

    def test_finalize_requires_targets(self):
        with pytest.raises(ValueError):
            finalize_rho(5, 10, 0)

    def test_equals_mean_of_per_step_fractions(self):
        rng = np.random.default_rng(1)
        observed_sum = 0
        fracs = []
        for _ in range(50):
            obs = _pts(rng.uniform(0.0, 150.0, size=(6, 2)))
            tgt = _pts(rng.uniform(0.0, 150.0, size=(9, 2)))
            m = observation_matrix(obs, tgt, 20.0)
            observed_sum += _observed(m)
            fracs.append(_coverage(m))
        assert math.isclose(finalize_rho(observed_sum, 50, 9), float(np.mean(fracs)), rel_tol=1e-12)


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
