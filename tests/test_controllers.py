"""Controller behavior tests.

The hill-climber tests lean on a reconstruction oracle: a clone of the
controller's generator replays the same candidate draw, and the selection
rules (first best candidate, strict improvement, dispersion tie-break) are
re-applied with plain loops. The controller must land on the same vector.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ctosim import controllers
from ctosim.controllers import (
    KMEANS_MAX_ITERS,
    PERTURB_MAG,
    ControlInput,
    ControllerKind,
    _covered_counts,
    hc_control,
    hc_h_control,
    hc_hp_control,
    kmeans_control,
)
from ctosim.geometry import Point
from ctosim.metrics import mean_pairwise_observer_distance, observation_matrix
from ctosim.world import (
    ARENA,
    generate_random_graph,
    predict_target,
    random_target_state,
    target_point,
)
from oracles import kmeans_lloyd_reference, observed_count_loops


def _pts(rows):
    return [Point(float(x), float(y)) for x, y in rows]


def _mk_input(dests, targets, sr, seed, positions=None):
    return ControlInput(
        observer_points=tuple(_pts(positions if positions is not None else dests)),
        current_destinations=tuple(_pts(dests)),
        target_eval_points=tuple(_pts(targets)),
        sr=sr,
        rng=np.random.default_rng(seed),
    )


def score(dests, targets, sr) -> tuple[float, float]:
    """A destination vector's (coverage, spread), scored as if observers
    already stood there; tuples compare lexicographically."""
    covered = int(observation_matrix(dests, targets, sr).any(axis=0).sum())
    return covered / len(targets), mean_pairwise_observer_distance(dests)


def _loop_mean_pairwise(rows) -> float:
    acc, n = 0.0, 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            acc += math.dist(rows[i], rows[j])
            n += 1
    return acc / n


def _first_argmax(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def _replay_candidates(dests, seed, n_candidates):
    """The climber's candidate draw, replayed on a cloned generator."""
    rng = np.random.default_rng(seed)
    base = np.asarray(dests, dtype=float)
    offsets = rng.uniform(-PERTURB_MAG, PERTURB_MAG, size=(n_candidates,) + base.shape)
    return np.clip(base + offsets, 0.0, np.asarray(ARENA))


def _expected_hc(dests, targets, sr, seed, n_candidates, use_dispersion):
    """Re-derive the hill-climb outcome with loops and a cloned generator."""
    cands = _replay_candidates(dests, seed, n_candidates)
    cur = observed_count_loops(dests, targets, sr)
    counts = [observed_count_loops(c.tolist(), targets, sr) for c in cands]
    best = _first_argmax(counts)
    if counts[best] > cur:
        return cands[best].tolist()
    if not use_dispersion or len(dests) < 2:
        return [list(d) for d in dests]
    tied = [i for i, c in enumerate(counts) if c == cur]
    if not tied:
        return [list(d) for d in dests]
    spreads = [_loop_mean_pairwise(cands[i].tolist()) for i in tied]
    pick = tied[_first_argmax(spreads)]
    if _loop_mean_pairwise(cands[pick].tolist()) > _loop_mean_pairwise(dests):
        return cands[pick].tolist()
    return [list(d) for d in dests]


def _as_rows(points) -> list[list[float]]:
    return [[p.x, p.y] for p in points]


class TestControlInputValidation:
    def test_destination_count_must_match(self):
        with pytest.raises(ValueError, match="one destination per observer"):
            ControlInput(
                observer_points=tuple(_pts([(0, 0), (1, 1)])),
                current_destinations=tuple(_pts([(0, 0)])),
                target_eval_points=tuple(_pts([(5, 5)])),
                sr=5.0,
                rng=np.random.default_rng(0),
            )

    def test_needs_an_observer(self):
        with pytest.raises(ValueError, match="at least one observer"):
            ControlInput((), (), tuple(_pts([(5, 5)])), 5.0, np.random.default_rng(0))

    def test_sensor_range_positive(self):
        with pytest.raises(ValueError, match="sensor range"):
            _mk_input([(0, 0)], [(5, 5)], 0.0, 0)

    def test_nan_sensor_range_rejected(self):
        # nan passes `sr <= 0`; the climbers then kept every destination
        # because no target ever counted
        with pytest.raises(ValueError, match="sensor range"):
            _mk_input([(0, 0)], [(5, 5)], math.nan, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["observer_points", "current_destinations", "target_eval_points"])
    def test_points_must_be_finite(self, field, bad):
        # a nan target made kmeans return Point(nan, ...), and a nan
        # destination came back from the climbers unchanged
        points = {
            "observer_points": tuple(_pts([(0, 0), (1, 1)])),
            "current_destinations": tuple(_pts([(0, 0), (1, 1)])),
            "target_eval_points": tuple(_pts([(5, 5), (6, 6)])),
        }
        points[field] = (points[field][0], Point(bad, 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            ControlInput(**points, sr=5.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [(1.0,), (1.0, 1.0, 3.0)])
    @pytest.mark.parametrize("field", ["observer_points", "current_destinations", "target_eval_points"])
    def test_points_must_be_pairs(self, field, bad):
        # a 3-coordinate destination or target went through: k-means and the
        # climbers convert only the fields they read, and the scan chained
        # every coordinate without counting them
        points = {
            "observer_points": ((0.0, 0.0), (1.0, 1.0)),
            "current_destinations": ((0.0, 0.0), (1.0, 1.0)),
            "target_eval_points": ((5.0, 5.0), (6.0, 6.0)),
        }
        points[field] = (points[field][0], bad)
        with pytest.raises(ValueError, match=r"must be finite \(x, y\) pairs"):
            ControlInput(**points, sr=5.0, rng=np.random.default_rng(0))


def test_controller_kind_parse():
    assert ControllerKind.parse("kmeans") is ControllerKind.KMEANS
    assert ControllerKind.parse("hc") is ControllerKind.HC
    assert ControllerKind.parse("hc-h") is ControllerKind.HC_H
    assert ControllerKind.parse("hc-hp") is ControllerKind.HC_HP
    with pytest.raises(ValueError, match="unknown controller"):
        ControllerKind.parse("greedy")


class TestEvaluateCandidate:
    def test_scores_the_candidate_positions_not_the_current_ones(self):
        # score is computed as if observers stood at the candidate already
        rho_new, rho_ob = score(_pts([(10, 10), (90, 90)]), _pts([(12, 10), (88, 90)]), 5.0)
        assert rho_new == 1.0
        assert math.isclose(rho_ob, math.dist((10, 10), (90, 90)), rel_tol=1e-12)

    def test_agrees_with_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dests = rng.uniform(0.0, 150.0, size=(4, 2)).tolist()
            tgts = rng.uniform(0.0, 150.0, size=(7, 2)).tolist()
            sr = float(rng.uniform(2.0, 40.0))
            rho_new, _ = score(_pts(dests), _pts(tgts), sr)
            assert rho_new == observed_count_loops(dests, tgts, sr) / 7


class TestPerturb:
    """The hill climbers' candidates: each coordinate of the current
    destinations nudged by U[-PERTURB_MAG, PERTURB_MAG], then clamped to the
    arena."""

    def test_stays_within_arena_and_magnitude(self):
        # no candidate can see the far target, so hc-h adopts the most
        # spread-out candidate whenever it beats the current spread
        base = [(0.0, 0.0), (149.0, 149.0), (75.0, 75.0)]
        adopted = 0
        for seed in range(100):
            out = hc_h_control(_mk_input(base, [(0.0, 150.0)], 1.0, seed), 5)
            adopted += out != _pts(base)
            for (bx, by), p in zip(base, out):
                assert 0.0 <= p.x <= 150.0 and 0.0 <= p.y <= 150.0
                assert abs(p.x - bx) <= 10.0 and abs(p.y - by) <= 10.0
        assert adopted > 0

    def test_deterministic_per_seed(self):
        base = [(10, 10), (20, 20)]
        a = hc_h_control(_mk_input(base, [(140, 140)], 1.0, 3), 5)
        b = hc_h_control(_mk_input(base, [(140, 140)], 1.0, 3), 5)
        assert a == b

    @pytest.mark.parametrize("n", [1, 12, 1000])
    @pytest.mark.parametrize("seed", [0, 23, 2**32 - 1])
    def test_draw_is_generator_uniform_bit_for_bit(self, monkeypatch, n, seed):
        # The candidates are drawn in place with Generator.uniform's
        # arithmetic; a numpy whose uniform rounds otherwise fails here.
        # Destinations PERTURB_MAG inside the arena leave the clip idle.
        dests = np.random.default_rng(seed + 1).uniform(PERTURB_MAG, ARENA[0] - PERTURB_MAG, size=(n, 2))
        scored = []

        def spy(sets, targets, sr):
            scored.append(sets.copy())
            return np.zeros(len(sets), dtype=int)

        monkeypatch.setattr(controllers, "_covered_counts", spy)
        for n_candidates in (1, 100):
            hc_control(_mk_input(dests, [(75.0, 75.0)], 5.0, seed), n_candidates)
            offsets = np.random.default_rng(seed).uniform(-PERTURB_MAG, PERTURB_MAG, size=(n_candidates, n, 2))
            want = np.concatenate([dests[None], dests + offsets])
            assert scored[-1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 23])
    def test_clip_is_generator_uniform_clipped_to_the_arena(self, monkeypatch, seed):
        # Destinations on the arena's edges and corners, inside it near an
        # edge, and outside it: the clip acts on many candidates.
        w, h = ARENA
        dests = np.array(
            [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h), (0.0, 75.0), (w, 75.0), (75.0, 0.0), (75.0, h),
             (w - 3.0, h - 3.0), (2.0, 140.0), (-5.0, 75.0), (75.0, h + 4.0), (w + 20.0, -20.0)]
        )
        scored = []

        def spy(sets, targets, sr):
            scored.append(sets.copy())
            return np.zeros(len(sets), dtype=int)

        monkeypatch.setattr(controllers, "_covered_counts", spy)
        hc_control(_mk_input(dests, [(75.0, 75.0)], 5.0, seed), 100)
        offsets = np.random.default_rng(seed).uniform(-PERTURB_MAG, PERTURB_MAG, size=(100,) + dests.shape)
        want = np.concatenate([dests[None], np.clip(dests + offsets, 0.0, ARENA)])
        assert scored[-1].tobytes() == want.tobytes()
        clipped = scored[-1][1:]
        assert (clipped == 0.0).any() and (clipped[..., 0] == w).any() and (clipped[..., 1] == h).any()

    def test_arena_is_square(self):
        assert ARENA[0] == ARENA[1], "the climbers clip candidates with the one scalar bound ARENA[0]"

    @pytest.mark.parametrize(
        "control",
        [lambda inp: hc_control(inp, 100), lambda inp: hc_h_control(inp, 100), kmeans_control],
        ids=["hc", "hc-h", "kmeans"],
    )
    def test_adopted_output_is_a_list_of_float_points(self, control):
        # Neither observer sees the target; a candidate within 3 of it does.
        base = [(75.0, 75.0), (10.0, 10.0)]
        out = control(_mk_input(base, [(80.0, 75.0)], 3.0, 0))
        assert out != _pts(base)
        assert type(out) is list and len(out) == len(base)
        assert all(type(p) is Point and type(p.x) is float and type(p.y) is float for p in out)

    def test_input_not_mutated(self):
        base = _pts([(10.0, 10.0)])
        inp = _mk_input(base, [(10.5, 10.0)], 5.0, 0)
        hc_control(inp, 20)
        assert base == [Point(10.0, 10.0)]
        assert inp.current_destinations == (Point(10.0, 10.0),)


def _dense_counts(candidates, targets, sr):
    return observation_matrix(candidates, targets, sr).any(axis=-2).sum(axis=-1)


class TestCoveredCounts:
    """The climbers' pruned scoring kernel against the dense one: the counts
    must be equal, not close, since the argmax and adoption follow them."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_the_dense_kernel(self, data):
        # Any sets, not only the climbers' draws: rows on the arena's edges,
        # inside it and outside it, rows repeated across sets, and one set.
        size = data.draw(st.sampled_from([150.0, 1.0]) | st.floats(0.5, 400.0), "size")
        sr = data.draw(
            st.sampled_from([size, 2.0 * size]) | st.floats(0.01, 1.2 * math.sqrt(2.0) * size), "sr"
        )
        coordinate = st.sampled_from([0.0, size]) | st.floats(0.0, size) | st.floats(-size, 2.0 * size)
        # The OR runs over sets packed eight to a byte: 8 and 16 sets fill
        # whole bytes, 9 and 17 put one set in a byte of its own.
        sets_count = st.integers(1, 20) | st.sampled_from([8, 9, 16, 17])
        s, n = data.draw(sets_count, "sets"), data.draw(st.integers(1, 5), "observers")
        rows = data.draw(st.lists(coordinate, min_size=2 * s * n, max_size=2 * s * n))
        sets = np.array(rows).reshape(s, n, 2)
        for _ in range(data.draw(st.integers(0, 3), "repeats")):
            i, j, k = (data.draw(st.integers(0, m - 1)) for m in (s, s, n))
            sets[i, k] = sets[j, k]
        lo, hi = sets.min(axis=0), sets.max(axis=0)

        signs = st.sampled_from([-1.0, 1.0])
        far = -10.0 * (sr + 3.0 * size)
        targets = []
        for _ in range(data.draw(st.integers(0, 6), "targets")):
            kind = data.draw(st.sampled_from(["free", "row", "axis", "diagonal", "far"]))
            i, k = data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, n - 1))
            axis, sign = data.draw(st.integers(0, 1)), data.draw(signs)
            if kind == "free":
                targets.append([data.draw(coordinate), data.draw(coordinate)])
            elif kind == "row":
                # exactly sr from one row, along an axis
                t = sets[i, k].copy()
                t[axis] += sign * sr
                targets.append(t)
            elif kind == "axis":
                # sr beyond the box's side, level with one of its rows
                t = sets[i, k].copy()
                t[axis] = (hi if sign > 0 else lo)[k, axis] + sign * sr
                targets.append(t)
            elif kind == "diagonal":
                # sr beyond a corner of the box, on its diagonal
                corner = np.array([data.draw(signs), data.draw(signs)])
                targets.append(np.where(corner > 0, hi[k], lo[k]) + corner * sr / math.sqrt(2.0))
            else:
                targets.append([far, far])
        targets = np.array(targets, dtype=float).reshape(len(targets), 2)

        got = _covered_counts(sets, targets, sr)
        assert np.array_equal(got, _dense_counts(sets, targets, sr))

    def test_target_on_the_reach_boundary_is_kept(self):
        # the second set's row sees the target at exactly sr: the differences
        # 3 and 4 are exact, and 9 + 16 is 25. That row is the nearest corner
        # of the box the two rows span, so the prune computes the same
        # distance and must keep the pair by the kernel's own closed test.
        base = np.array([[62.42, 22.18]])
        sets = np.stack([base, base - 1.6])
        targets = sets[1] - [3.0, 4.0]
        assert _dense_counts(sets, targets, 5.0).tolist() == [0, 1]
        assert _covered_counts(sets, targets, 5.0).tolist() == [0, 1]

    def test_destination_outside_the_arena_is_scored_exactly(self):
        # clipping (-30 + offset, y) to x = 0 moves each candidate 20 to 40
        # units, more than PERTURB_MAG; the box spans the incumbent and the
        # clipped candidates alike, so the candidates that see the target
        # are scored and one is adopted
        dests, targets = [(-30.0, 75.0)], [(2.0, 75.0)]
        out = hc_control(_mk_input(dests, targets, 3.0, seed=0), 50)
        want = _expected_hc(dests, targets, 3.0, 0, 50, use_dispersion=False)
        assert _as_rows(out) == want
        assert out[0].x == 0.0 and out[0] != Point(-30.0, 75.0)


class TestHillClimb:
    def test_unreachable_targets_leave_destinations_alone(self):
        # nothing any candidate could see: every count ties at zero and the
        # plain climber has no dispersion rule to fall back on
        dests = [(10.0, 10.0), (20.0, 10.0), (15.0, 20.0)]
        out = hc_control(_mk_input(dests, [(140.0, 140.0)], 5.0, seed=0), 100)
        assert out == _pts(dests)

    def test_adopts_a_covering_candidate(self):
        # targets sit 7 away from every destination with sr 2: only a lucky
        # candidate covers them, and with this seed at least one does
        dests = [(50.0, 50.0), (52.0, 50.0)]
        targets = [(55.0, 55.0), (56.0, 55.0)]
        inp = _mk_input(dests, targets, 2.0, seed=12)
        out = hc_control(inp, 200)
        assert out != _pts(dests)
        assert observed_count_loops(_as_rows(out), targets, 2.0) > 0

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reconstruction(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 12))
        dests = rng.uniform(0.0, 150.0, size=(n, 2)).tolist()
        targets = rng.uniform(0.0, 150.0, size=(m, 2)).tolist()
        sr = float(rng.uniform(3.0, 25.0))
        out = hc_control(_mk_input(dests, targets, sr, seed=seed), 60)
        want = _expected_hc(dests, targets, sr, seed, 60, use_dispersion=False)
        assert np.allclose(_as_rows(out), want, atol=1e-12)


class TestHillClimbWithDispersion:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reconstruction(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 12))
        dests = rng.uniform(0.0, 150.0, size=(n, 2)).tolist()
        targets = rng.uniform(0.0, 150.0, size=(m, 2)).tolist()
        sr = float(rng.uniform(3.0, 25.0))
        out = hc_h_control(_mk_input(dests, targets, sr, seed=seed), 60)
        want = _expected_hc(dests, targets, sr, seed, 60, use_dispersion=True)
        assert np.allclose(_as_rows(out), want, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_choice_equals_the_loop_oracle(self, data):
        # The spread tie-break scores the incumbent and the candidates whose
        # coverage ties the incumbent's in one batch. Targets are placed against the replayed draw so that every candidate ties,
        # exactly one does, none does, or (free) whatever a random draw gives.
        ties = data.draw(st.sampled_from(["every", "one", "none", "free"]), "ties")
        n = data.draw(st.integers(2, 5), "observers")
        n_candidates = data.draw(st.integers(1, 30), "candidates")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        coordinate = st.floats(0.0, 150.0)
        dests = [(data.draw(coordinate), data.draw(coordinate)) for _ in range(n)]
        cands = _replay_candidates(dests, seed, n_candidates)
        sr = 1e-3
        if ties == "every":
            # out of everyone's reach: every count is 0, the incumbent's too
            targets = [(-200.0, -200.0), (400.0, 75.0)]
        elif ties == "none":
            # the incumbent sees a target that no candidate keeps in sight
            targets = [dests[0]]
        elif ties == "one":
            # ... and one candidate sees another target instead
            i = data.draw(st.integers(0, n_candidates - 1), "tied candidate")
            targets = [dests[0], tuple(cands[i, n - 1])]
        else:
            sr = data.draw(st.floats(0.5, 60.0), "sr")
            m = data.draw(st.integers(1, 8), "targets")
            targets = [(data.draw(coordinate), data.draw(coordinate)) for _ in range(m)]
        current = observed_count_loops(dests, targets, sr)
        counts = [observed_count_loops(c.tolist(), targets, sr) for c in cands]
        n_tied = counts.count(current)
        if ties != "free":
            assume(max(counts) <= current)
            assume(n_tied == {"every": n_candidates, "one": 1, "none": 0}[ties])
        event(f"{n_tied if n_tied < 2 else 'several'} tied, improved: {max(counts) > current}")

        out = hc_h_control(_mk_input(dests, targets, sr, seed), n_candidates)
        assert _as_rows(out) == _expected_hc(dests, targets, sr, seed, n_candidates, True)

    def test_spreads_out_when_coverage_is_stuck(self):
        # all candidates tie at zero coverage; the tie-break should adopt a
        # candidate with strictly larger mean pairwise spread
        dests = [(70.0, 70.0), (72.0, 70.0), (71.0, 72.0)]
        inp = _mk_input(dests, [(5.0, 145.0)], 3.0, seed=4)
        out = hc_h_control(inp, 100)
        assert out != _pts(dests)
        assert _loop_mean_pairwise(_as_rows(out)) > _loop_mean_pairwise(dests)

    def test_corner_posts_cannot_be_improved(self):
        # four corners maximize mean pairwise distance in the arena, and no
        # candidate can raise zero coverage: destinations must be kept
        dests = [(0.0, 0.0), (150.0, 0.0), (0.0, 150.0), (150.0, 150.0)]
        inp = _mk_input(dests, [(75.0, 75.0)], 1.0, seed=8)
        out = hc_h_control(inp, 100)
        assert out == _pts(dests)

    def test_candidates_equal_to_the_incumbent_keep_it(self, monkeypatch):
        # with PERTURB_MAG 0 every candidate is the incumbent itself, so it
        # ties in coverage and in spread; a tie keeps the current
        # destinations, the very objects and not equal copies
        g, states = TestHillClimbWithPrediction._world(7)
        dests = [(20.0, 30.0), (75.0, 75.0), (140.0, 10.0)]
        cur = [target_point(g, s) for s in states]
        monkeypatch.setattr(controllers, "PERTURB_MAG", 0.0)
        for control, extra in ((hc_h_control, ()), (hc_hp_control, (10, g, states))):
            inp = _mk_input(dests, cur, 15.0, seed=5)
            out = control(inp, 100, *extra)
            assert len(out) == len(dests)
            assert all(a is b for a, b in zip(out, inp.current_destinations))

    def test_never_lexicographically_worse(self):
        rng = np.random.default_rng(77)
        for trial in range(60):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 15))
            dests = rng.uniform(0.0, 150.0, size=(n, 2)).tolist()
            targets = rng.uniform(0.0, 150.0, size=(m, 2)).tolist()
            sr = float(rng.uniform(2.0, 30.0))
            inp = _mk_input(dests, targets, sr, seed=trial)
            out = hc_h_control(inp, 50)
            before = score(_pts(dests), _pts(targets), sr)
            after = score(out, _pts(targets), sr)
            assert after >= before


class TestHillClimbWithPrediction:
    @staticmethod
    def _world(seed):
        g = generate_random_graph(12, seed)
        rng = np.random.default_rng(seed + 1)
        states = tuple(random_target_state(g, 0.5, rng) for _ in range(8))
        return g, states

    def test_horizon_zero_reduces_to_plain_dispersion_climber(self):
        for seed in range(20):
            g, states = self._world(300 + seed)
            rng = np.random.default_rng(seed)
            dests = rng.uniform(0.0, 150.0, size=(5, 2)).tolist()
            cur = [target_point(g, s) for s in states]
            a = hc_hp_control(_mk_input(dests, cur, 15.0, seed), 80, 0, g, states)
            b = hc_h_control(_mk_input(dests, cur, 15.0, seed), 80)
            assert a == b

    def test_scores_against_projected_positions(self):
        # with a shared candidate draw, the predictive variant always does at
        # least as well as the plain one when judged at the projected points,
        # and vice versa at the current points
        for seed in range(30):
            g, states = self._world(600 + seed)
            rng = np.random.default_rng(seed)
            dests = rng.uniform(0.0, 150.0, size=(4, 2)).tolist()
            cur = [target_point(g, s) for s in states]
            pred = [predict_target(g, s, 10) for s in states]
            r_hp = hc_hp_control(_mk_input(dests, cur, 12.0, seed), 60, 10, g, states)
            r_h = hc_h_control(_mk_input(dests, pred, 12.0, seed), 60)
            # r_h above was fed the projected points on purpose: both calls
            # then see identical candidate sets and identical scoring, so the
            # results must agree exactly
            assert r_hp == r_h

    def test_prediction_profits_when_targets_drift(self):
        # judged at the true projected positions, the predictive pick must be
        # at least as good as the non-predictive pick made from the same draw
        wins = 0
        for seed in range(30):
            g, states = self._world(900 + seed)
            rng = np.random.default_rng(seed)
            dests = rng.uniform(0.0, 150.0, size=(4, 2)).tolist()
            cur = [target_point(g, s) for s in states]
            pred = [predict_target(g, s, 10) for s in states]
            r_hp = hc_hp_control(_mk_input(dests, cur, 12.0, seed), 60, 10, g, states)
            r_h = hc_h_control(_mk_input(dests, cur, 12.0, seed), 60)
            at_pred_hp = observed_count_loops(_as_rows(r_hp), pred, 12.0)
            at_pred_h = observed_count_loops(_as_rows(r_h), pred, 12.0)
            assert at_pred_hp >= at_pred_h
            wins += at_pred_hp > at_pred_h
        assert wins > 0  # the advantage is real, not vacuous

    def test_negative_horizon_rejected(self):
        g, states = self._world(42)
        with pytest.raises(ValueError):
            hc_hp_control(_mk_input([(0, 0), (1, 1)], [(5, 5)], 5.0, 0), 10, -1, g, states)


class TestKmeans:
    def test_two_clear_groups(self):
        targets = [(9.0, 9.0), (11.0, 10.0), (10.0, 12.0), (89.0, 91.0), (91.0, 90.0), (90.0, 88.0)]
        inp = _mk_input([(10.0, 10.0), (90.0, 90.0)], targets, 15.0, 0)
        out = kmeans_control(inp)
        assert math.isclose(out[0].x, 10.0, abs_tol=1e-9)
        assert math.isclose(out[0].y, 31.0 / 3.0, abs_tol=1e-9)
        assert math.isclose(out[1].x, 90.0, abs_tol=1e-9)
        assert math.isclose(out[1].y, 269.0 / 3.0, abs_tol=1e-9)

    def test_empty_clusters_keep_their_centroid(self):
        # every target is closest to the third observer, so the first two
        # clusters are empty and those observers stay put
        inp = _mk_input(
            [(0.0, 0.0), (50.0, 50.0), (100.0, 100.0)],
            [(100.0, 100.0), (100.0, 100.0), (100.0, 100.0)],
            15.0,
            0,
        )
        out = kmeans_control(inp)
        assert out == _pts([(0.0, 0.0), (50.0, 50.0), (100.0, 100.0)])

    def test_already_converged_positions_do_not_move(self):
        targets = [(9.0, 9.0), (11.0, 11.0), (89.0, 89.0), (91.0, 91.0)]
        inp = _mk_input([(10.0, 10.0), (90.0, 90.0)], targets, 15.0, 0)
        assert kmeans_control(inp) == _pts([(10.0, 10.0), (90.0, 90.0)])

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        obs = rng.uniform(0.0, 150.0, size=(5, 2)).tolist()
        tgt = rng.uniform(0.0, 150.0, size=(20, 2)).tolist()
        a = kmeans_control(_mk_input(obs, tgt, 15.0, 0))
        b = kmeans_control(_mk_input(obs, tgt, 15.0, 1))  # rng is unused
        assert a == b

    def test_needs_targets(self):
        with pytest.raises(ValueError, match="at least one target"):
            kmeans_control(_mk_input([(0, 0)], [], 5.0, 0))

    @staticmethod
    def _wcss(rows, cents):
        pts = np.asarray(rows)
        cs = np.asarray(cents)
        d2 = ((pts[:, None, :] - cs[None, :, :]) ** 2).sum(axis=2)
        return float(d2.min(axis=1).sum())

    def test_result_is_a_fixed_point(self):
        # feeding the output back in as the start must change nothing, bit
        # for bit: the returned centroids are Lloyd's fixed point
        rng = np.random.default_rng(11)
        for _ in range(30):
            obs = rng.uniform(0.0, 150.0, size=(4, 2)).tolist()
            tgt = rng.uniform(0.0, 150.0, size=(20, 2)).tolist()
            out = kmeans_control(_mk_input(obs, tgt, 15.0, 0))
            again = kmeans_control(_mk_input(_as_rows(out), tgt, 15.0, 0))
            assert again == out

    def test_never_worse_than_the_start(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            obs = rng.uniform(0.0, 150.0, size=(5, 2)).tolist()
            tgt = rng.uniform(0.0, 150.0, size=(25, 2)).tolist()
            out = kmeans_control(_mk_input(obs, tgt, 15.0, 0))
            assert self._wcss(tgt, _as_rows(out)) <= self._wcss(tgt, obs) + 1e-9

    def test_matches_reference_lloyd_from_same_start(self):
        # independent reimplementation: same init, same empty-cluster rule,
        # same stop rule, different numpy idioms
        def reference(pts, init, max_iters=50):
            cents = init.copy()
            for _ in range(max_iters):
                d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
                assign = d2.argmin(axis=1)
                new = cents.copy()
                for c in range(len(cents)):
                    mask = assign == c
                    if mask.any():
                        new[c] = pts[mask].mean(axis=0)
                if (new == cents).all():
                    break
                cents = new
            return cents

        rng = np.random.default_rng(17)
        for _ in range(50):
            obs = rng.uniform(0.0, 150.0, size=(4, 2))
            tgt = rng.uniform(0.0, 150.0, size=(20, 2))
            out = kmeans_control(_mk_input(obs.tolist(), tgt.tolist(), 15.0, 0))
            want = reference(tgt, obs)
            assert np.allclose(_as_rows(out), want, atol=1e-9)


def _kmeans_hex(targets, observers):
    """The controller's and the reference loop's centroids as hex strings,
    and the reference's round count."""
    out = kmeans_control(_mk_input(observers.tolist(), targets.tolist(), 15.0, 0))
    want, rounds = kmeans_lloyd_reference(targets, observers, KMEANS_MAX_ITERS)
    got = [(p.x.hex(), p.y.hex()) for p in out]
    return got, [(float(x).hex(), float(y).hex()) for x, y in want], rounds


@settings(max_examples=300, deadline=None)
@given(
    n_obs=st.integers(min_value=1, max_value=12),
    n_tgt=st.integers(min_value=1, max_value=40),
    layout=st.sampled_from(["uniform", "grid", "coincident", "clumps"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kmeans_equals_the_loop_without_the_early_exit(n_obs, n_tgt, layout, seed):
    rng = np.random.default_rng(seed)
    observers = rng.uniform(0.0, 150.0, size=(n_obs, 2))
    targets = rng.uniform(0.0, 150.0, size=(n_tgt, 2))
    if layout == "grid":  # a coarse grid: equal distances, so argmin ties
        observers, targets = np.round(observers / 25.0) * 25.0, np.round(targets / 25.0) * 25.0
    elif layout == "coincident":  # every target on one point: all clusters but one are empty
        targets[:] = targets[0]
    elif layout == "clumps":  # a few tight clumps: clusters empty out and merge
        centres = rng.uniform(0.0, 150.0, size=(3, 2))
        targets = centres[rng.integers(3, size=n_tgt)] + rng.normal(0.0, 0.5, size=(n_tgt, 2))
    got, want, rounds = _kmeans_hex(targets, observers)
    event(f"rounds {min(rounds, 10)}{'+' if rounds >= 10 else ''}")
    assert got == want


def _slow_lloyd_line(heavy=5, tail=60, chain=60, gap=0.05):
    """Targets on the line y = 75: ``heavy`` at x = 0, ``tail`` at x = 150 and
    ``chain`` between them, placed (by a damped fixed-point iteration) so
    that the cluster boundary of each Lloyd round sits ``gap`` beyond the
    next chain target: the left cluster takes about one target a round."""
    x = np.linspace(1.0, 75.0, chain)
    for _ in range(200):
        bounds = [
            (np.concatenate([np.zeros(heavy), x[:k]]).mean() + np.concatenate([x[k:], np.full(tail, 150.0)]).mean()) / 2
            for k in range(chain)
        ]
        x = 0.5 * x + 0.5 * (np.array(bounds) - gap)
    xs = np.concatenate([np.zeros(heavy), x, np.full(tail, 150.0)])
    return np.stack([xs, np.full(len(xs), 75.0)], axis=1), np.array([[0.0, 75.0], [150.0, 75.0]])


def test_kmeans_equals_the_loop_when_it_runs_every_round():
    targets, observers = _slow_lloyd_line()
    got, want, rounds = _kmeans_hex(targets, observers)
    assert rounds == KMEANS_MAX_ITERS
    assert got == want
