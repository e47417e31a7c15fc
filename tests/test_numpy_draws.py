"""The numpy draws that ρ rests on, pinned.

numpy keeps each bit generator's stream stable between releases, but it
may change the algorithm of a ``Generator`` method. Every ρ pin rests on
three of them: ``random`` and ``uniform``, which today are
``L · ((w >> 11) · 2⁻⁵³)`` over the bit generator's 64-bit words ``w``,
and ``integers(k)``, pinned here by a digest of its draws. A numpy whose
draws differ fails here with its version named, not only with a bare ρ
mismatch elsewhere.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np
import pytest

from ctosim.controllers import N_CANDIDATES
from ctosim.engine import SimConfig
from ctosim.world import ARENA

SEEDS = (0, 1, 7, 23, 1000)
DEFAULT = SimConfig()

# The k of the model's integers(k) calls at the default 40 vertices: 2 for a
# target's heading, 104-112 edges for its starting edge and vertex degrees
# 2-12 for a crossing, over seeds 0-199.
INTEGER_BOUNDS = (2, *range(3, 13), *range(104, 113))
INTEGERS_SHA256 = "43ed4d420448dc1f9f54f1907ae903b43f521b68c75d51631add5a68020dda3a"


def _numpy_named(what: str) -> str:
    return f"numpy {np.__version__}: {what}; the rho pins were recorded under numpy 2.4.6"


def _streams(seed: int) -> dict[str, np.random.Generator]:
    """The model's four streams for one seed, as run_simulation and generate_random_graph seed them."""
    names = ("graph", "targets", "observers", "controller")
    return dict(zip(names, map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))))


def _unit_doubles(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """(w >> 11) · 2⁻⁵³ over the next words of a copy of rng's bit generator."""
    words = copy.deepcopy(rng.bit_generator).random_raw(int(np.prod(shape)))
    return ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shape)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_and_uniform_are_the_word_transform(seed):
    streams = _streams(seed)
    points_shape = (DEFAULT.n_vertices, 2)
    expected = np.asarray(ARENA) * _unit_doubles(streams["graph"], points_shape)
    got = streams["graph"].uniform(0.0, ARENA, size=points_shape)
    assert got.tobytes() == expected.tobytes(), _numpy_named("uniform over the graph's points moved")

    starts_shape = (DEFAULT.n_observers, 2)
    expected = np.asarray(ARENA) * _unit_doubles(streams["observers"], starts_shape)
    got = streams["observers"].uniform(0.0, ARENA, size=starts_shape)
    assert got.tobytes() == expected.tobytes(), _numpy_named("uniform over the observers' starts moved")

    batch_shape = (N_CANDIDATES, DEFAULT.n_observers, 2)
    expected = _unit_doubles(streams["controller"], batch_shape)
    got = streams["controller"].random(out=np.empty(batch_shape))
    assert got.tobytes() == expected.tobytes(), _numpy_named("random over a candidate batch moved")

    length = 37.5  # a scalar draw, as a target's offset along its edge
    expected = length * _unit_doubles(streams["targets"], ())
    got = streams["targets"].uniform(0.0, length)
    assert got.hex() == float(expected).hex(), _numpy_named("scalar uniform over an edge moved")


def test_integers_draws_are_pinned():
    # Scalar calls, as the model makes them, cycling through the bounds; two
    # calls share one 64-bit word, so the interleaving is part of the pin.
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = _streams(seed)["targets"]
        draws = [int(rng.integers(k)) for _ in range(50) for k in INTEGER_BOUNDS]
        digest.update(np.array(draws, dtype=np.int64).tobytes())
    assert digest.hexdigest() == INTEGERS_SHA256, _numpy_named("integers(k) draws moved")
