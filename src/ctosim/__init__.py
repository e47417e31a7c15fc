"""Cooperative target observation: simulator, controllers, benchmark harness.

The top level holds what a user needs to run a simulation or a sweep; every
other name lives in its own module (``ctosim.world.step_target``, ...).
The sweep names and the ``harness`` submodule load on first use, so a
single run never imports the harness or its csv and statistics modules.
"""

import importlib

from .controllers import ControllerKind
from .engine import RunResult, SimConfig, run_simulation
from .geometry import Point

__version__ = "0.1.0"

__all__ = [
    "Point",
    "ControllerKind",
    "SimConfig",
    "RunResult",
    "run_simulation",
    "SweepSpec",
    "SweepResult",
    "HarnessError",
    "run_sweep",
    "emit_csv",
]

_LAZY = frozenset(("harness", "SweepSpec", "SweepResult", "HarnessError", "run_sweep", "emit_csv"))


def __getattr__(name: str):
    """Resolve a sweep name, or ``harness`` itself, and cache it here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not ``from . import harness``: its from-list lookup would call this function again.
    harness = importlib.import_module(".harness", __name__)
    value = harness if name == "harness" else getattr(harness, name)
    globals()[name] = value
    return value
