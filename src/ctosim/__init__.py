"""Cooperative target observation: simulator, controllers, benchmark harness.

The top level holds what a user needs to run a simulation or a sweep; every
other name lives in its own module (``ctosim.world.step_target``, ...).
"""

from .controllers import ControllerKind
from .engine import RunResult, SimConfig, run_simulation
from .geometry import Point
from .harness import HarnessError, SweepResult, SweepSpec, emit_csv, emit_plot_script, run_sweep

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
    "emit_plot_script",
]
