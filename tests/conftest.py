"""Shared pytest plumbing.

The acceptance tests register a one-line verdict per criterion through the
``criterion`` fixture; everything collected is echoed in a dedicated block at
the end of the run so the pass/fail state of the whole gate is readable at a
glance, independent of pytest's own per-test output.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_RESULTS: dict[int, tuple[str, str, list[str]]] = {}


def _record(cid: int, label: str, status: str, details: tuple[str, ...] = ()) -> None:
    _RESULTS[cid] = (label, status, list(details))


@pytest.fixture
def criterion():
    """Recorder callable: criterion(number, label, status, details=())."""
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_RESULTS):
        label, status, details = _RESULTS[cid]
        terminalreporter.write_line(f"criterion {cid:2d} [{status:9s}] {label}")
        for line in details:
            terminalreporter.write_line(f"              {line}")


class _Recorder:
    """Records every method call made on it as (name, args, kwargs)."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.calls: list[tuple[str, tuple, dict]] = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


@pytest.fixture
def fake_matplotlib(monkeypatch):
    """A stand-in matplotlib in sys.modules that records what is drawn:
    ``backend`` is the name given to ``matplotlib.use``, and ``figures``
    holds one (figure, axes) pair of recorders per ``plt.subplots`` call,
    the figure keeping that call's keyword arguments."""
    drawn = types.SimpleNamespace(backend=None, figures=[])

    def subplots(**kwargs):
        drawn.figures.append((_Recorder(**kwargs), _Recorder()))
        return drawn.figures[-1]

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    pyplot.close = lambda fig: fig.calls.append(("close", (), {}))
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: setattr(drawn, "backend", backend)
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return drawn
