"""Suite-wide fixtures: the module constants tests run at other values.

A value only tests vary is a module constant beside its reader, not a
config field; a test that needs another value patches the constant for
as long as it runs.
"""

import pytest

from repro.core import site
from repro.harness import experiment
from tests import helpers


@pytest.fixture(autouse=True, scope="module")
def helper_cluster_timers(request):
    """Clusters built from ``tests/helpers.py`` run with short timers
    (``fast_config``); their proactive trigger check, a constant of
    ``repro.core.site``, runs every 0.5 s in every module that imports
    the helpers."""
    if not any(
        getattr(value, "__module__", None) == helpers.__name__
        for value in vars(request.module).values()
    ):
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(site, "PROACTIVE_CHECK_INTERVAL", 0.5)
        yield


@pytest.fixture
def quick_window(monkeypatch):
    """Experiments load the trace from interval 0 (the window the suite's
    short fixed-seed runs were recorded on) and audit conservation every
    5 simulated seconds."""
    monkeypatch.setattr(experiment, "START_INTERVAL", 0)
    monkeypatch.setattr(experiment, "INVARIANT_INTERVAL", 5.0)
