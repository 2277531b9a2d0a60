"""Repo-wide pytest configuration: Hypothesis profiles, the calendar fixture.

Profiles must be registered in the *root* conftest — the Hypothesis pytest
plugin resolves ``--hypothesis-profile`` during ``pytest_configure``, before
per-directory conftests load.

* ``dev`` (loaded by default) keeps property tests cheap in the tier-1
  suite;
* ``ci`` (``--hypothesis-profile=ci``) runs more examples, derandomized so
  the CI sanitize job is reproducible run-to-run.

Tests that pass explicit ``@settings(max_examples=...)`` keep their own
counts either way.
"""

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=25, derandomize=True, deadline=None)
settings.register_profile("dev", max_examples=10, deadline=None)
settings.load_profile("dev")


@pytest.fixture
def stdlib_calendar(monkeypatch):
    """Run the test on the stdlib calendar (a ``heapq`` list), whichever one
    ``repro.sim.calendar`` loaded.

    ``tests/sim/test_on_stdlib_calendar.py`` re-collects the
    calendar-sensitive suites under this fixture, so they run once per
    calendar; the choice exists on the test side only.
    """
    from repro.sim import calendar, engine, port

    Calendar, heappush, heappop = calendar.STDLIB
    monkeypatch.setattr(engine, "Calendar", Calendar)
    monkeypatch.setattr(engine, "heappush", heappush)
    monkeypatch.setattr(engine, "heappop", heappop)
    monkeypatch.setattr(port, "heappush", heappush)
