"""The calendar-sensitive suites once more, on the stdlib calendar.

Everything that pins event order or calendar layout -- the nine
``packet_golden.json`` cases, the engine suites, ``Port``'s push
equivalence and the flow-lifecycle suite (``schedule_stream`` pushes onto
the calendar too) -- is collected a second time here, under the
``stdlib_calendar`` fixture (``tests/conftest.py``).  The modules themselves
run on whatever ``repro.sim.calendar`` loaded, which is the native calendar
wherever a C compiler is found (``test_calendar.py`` insists on that), so
both providers answer to the same assertions and the same unmodified fixture
file.
"""

import importlib.util

import pytest

pytestmark = pytest.mark.usefixtures("stdlib_calendar")


def _second_copy(name, only=None):
    """Execute test module ``name`` again and return what it defines.

    A second execution, not an import of the first: Hypothesis refuses to
    run one test function object from two collection sites.
    """
    spec = importlib.util.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        key: value
        for key, value in vars(module).items()
        if not key.startswith("__") and (only is None or key in only)
    }


globals().update(_second_copy("tests.experiments.test_packet_golden"))
globals().update(_second_copy("tests.sim.test_engine"))
globals().update(_second_copy("tests.sim.test_engine_hotpath"))
globals().update(_second_copy("tests.sim.test_port", only={"TestPushEquivalence"}))
globals().update(_second_copy("tests.sim.test_flow_lifecycle"))


def test_this_module_runs_on_a_heapq_list():
    from repro.sim.engine import Simulator

    sim = Simulator()
    sim.schedule_detached(1.0, print)
    assert type(sim._heap) is list and len(sim._heap) == 1
    sim._compact()
    assert type(sim._heap) is list
