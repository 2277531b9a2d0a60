"""The event calendar: native-key C heap vs. the ``heapq`` list it stands in for.

Four groups: identity with ``heapq`` (pop order *and* array layout, step by
step), lifetime (the calendar holds references and sits in reference cycles
with the simulator), the build-on-import path (cold cache, racing processes,
stale binary, no compiler, unsafe cache directory), and the guard that a
machine with a working compiler is in fact running the native calendar.
"""

import gc
import hashlib
import heapq
import os
import shutil
import subprocess
import sys
import sysconfig
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import calendar
from repro.sim.engine import Simulator

HEADERS = os.path.exists(os.path.join(sysconfig.get_paths()["include"], "Python.h"))
CAN_BUILD = shutil.which(calendar.compiler()[0]) is not None and HEADERS

needs_native = pytest.mark.skipif(not calendar.NATIVE, reason="native calendar not built")
needs_compiler = pytest.mark.skipif(not CAN_BUILD, reason="no C compiler or no Python.h")


def test_native_wherever_a_compiler_is_found():
    """A build that fails silently must not pass CI on the fallback alone."""
    if CAN_BUILD:
        assert calendar.NATIVE, calendar.FALLBACK_REASON
    assert (calendar.FALLBACK_REASON is None) == calendar.NATIVE


def test_the_c_source_has_no_hook_symbol():
    """C-side twin of the ``co_names`` guards on the Python run loops."""
    text = Path(calendar.SOURCE).read_text()
    for name in ("PHASE_HOOKS", "RECORDER", "TRACER", "STATS", "CHECKER"):
        assert name not in text


# -- (i) identity with heapq --------------------------------------------------

#: Few distinct values, ints among the floats: ties on ``fire`` fall through
#: to ``sched``, then ``seq``, then (seq repeats too) to the tuples themselves.
TIMES = st.sampled_from([0.0, 1.0, 1, 2.5, 3, 3.0, 7.25, float("inf")])
ENTRIES = st.tuples(TIMES, TIMES, st.integers(0, 3), st.integers(0, 2))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), ENTRIES),
        st.tuples(st.just("pop")),
        st.tuples(st.just("rebuild")),
    ),
    max_size=60,
)


def _same(cal, ref):
    assert list(cal) == ref
    assert len(cal) == len(ref) and bool(cal) == bool(ref)
    if ref:
        assert cal[0] is ref[0] and cal[len(ref) - 1] is ref[-1]


@settings(max_examples=200)
@given(start=st.lists(ENTRIES, max_size=40), ops=OPS)
def test_scripts_match_heapq_in_pop_order_and_layout(start, ops):
    ref = list(start)
    heapq.heapify(ref)
    cal = calendar.Calendar(start)
    _same(cal, ref)
    for op in ops:
        if op[0] == "push":
            heapq.heappush(ref, op[1])
            calendar.heappush(cal, op[1])
        elif op[0] == "pop" and ref:
            assert calendar.heappop(cal) is heapq.heappop(ref)
        elif op[0] == "rebuild":  # what Simulator._compact does
            ref = list(ref)
            heapq.heapify(ref)
            cal = calendar.Calendar(list(cal))
        _same(cal, ref)
    while ref:
        assert calendar.heappop(cal) is heapq.heappop(ref)
    assert not cal and len(cal) == 0


def test_heapify_layout_matches_heapq_past_its_cache_friendly_threshold():
    entries = [(float((i * 7919) % 1013), float(i % 3), i, None) for i in range(6000)]
    ref = list(entries)
    heapq.heapify(ref)
    assert list(calendar.Calendar(entries)) == ref


def test_a_full_key_tie_raises_what_heapq_raises():
    a, b = (1.0, 0.0, 7, None, print, ()), (1.0, 0.0, 7, object(), print, ())
    ref = [a]
    with pytest.raises(TypeError) as expected:
        heapq.heappush(ref, b)
    cal = calendar.Calendar([a])
    with pytest.raises(TypeError) as seen:
        calendar.heappush(cal, b)
    assert str(seen.value) == str(expected.value)
    with pytest.raises(TypeError):
        calendar.Calendar([a, b])


def test_popping_an_empty_calendar_is_an_index_error():
    with pytest.raises(IndexError):
        calendar.heappop(calendar.Calendar())


@needs_native
class TestNativeRejects:
    def test_nan_times(self):
        cal = calendar.Calendar()
        for entry in ((float("nan"), 0.0, 0), (0.0, float("nan"), 0)):
            with pytest.raises(ValueError, match="NaN"):
                calendar.heappush(cal, entry)
        assert len(cal) == 0

    @pytest.mark.parametrize(
        "entry", [[1.0, 0.0, 0], (1.0, 0.0), 5, (1.0, 0.0, 0.5), ("a", 0.0, 0), (1.0, 0.0, 2**70)]
    )
    def test_entries_without_the_key(self, entry):
        with pytest.raises((TypeError, OverflowError)):
            calendar.heappush(calendar.Calendar(), entry)
        with pytest.raises((TypeError, OverflowError)):
            calendar.Calendar([entry])

    def test_anything_that_is_not_a_calendar(self):
        with pytest.raises(TypeError, match="expected a Calendar, got list"):
            calendar.heappush([], (1.0, 0.0, 0))
        with pytest.raises(TypeError, match="expected a Calendar, got list"):
            calendar.heappop([(1.0, 0.0, 0)])
        with pytest.raises(TypeError):
            calendar.heappush(calendar.Calendar())
        with pytest.raises(TypeError):
            calendar.Calendar(entries=[])
        with pytest.raises(TypeError):
            calendar.Calendar(5)

    def test_indexing_is_bounds_checked(self):
        cal = calendar.Calendar([(1.0, 0.0, 0), (2.0, 0.0, 1)])
        assert cal[-1] == (2.0, 0.0, 1)
        with pytest.raises(IndexError):
            cal[2]

    def test_a_comparison_that_resizes_the_calendar(self):
        class Pushy:
            def __lt__(self, other):
                calendar.heappush(cal, (0.0, 0.0, 0))
                return True

        cal = calendar.Calendar([(1.0, 0.0, 7, Pushy())])
        with pytest.raises(RuntimeError, match="changed size"):
            calendar.heappush(cal, (1.0, 0.0, 7, Pushy()))


# -- (ii) lifetime ------------------------------------------------------------


def _noop(*_):
    pass


class _Owner:
    """Weakly referenceable stand-in for a host: holds the simulator."""

    def __init__(self, sim):
        self.sim = sim


def test_a_calendar_in_a_cycle_with_its_simulator_is_collected():
    sim = Simulator()
    owner = _Owner(sim)  # sim -> calendar -> entry -> args -> owner -> sim
    for i in range(100_000):
        sim.schedule_detached(float(i % 977), _noop, owner)
    gone = weakref.ref(owner)
    del sim, owner
    assert gone() is not None  # only the collector can free it
    gc.collect()
    assert gone() is None


def test_callback_refcount_is_unchanged_by_push_pop_compaction_and_drop():
    def callback():
        pass

    before = sys.getrefcount(callback)
    cal = calendar.Calendar()
    for i in range(100):
        calendar.heappush(cal, (float(i % 7), 0.0, i, None, callback, ()))
    assert sys.getrefcount(callback) == before + 100
    for _ in range(40):
        calendar.heappop(cal)
    assert sys.getrefcount(callback) == before + 60

    sim = Simulator()
    handles = [sim.schedule(1.0 + i, callback) for i in range(200)]
    for ev in handles[50:]:  # the head stays live, so nothing is popped
        ev.cancel()
    del ev
    sim.run(until=0.5)
    assert sim.compactions == 1 and sim.heap_size == 50
    del handles
    gc.collect()
    assert sys.getrefcount(callback) == before + 60 + 2 * 50  # entry + Event.fn

    del sim, cal  # both non-empty
    gc.collect()
    assert sys.getrefcount(callback) == before


# -- (iii) build on first import ----------------------------------------------

_LOAD = """
import sys
from repro.sim import calendar
module = calendar.load(dirs=[sys.argv[1]])
cal = module.Calendar([(2.0, 0.0, 1), (1.0, 0.0, 0)])
assert module.heappop(cal) == (1.0, 0.0, 0)
print(module.__file__)
"""


def _child(code, *argv, env=None, **kwargs):
    src = str(Path(calendar.__file__).resolve().parents[2])
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs,
    )


def _built(directory):
    return sorted(p.name for p in Path(directory).iterdir())


@needs_compiler
class TestBuild:
    def test_cold_build_then_warm_load(self, tmp_path):
        cache = tmp_path / "cache"  # made on demand, private
        for _ in range(2):
            done = _child(_LOAD, str(cache))
            out, err = done.communicate(timeout=120)
            assert done.returncode == 0, err
            assert Path(out.strip()).parent == cache
        (name,) = _built(cache)
        assert name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
        assert cache.stat().st_mode & 0o777 == 0o700

    def test_processes_racing_on_a_cold_cache_all_load_a_whole_file(self, tmp_path):
        racers = [_child(_LOAD, str(tmp_path)) for _ in range(3)]
        for racer in racers:
            out, err = racer.communicate(timeout=180)
            assert racer.returncode == 0, err
        assert len(_built(tmp_path)) == 1  # one name, no temp file left behind

    @staticmethod
    def _edited_source(tmp_path):
        """A built module, an edited copy of its source, that copy's hash, and
        the path a cache would hold the copy's binary under."""
        module = calendar.load(dirs=[str(tmp_path)])
        other = tmp_path / "other.c"
        other.write_bytes(Path(calendar.SOURCE).read_bytes() + b"/* edited */\n")
        sha = hashlib.sha256(other.read_bytes()).hexdigest()
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        name = Path(module.__file__).name.replace(module.SOURCE_SHA256[:16], sha[:16])
        return module, other, sha, cache / name

    def test_a_stale_binary_under_the_right_name_is_rebuilt(self, tmp_path):
        module, other, sha, expected = self._edited_source(tmp_path)
        shutil.copy(module.__file__, expected)  # what `_calendar.c` built, misnamed
        rebuilt = calendar.load(str(other), dirs=[str(expected.parent)])
        assert rebuilt.SOURCE_SHA256 == sha != module.SOURCE_SHA256
        assert _built(expected.parent) == [expected.name]

    def test_a_binary_that_reports_another_source_is_refused(self, tmp_path):
        module, other, sha, expected = self._edited_source(tmp_path)
        # Carries the expected hash as bytes, but was compiled from the other file.
        expected.write_bytes(Path(module.__file__).read_bytes() + sha.encode())
        with pytest.raises(ImportError, match="was not built from"):
            calendar.load(str(other), dirs=[str(expected.parent)])

    def test_a_cache_directory_others_can_write_is_refused(self, tmp_path):
        for mode in (0o777, 0o775, 0o757):
            shared = tmp_path / oct(mode)
            shared.mkdir()
            shared.chmod(mode)
            with pytest.raises(OSError, match="only this user can write"):
                calendar.load(dirs=[str(shared)])
            assert _built(shared) == []

    def test_the_source_compiles_clean_under_werror(self, tmp_path):
        paths = sysconfig.get_paths()
        done = subprocess.run(
            [*calendar.compiler(), *calendar.CFLAGS, "-Wall", "-Wextra", "-Werror",
             f"-I{paths['include']}", f"-I{paths['platinclude']}",
             calendar.SOURCE, "-o", str(tmp_path / "strict.so")],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


def _copy_of_the_module(tmp_path):
    """``calendar.py`` + ``_calendar.c`` as a package of their own: cold caches."""
    package = tmp_path / "coldpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name in ("calendar.py", "_calendar.c"):
        shutil.copy(Path(calendar.__file__).with_name(name), package / name)
    return package


_REPORT = """
import coldpkg.calendar as c
import hashlib
import heapq
assert c.NATIVE or (c.heappush is heapq.heappush and c.heappop is heapq.heappop)
cal = c.Calendar([(2.0, 0.0, 1), (1.0, 0.0, 0)])
assert c.heappop(cal) == (1.0, 0.0, 0)
print(c.NATIVE, type(cal).__name__, c.FALLBACK_REASON, sep="|")
"""


def _import_cold(tmp_path, path):
    _copy_of_the_module(tmp_path)
    home = tmp_path / "home"
    home.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _REPORT],
        env={"PATH": path, "HOME": str(home), "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    (line,) = done.stdout.splitlines()  # the build itself printed nothing
    return line.split("|")


def test_without_a_compiler_the_import_falls_back_silently(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    native, kind, reason = _import_cold(tmp_path, str(empty))
    assert (native, kind) == ("False", "list")
    assert "FileNotFoundError" in reason and "not found" in reason
    assert not list((tmp_path / "home").rglob("*.tmp"))


@needs_compiler
def test_a_fresh_checkout_builds_itself_on_first_import(tmp_path):
    native, kind, reason = _import_cold(tmp_path, os.environ.get("PATH", os.defpath))
    assert (native, kind, reason) == ("True", "Calendar", "None")
    assert len(list((tmp_path / "coldpkg" / "__pycache__").glob("_calendar-*"))) == 1
    assert not (tmp_path / "home" / ".cache").exists()  # beside the source was enough


def test_a_warm_import_loads_no_build_only_module():
    code = (
        "import sys; import repro.sim.calendar; "
        "print([m for m in ('subprocess', 'tempfile', 'shlex', 'shutil') if m in sys.modules])"
    )
    done = _child(code)
    out, err = done.communicate(timeout=60)
    assert done.returncode == 0, err
    if calendar.NATIVE:  # the parent built it, so the child's import was warm
        assert out.strip() == "[]"
