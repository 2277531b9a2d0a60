"""The event calendar under :mod:`repro.sim.engine`: ``Calendar``, ``heappush``, ``heappop``.

Two providers, one interface.  ``_calendar.c`` (beside this file) keeps each
entry's ``(fire, sched, seq)`` key unboxed next to the entry tuple; it is
compiled on first import -- there is no other build step -- and cached under
a name made of the source's SHA-256 and the interpreter's ABI tag.  When that
cannot happen (no compiler, no headers, no private directory to cache in) the
names are the standard library's: a heapified ``list`` with
:func:`heapq.heappush` / :func:`heapq.heappop`.  Both hold the same entries
in the same array order and pop them in the same order, so nothing above this
module can tell which one it got; :data:`NATIVE` and :data:`FALLBACK_REASON`
report it and nothing reads them to decide anything.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from heapq import heapify, heappop, heappush
from importlib.machinery import EXTENSION_SUFFIXES
from types import ModuleType
from typing import Iterable, List, Optional, Sequence

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_calendar.c")
CFLAGS = ("-O2", "-g0", "-shared", "-fPIC")


def Calendar(entries: Iterable[tuple] = ()) -> list:
    """The stdlib calendar: ``entries`` as a list that :mod:`heapq` heapified."""
    heap = list(entries)
    heapify(heap)
    return heap


#: The stdlib provider, whichever one the module-level names end up bound to.
STDLIB = (Calendar, heappush, heappop)


def compiler() -> List[str]:
    """Argv prefix of the C compiler this interpreter was configured with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _private(directory: str) -> bool:
    """``directory`` exists (made if need be), is ours, and only we can write
    to it: the cached file is executed, so a shared directory is never used."""
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(directory)
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(directory, os.W_OK)


def _carries(path: str, sha: str) -> bool:
    """``path`` is a readable file with ``sha`` compiled into it."""
    try:
        with open(path, "rb") as fh:
            return sha.encode("ascii") in fh.read()
    except OSError:
        return False


def _build(source: str, sha: str, path: str) -> None:
    """Compile ``source`` to ``path``: a temp file beside it, then ``os.replace``,
    so processes racing on a cold cache see a whole file or none."""
    import shutil

    cc = compiler()
    if shutil.which(cc[0]) is None:  # the everyday failure: found out cheaply
        raise FileNotFoundError(f"C compiler {cc[0]!r} not found")
    import subprocess
    import sysconfig
    import tempfile

    paths = sysconfig.get_paths()
    includes = {f"-I{paths[key]}" for key in ("include", "platinclude")}
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [*cc, *CFLAGS, *includes, f'-DSOURCE_SHA256="{sha}"', source, "-o", tmp],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{cc[0]} failed: {done.stderr.strip()[-400:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(source: str = SOURCE, dirs: Optional[Sequence[str]] = None) -> ModuleType:
    """The extension module compiled from ``source``, built first if the cache
    lacks it.  ``dirs`` are the cache candidates: ``__pycache__`` beside the
    source, else a per-user directory.  Raises when the module cannot be had."""
    if dirs is None:
        dirs = (
            os.path.join(os.path.dirname(source), "__pycache__"),
            os.path.join(os.path.expanduser("~"), ".cache", "repro-sim"),
        )
    with open(source, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    for directory in dirs:
        if not _private(directory):
            continue
        path = os.path.join(directory, f"_calendar-{sha[:16]}{EXTENSION_SUFFIXES[0]}")
        if not _carries(path, sha):  # missing, or a stale binary under this name
            _build(source, sha, path)
        spec = importlib.util.spec_from_file_location(f"{__package__}._calendar", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if module.SOURCE_SHA256 != sha:
            raise ImportError(f"{path} was not built from {source}")
        return module
    raise OSError("no cache directory that only this user can write")


#: Whether the compiled calendar is the one in use, and if not, why.
NATIVE: bool = False
FALLBACK_REASON: Optional[str] = None
try:
    _native = load()
except Exception as exc:  # whatever went wrong, the stdlib calendar is right
    FALLBACK_REASON = f"{type(exc).__name__}: {exc}"
else:
    Calendar, heappush, heappop = _native.Calendar, _native.heappush, _native.heappop
    NATIVE = True
