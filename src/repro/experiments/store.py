"""Persistent on-disk result store keyed by config content + code version.

Campaign runs (``repro-experiments --all``, sweeps, CI) re-simulate the same
configs over and over; a simulation result is a pure function of its config
dataclass and the simulator code.  This module keys results by exactly those
two inputs:

* :func:`config_key` — a content hash over a *canonical* rendering of the
  config dataclass: fields are sorted by name and fields still at their
  declared default are omitted, so the key survives field reordering and the
  addition of new defaulted fields.  Nested dataclasses (``FaultConfig``,
  ``FatTreeParams``) are walked the same way.
* :func:`code_fingerprint` — a hash over the source text of every ``.py``
  file in the ``repro`` package.  Any simulator change moves results into a
  fresh namespace, so a store can never serve results from old physics.

Layout on disk::

    <root>/<fingerprint>/<ConfigClass>-<config_key>.pkl

Stale fingerprints accumulate as code evolves; :meth:`ResultStore.gc`
removes every namespace but the current one.  All writes are atomic
(tempfile + rename) so a killed campaign never leaves a torn pickle, and
every entry carries a header line with the SHA-256 and length of its pickle
payload.  ``get`` verifies both before unpickling: a corrupt, truncated, or
bit-flipped entry is *self-healing* — it warns, deletes the file, and
reports a miss, so the caller transparently re-simulates instead of blowing
up mid-campaign (or worse, silently deserializing garbage).  Entries from
before the header was introduced (no magic prefix) still load as raw
pickles.

The process-wide *active store* (:func:`set_store` / :func:`get_store`) is
what the runner's ``run_*_cached`` entry points consult between their
in-memory LRU and an actual simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import shutil
import tempfile
import warnings
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

__all__ = [
    "CorruptEntry",
    "ResultStore",
    "StoreStats",
    "canonical_config_repr",
    "config_key",
    "code_fingerprint",
    "decode_entry",
    "encode_entry",
    "set_store",
    "get_store",
]


# ---------------------------------------------------------------------------
# Canonical config rendering and keys
# ---------------------------------------------------------------------------

_MISSING = dataclasses.MISSING


def _field_default(f: "dataclasses.Field") -> Any:
    if f.default is not _MISSING:
        return f.default
    if f.default_factory is not _MISSING:  # type: ignore[misc]
        return f.default_factory()  # type: ignore[misc]
    return _MISSING


def canonical_config_repr(obj: Any) -> str:
    """A stable text rendering of a config value.

    Dataclasses render as ``ClassName(field=value, ...)`` with fields sorted
    by name and default-valued fields omitted; containers render
    element-wise; floats use ``repr`` (shortest round-trip form, so distinct
    values never collide).  Unsupported types raise rather than fall back to
    ``repr`` — an object whose repr embeds a memory address would silently
    produce a fresh key per process.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        parts: List[str] = []
        for f in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            if not f.compare:
                continue
            value = getattr(obj, f.name)
            default = _field_default(f)
            if default is not _MISSING and value == default:
                continue
            parts.append(f"{f.name}={canonical_config_repr(value)}")
        return f"{type(obj).__name__}({', '.join(parts)})"
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        inner = ", ".join(canonical_config_repr(v) for v in obj)
        return f"({inner})"
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{canonical_config_repr(k)}: {canonical_config_repr(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{{{inner}}}"
    raise TypeError(
        f"cannot canonically render {type(obj).__name__!r} for a cache key"
    )


def config_key(cfg: Any) -> str:
    """Content hash of a config (20 hex chars of SHA-256)."""
    text = canonical_config_repr(cfg)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


# ---------------------------------------------------------------------------
# Code-version fingerprint
# ---------------------------------------------------------------------------

_CODE_FINGERPRINT: Optional[str] = None


def fingerprint_tree(package_root: Path) -> str:
    """Hash of every ``.py`` and ``.c`` file under ``package_root`` (12 hex chars).

    Sorted relative-path order, ``(path, contents)`` pairs.  C sources count
    (``sim/_calendar.c`` carries the calendar's ordering key); what is built
    from them does not.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in package_root.rglob("*.*") if p.suffix in (".py", ".c")):
        rel = path.relative_to(package_root).as_posix()
        h.update(rel.encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:12]


def code_fingerprint() -> str:
    """Hash of the ``repro`` package's source text (12 hex chars, cached).

    :func:`fingerprint_tree` of the installed package directory.  Any edit to
    the simulator — including files a given config never imports — retires
    all stored results, which errs on the side of never serving stale
    physics.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        _CODE_FINGERPRINT = fingerprint_tree(Path(__file__).resolve().parent.parent)
    return _CODE_FINGERPRINT


# ---------------------------------------------------------------------------
# Entry framing: checksum header + pickle payload
# ---------------------------------------------------------------------------

#: Entry header magic.  The full header line is
#: ``repro-store/2 <sha256-hex> <payload-bytes>\n`` followed by the pickle.
ENTRY_MAGIC = b"repro-store/2 "


def encode_entry(blob: bytes) -> bytes:
    """Frame a pickle payload with its SHA-256 and length."""
    digest = hashlib.sha256(blob).hexdigest().encode("ascii")
    return ENTRY_MAGIC + digest + b" %d\n" % len(blob) + blob


def decode_entry(data: bytes) -> bytes:
    """Return the verified payload of a framed entry.

    Raises :class:`CorruptEntry` on any mismatch; data without the magic
    prefix is passed through untouched (pre-checksum legacy entry — its only
    integrity check is unpickling itself).
    """
    if not data.startswith(ENTRY_MAGIC):
        return data
    newline = data.find(b"\n", len(ENTRY_MAGIC))
    if newline < 0:
        raise CorruptEntry("truncated header")
    try:
        digest_hex, size_text = data[len(ENTRY_MAGIC):newline].split(b" ")
        expected_size = int(size_text)
    except ValueError:
        raise CorruptEntry("malformed header") from None
    payload = data[newline + 1:]
    if len(payload) != expected_size:
        raise CorruptEntry(
            f"payload is {len(payload)} bytes, header says {expected_size}"
        )
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest_hex:
        raise CorruptEntry("checksum mismatch")
    return payload


class CorruptEntry(RuntimeError):
    """A store entry failed its checksum/length verification."""


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class StoreStats:
    """Counters for one store's lifetime in this process."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    evicted_corrupt: int = 0

    def summary(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} puts={self.puts} "
            f"read={self.bytes_read}B written={self.bytes_written}B"
        )


class ResultStore:
    """Content-addressed pickle store for simulation results.

    ``get``/``put`` key purely on the config object; the caller never names
    files.  Entries live under a per-code-version namespace directory so a
    simulator change can never alias old results (see module docstring).
    """

    def __init__(self, root: os.PathLike, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = StoreStats()

    # -- paths ------------------------------------------------------------

    @property
    def namespace(self) -> Path:
        return self.root / self.fingerprint

    def path_for(self, cfg: Any) -> Path:
        # The backend rides in the filename as well as the content key:
        # config_key already separates packet from flow/hybrid (the field
        # only renders when non-default), but naming it makes a mixed-
        # backend store auditable by eye and keeps the two from colliding
        # even if the key algorithm ever changes.
        backend = getattr(cfg, "backend", None)
        tag = f"{backend}-" if isinstance(backend, str) else ""
        return self.namespace / f"{type(cfg).__name__}-{tag}{config_key(cfg)}.pkl"

    # -- access -----------------------------------------------------------

    def _evict_corrupt(self, path: Path, reason: str) -> None:
        """Warn, delete, and count a corrupt entry (caller reports a miss)."""
        self.stats.evicted_corrupt += 1
        self.stats.misses += 1
        path.unlink(missing_ok=True)
        warnings.warn(
            f"result store evicted corrupt entry {path.name}: {reason}; "
            "it will be re-simulated",
            RuntimeWarning,
            stacklevel=3,
        )

    def get(self, cfg: Any) -> Optional[Any]:
        """The stored result for ``cfg``, or None (counts a hit or miss).

        An entry that fails its checksum or cannot be unpickled is deleted
        and treated as a miss (with a warning) — a torn write from a killed
        process or on-disk corruption must not poison the campaign forever,
        and must never surface as a mid-campaign crash.
        """
        path = self.path_for(cfg)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            blob = decode_entry(data)
        except CorruptEntry as exc:
            self._evict_corrupt(path, str(exc))
            return None
        try:
            result = pickle.loads(blob)
        except Exception as exc:
            self._evict_corrupt(path, f"unpicklable ({type(exc).__name__})")
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(data)
        return result

    def put(self, cfg: Any, result: Any) -> Path:
        """Atomically persist ``result`` (checksummed) under ``cfg``'s key."""
        path = self.path_for(cfg)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = encode_entry(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        self.stats.bytes_written += len(data)
        return path

    def verify(self) -> Tuple[int, List[Path]]:
        """Checksum-scan the current namespace without evicting anything.

        Returns ``(entries_checked, corrupt_paths)``.  Legacy (headerless)
        entries count as checked; they are verified by unpickling instead.
        ``check chaos`` uses this to prove injected corruption is visible
        before the self-healing re-run, and operators can use it to audit a
        store that survived a crash or a flaky disk.
        """
        corrupt: List[Path] = []
        entries = self.entries()
        for path in entries:
            try:
                data = path.read_bytes()
                if data.startswith(ENTRY_MAGIC):
                    decode_entry(data)
                else:
                    pickle.loads(data)
            except Exception:
                corrupt.append(path)
        return len(entries), corrupt

    def __contains__(self, cfg: Any) -> bool:
        return self.path_for(cfg).exists()

    # -- maintenance ------------------------------------------------------

    def entries(self) -> List[Path]:
        """Entry files in the current namespace, sorted by name."""
        if not self.namespace.is_dir():
            return []
        return sorted(self.namespace.glob("*.pkl"))

    def disk_usage(self) -> Tuple[int, int]:
        """(files, bytes) across *all* namespaces under the root."""
        files = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                files += 1
                total += path.stat().st_size
        return files, total

    def gc(self) -> Tuple[int, int]:
        """Delete every namespace except the current one.

        Returns ``(files_removed, bytes_freed)``.  Entries for the current
        code version are always kept — GC reclaims space without ever
        forcing a re-simulation of still-valid results.
        """
        removed = 0
        freed = 0
        if not self.root.is_dir():
            return 0, 0
        for child in self.root.iterdir():
            if not child.is_dir() or child.name == self.fingerprint:
                continue
            for path in child.rglob("*"):
                if path.is_file():
                    removed += 1
                    freed += path.stat().st_size
            shutil.rmtree(child)
        return removed, freed

    def clear(self) -> None:
        """Delete the entire store (tests and ``--store-gc --no-store``)."""
        if self.root.is_dir():
            shutil.rmtree(self.root)


# ---------------------------------------------------------------------------
# Process-wide active store
# ---------------------------------------------------------------------------

_ACTIVE_STORE: Optional[ResultStore] = None


def set_store(store: Optional[ResultStore]) -> None:
    """Install (or clear, with None) the store the cached runners consult."""
    global _ACTIVE_STORE
    _ACTIVE_STORE = store


def get_store() -> Optional[ResultStore]:
    return _ACTIVE_STORE
