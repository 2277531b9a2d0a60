"""Rendered figure output is byte-identical to a committed golden.

``data/figure_golden.json`` holds the sha256 of ``reporting.render()`` for
figures 1-9 and the ``generality`` / ``seed-variance`` extensions on the
flow backend at the scaled presets (about 2 s in all; the fat-tree figures
and the load / failure sweeps take tens of seconds and are checked by
hand).  Any change to what a figure reads, how it reduces, or how it
renders shows up here.  Re-record only for a change that alters figure
output on purpose, with ``python tests/experiments/test_figure_golden.py
--record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments import ALL_EXTENSIONS, ALL_FIGURES, render, runner
from repro.experiments.config import set_default_backend
from repro.experiments.store import set_store

FIXTURE = Path(__file__).parent / "data" / "figure_golden.json"
IDS = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "generality", "seed-variance"]


def _hashes() -> Dict[str, str]:
    runner.clear_caches()
    set_store(None)
    set_default_backend("flow")
    try:
        out = {}
        for job in IDS:
            entry = ALL_FIGURES.get(job) or ALL_EXTENSIONS[job]
            text = render(entry(scale="scaled"))
            out[job] = hashlib.sha256(text.encode()).hexdigest()
        return out
    finally:
        set_default_backend("packet")
        runner.clear_caches()


@pytest.fixture(scope="module")
def hashes() -> Dict[str, str]:
    return _hashes()


@pytest.mark.parametrize("job", IDS)
def test_render_matches_golden(job, hashes):
    golden = json.loads(FIXTURE.read_text())
    assert (golden["backend"], golden["scale"]) == ("flow", "scaled")
    assert hashes[job] == golden["sha256"][job]


if __name__ == "__main__":  # pragma: no cover - re-recording entry point
    if "--record" not in sys.argv:
        raise SystemExit("usage: test_figure_golden.py --record")
    FIXTURE.write_text(
        json.dumps(
            {"backend": "flow", "scale": "scaled", "sha256": _hashes()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"recorded {FIXTURE}")
