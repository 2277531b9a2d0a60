#!/usr/bin/env python3
"""A/A check: run the whole ledger twice on the same code and compare.

``python ledger/aa.py [--seed N] [--seconds S] [--keep DIR]``

The second run takes the workloads in reverse order, so a drift of the host
over the session does not line up with the workload.  Both reports go to
``compare.py``; the exit status is non-zero if any (workload, end-to-end
metric) pair reads ``worse`` or ``unresolved``, which on identical code
means the benchmark, not the program, is at fault.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

import compare
import run

RUN = os.path.abspath(run.__file__)


def _run(out: str, args: argparse.Namespace, reverse: bool) -> None:
    cmd = [sys.executable, RUN, "--seed", str(args.seed), "--json", out]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if reverse:
        cmd.append("--reverse")
    # A failed check is reported by compare (failed_frac), not by stopping.
    subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if not os.path.exists(out):
        sys.exit(f"aa: {' '.join(cmd)} wrote no report")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="measuring time per pass")
    parser.add_argument("--keep", help="directory to leave A.json and B.json in")
    args = parser.parse_args(argv)
    with run.scratch_dir("aa-") as scratch:
        where = args.keep or scratch
        os.makedirs(where, exist_ok=True)
        paths = [os.path.join(where, name) for name in ("A.json", "B.json")]
        _run(paths[0], args, reverse=False)
        _run(paths[1], args, reverse=True)
        reports = []
        for path in paths:
            with open(path) as fh:
                reports.append(json.load(fh))
    rows = compare.compare(*reports)
    print(compare.render(rows))
    disagree = [r for r in rows if r["verdict"] in (compare.WORSE, compare.UNRESOLVED)]
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
