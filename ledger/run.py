#!/usr/bin/env python3
"""The perf ledger: one command that measures, checks and reports.

Two ways to call it, from the repository root:

``python ledger/run.py [--workload NAME] [--seed N] [--seconds S] [--json OUT]``
    The full report.  Each workload runs in a fresh child process, first an
    untraced pass for the end-to-end metrics, then a separate traced pass for
    the per-layer ones; every metric is printed by name with its unit,
    median, quartiles and sample count.

``python ledger/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One pass of one workload in this process (what the report's children
    and a benchmark driver run).  The last line of standard output is one
    JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
    (with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
    ``--trace 1`` its per-layer ones).

The program under test is ``src/repro`` beside this directory; without it
the command exits non-zero and prints no result.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src")

import catalogue
from calibrate import Calibrator

#: Set-up is repeated in this many extra fresh processes per untraced pass,
#: so ``setup_s`` is a median of three and not one reading.
EXTRA_SETUPS = 2
#: How a traced pass splits its time: untraced rounds (the base of the
#: overhead ratio), then traced rounds; probes come after both.
#: Rounds behind every end-to-end timing, even when the time is spent.
MIN_ROUNDS = 3
UNTRACED_SHARE = 0.3
TRACED_SHARE = 0.5

_clock = time.perf_counter
Samples = Dict[str, List[float]]


def _require_program() -> None:
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        sys.exit(f"ledger: nothing to measure: {SRC_DIR}/repro is missing")
    sys.path.insert(0, SRC_DIR)


def _benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# One pass of one workload, in this process
# ---------------------------------------------------------------------------


def _prepare(name: str, seed: int, cal: Calibrator, workdir: str) -> Any:
    """Everything before the first timed unit: import, warm-up, references."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, cal, workdir)
    workload.setup()
    return workload


def _timed_setup(name: str, seed: int, cal: Calibrator, workdir: str) -> Any:
    lead = _clock() - _T0
    workload, unit = cal.measure(lambda: _prepare(name, seed, cal, workdir))
    setup_s = (lead + unit.raw_s) * unit.cal_s / unit.raw_s
    return workload, setup_s


def _child_setup_s(name: str, seed: int) -> float:
    """Set-up time of one more fresh process, as that process measured it."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr[-400:]}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _run_rounds(workload: Any, seconds: float, min_rounds: int, recorder: Any = None) -> Samples:
    """Rounds until the next one would not fit in ``seconds``."""
    import workloads

    samples: Samples = defaultdict(list)
    took: List[float] = []
    start = _clock()
    while True:
        t0 = _clock()
        if recorder is None:
            sample = workload.round()
        else:
            sample = workloads.traced_round(workload, recorder)
        took.append(_clock() - t0)
        for metric, value in sample.items():
            samples[metric].append(value)
        if len(took) >= min_rounds and _clock() - start + statistics.median(took) > seconds:
            return samples


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _untraced_pass(workload: Any, setup_s: float, args: argparse.Namespace) -> Samples:
    samples = _run_rounds(workload, args.seconds, MIN_ROUNDS)
    samples["setup_s"] = [setup_s] + [
        _child_setup_s(args.workload, args.seed) for _ in range(EXTRA_SETUPS)
    ]
    samples["peak_rss_mb"] = [_peak_rss_mb()]
    return samples


def _traced_pass(workload: Any, cal: Calibrator, args: argparse.Namespace) -> Samples:
    from spans import SpanRecorder

    untraced = _run_rounds(workload, args.seconds * UNTRACED_SHARE, 1)
    samples = _run_rounds(workload, args.seconds * TRACED_SHARE, 1, SpanRecorder())
    base = catalogue.summarize(untraced["round_wall_s"])["median"]
    samples["obs.trace_overhead_ratio"] = [wall / base for wall in samples["round_wall_s"]]
    # Whatever the untraced rounds measured is taken from them; the traced
    # rounds add only what tracing alone can see (phases, spans, counts).
    samples.update(untraced)
    for metric, value in workload.layer_probes(untraced).items():
        samples[metric] = [value]
    for metric, value in cal.host_metrics().items():
        samples[metric] = [value]
    return samples


@contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A directory under ``.ledger_work/`` in the checkout, removed on exit."""
    root = os.path.join(os.getcwd(), ".ledger_work")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(root)
        except OSError:
            pass  # another pass is still using it


def _report_pass(
    workload: Any,
    samples: Samples,
    emitted: Sequence[catalogue.Metric],
    args: argparse.Namespace,
    pinned_cpu: Optional[int],
) -> None:
    """Print digests and failures, then the result object as the last line."""
    samples = dict(samples, failed_frac=[workload.failed / workload.attempted])
    summaries = {
        name: dict(catalogue.summarize(values), values=list(values))
        for name, values in samples.items()
    }
    if pinned_cpu is None:
        print("note: could not pin to one CPU; timings are from an unpinned process")
    for label, digest in sorted(workload.digests.items()):
        print(f"digest {args.workload} {label} {digest}")
    for failure in workload.failures:
        print(f"FAILED {args.workload}: {failure}")
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "trace": args.trace,
                    "pinned_cpu": pinned_cpu,
                    "metrics": summaries,
                    "attempted": workload.attempted,
                    "failed": workload.failed,
                    "failures": workload.failures,
                    "digests": workload.digests,
                },
                fh,
            )
    # A metric the workload does not exercise reads 0.
    metrics = {
        m.name: {"value": summaries[m.name]["median"] if m.name in summaries else 0.0, "unit": m.unit}
        for m in emitted
    }
    print(
        json.dumps(
            {
                "correct": workload.failed == 0,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": metrics,
            }
        )
    )


def _one_pass(args: argparse.Namespace) -> int:
    _require_program()
    cal = Calibrator()
    with scratch_dir(f"{args.workload}-") as workdir:
        workload, setup_s = _timed_setup(args.workload, args.seed, cal, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            samples = _traced_pass(workload, cal, args)
            emitted = catalogue.DRIVER_PER_LAYER
        else:
            samples = _untraced_pass(workload, setup_s, args)
            emitted = [m for m in catalogue.END_TO_END if m.name in catalogue.UNIVERSAL]
    _report_pass(workload, samples, emitted, args, cal.cpu)
    return 0


# ---------------------------------------------------------------------------
# The full report: both passes of every workload, each in a fresh child
# ---------------------------------------------------------------------------


def _child_pass(name: str, trace: int, args: argparse.Namespace, scratch: str) -> Dict[str, Any]:
    detail = os.path.join(scratch, f"{name}-{trace}.json")
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace), "--detail", detail],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"ledger: {name} (trace {trace}) failed:\n{done.stderr[-2000:]}")
    with open(detail) as fh:
        return json.load(fh)


def _measure_workload(name: str, args: argparse.Namespace, scratch: str) -> Dict[str, Any]:
    untraced = _child_pass(name, 0, args, scratch)
    traced = _child_pass(name, 1, args, scratch)
    attempted = untraced["attempted"] + traced["attempted"]
    failures = untraced["failures"] + traced["failures"]
    # The two passes ran in different processes; their outputs must agree.
    for label, digest in untraced["digests"].items():
        attempted += 1
        if traced["digests"].get(label) != digest:
            failures.append(f"{label}: traced pass digest differs from untraced pass")
    end_to_end = {
        m.name: dict(untraced["metrics"][m.name], unit=m.unit)
        for m in catalogue.END_TO_END
        if name in m.workloads and m.name != "failed_frac"
    }
    failed_frac = len(failures) / attempted
    end_to_end["failed_frac"] = dict(
        catalogue.summarize([failed_frac]), values=[failed_frac], unit="ratio"
    )
    per_layer = {
        m.name: dict(traced["metrics"][m.name], unit=m.unit)
        for m in catalogue.PER_LAYER
        if m.name in traced["metrics"]
    }
    return {
        "why": catalogue.WORKLOADS[name],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": untraced["digests"],
        "pinned_cpu": untraced["pinned_cpu"],
    }


def _row(name: str, seen: Dict[str, Any], tail: str = "") -> str:
    return (
        f"  {name:<42} {seen['median']:>14.6g} {seen['q1']:>14.6g} {seen['q3']:>14.6g} "
        f"{seen['n']:>4}  {seen['unit']:<6}{tail}"
    )


def _print_workload(name: str, report: Dict[str, Any]) -> None:
    by_name = {m.name: m for m in catalogue.END_TO_END}
    header = f"  {'metric':<42} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit"
    print(f"\n== {name}: {report['why']}")
    print(f"end-to-end (untraced pass){'' if report['pinned_cpu'] is not None else ' [unpinned]'}")
    print(header + "   better  bound")
    for metric, seen in report["end_to_end"].items():
        m = by_name[metric]
        print(_row(metric, seen, f" {m.better:<7} {m.bound}"))
    print(f"  {report['failed']} failed of {report['attempted']} attempted operations and checks")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    print("per-layer (separate traced pass)")
    print(header + "   share of hot path")
    layers = report["per_layer"]
    hot = [
        m for m in catalogue.PHASE_METRICS.values()
        if m in layers and not m.startswith("experiments.runner.")  # those frame the others
    ]
    hot_total = sum(layers[m]["median"] for m in hot) or 1.0
    for metric, seen in layers.items():
        share = f" {seen['median'] / hot_total:7.1%}" if metric in hot else ""
        print(_row(metric, seen, share))
    print("digests (fct_digest per config; printed, not pinned)")
    for label, digest in sorted(report["digests"].items()):
        print(f"  {label:<28} {digest}")


def _full_report(args: argparse.Namespace) -> int:
    _require_program()
    names = [args.workload] if args.workload else list(catalogue.WORKLOADS)
    if args.reverse:
        names.reverse()
    with scratch_dir("report-") as scratch:
        report = {name: _measure_workload(name, args, scratch) for name in names}
    print(f"perf ledger: seed {args.seed}, {args.seconds} s per pass")
    for name in catalogue.WORKLOADS:
        if name in report:
            _print_workload(name, report[name])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": report}, fh, indent=1)
    return 1 if any(r["failed"] for r in report.values()) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42, help="used as every config's seed")
    parser.add_argument("--seconds", type=float, help="measuring time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one pass in this process")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument("--reverse", action="store_true", help="run the workloads in reverse order")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark_json()["run_seconds"])
    if args.trace is None and not args.setup_only:
        return _full_report(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return _one_pass(args)


if __name__ == "__main__":
    sys.exit(main())
