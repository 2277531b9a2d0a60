"""Command-line entry point: ``repro-experiments --fig 5`` or ``--all``.

``--scale paper`` runs the paper's full parameters (hours in pure Python at
figure 10-13 scale — see EXPERIMENTS.md); the default ``scaled`` presets run
each figure in seconds to a couple of minutes.

Campaign execution: the simulations behind the selected figures and
extensions are collected up front and run as one deduplicated campaign —
across ``--jobs`` worker processes, backed by the persistent result store
(``--store DIR``, on by default; ``--no-store`` opts out).  Each figure is
then reduced from the campaign's results; one whose config the campaign
quarantined or lost fails with an error naming it.  A store entry is valid only for
the exact simulator code version that produced it (see
:mod:`repro.experiments.store`); ``--store-gc`` deletes entries from older
code versions.  ``--profile`` reports the campaign's event count and
events/s from the simulator's global event counter (reducing a figure
simulates nothing).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, List, Optional

from .. import probe
from ..check import invariants as check_invariants
from ..obs import flightrec as obs_flightrec
from ..obs import live as obs_live
from ..obs import profiler as obs_profiler
from ..obs import registry as obs_registry
from ..obs import stitch as obs_stitch
from ..obs import telemetry as obs_telemetry
from ..obs import tracer as obs_tracer
from ..obs.report import flightrec_runs, render_flows, render_layer_diff, render_report, render_why
from ..sim import calendar as sim_calendar
from ..sim import engine
from ..sim.network import RunBudget
from .extensions import ALL_EXTENSIONS
from .figures import ALL_FIGURES
from .config import BACKENDS, get_default_backend, set_default_backend
from .parallel import EMPTY_OUTCOME, Results, run_campaign, run_config
from .reporting import render
from .runner import drain_incomplete_runs, get_default_budget, set_default_budget
from .store import ResultStore, get_store, set_store
from .supervisor import (
    CampaignIncomplete,
    RetryPolicy,
    SupervisorConfig,
    load_journal,
)

#: Default on-disk result store location (relative to the working directory).
DEFAULT_STORE_DIR = ".repro-store"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures of 'Fast Convergence to Fairness for "
            "Reduced Long Flow Tail Latency in Datacenter Networks' "
            "(IPPS 2022)."
        ),
    )
    parser.add_argument(
        "--fig",
        action="append",
        dest="figs",
        metavar="N",
        help=f"figure to reproduce (repeatable); one of {sorted(ALL_FIGURES, key=int)}",
    )
    parser.add_argument(
        "--all", action="store_true", help="reproduce every figure in order"
    )
    parser.add_argument(
        "--ext",
        action="append",
        dest="exts",
        metavar="NAME",
        help=f"extension experiment (repeatable); one of {sorted(ALL_EXTENSIONS)}",
    )
    parser.add_argument(
        "--scale",
        choices=("scaled", "paper"),
        default="scaled",
        help="parameter preset (default: scaled; 'paper' is full Sec. VI-A scale)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="packet",
        help=(
            "simulation backend: 'packet' is the exact event-level "
            "simulator, 'flow' the fluid fast path (~20x+ faster, "
            "approximate — see DESIGN.md), 'hybrid' packetizes short "
            "flows over a fluid background (default: packet)"
        ),
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="per-run wall-clock watchdog (abort a run exceeding S seconds)",
    )
    parser.add_argument(
        "--budget-events",
        type=int,
        default=None,
        metavar="N",
        help="per-run event-count watchdog (abort a run exceeding N events)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "where the campaign's simulations run: 1 (default) runs them in "
            "this process; N >= 2 runs them in N supervised worker processes "
            "(hung or killed workers are replaced and their runs rescheduled)"
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "append-only campaign journal (one fsync'd JSON line per state "
            "transition); survives crashes and feeds --resume"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume an interrupted campaign from its journal: completed "
            "configs are served from the store, quarantines carry over, and "
            "only unfinished work re-runs"
        ),
    )
    parser.add_argument(
        "--partial-ok",
        action="store_true",
        help=(
            "finish the campaign even when some configs are quarantined or "
            "lost, surfacing per-config statuses instead of failing the "
            "whole invocation"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help=(
            "total attempts per config before it is "
            "quarantined (transient errors) or written off (worker losses) "
            "(default: 3)"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="S",
        help=(
            "base delay before re-attempting a failed "
            "config; doubles per attempt with deterministic jitter "
            "(default: 0, retry immediately)"
        ),
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE_DIR,
        metavar="DIR",
        help=f"persistent result store directory (default: {DEFAULT_STORE_DIR})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent result store for this invocation",
    )
    parser.add_argument(
        "--store-gc",
        action="store_true",
        help="delete store entries from older simulator code versions",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="report the campaign's simulator event count and events/s",
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.json",
        default=None,
        metavar="PATH",
        help=(
            "collect run/campaign telemetry (phase timings, per-worker "
            "heartbeats, cache stats, each run's Jain / convergence / "
            "slowdown summary) and write a schema-validated manifest "
            "(default PATH: telemetry.json)"
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "enable the runtime invariant sanitizer (repro.check): every "
            "simulated run is checked for event-order, byte-conservation, "
            "FIFO, PFC-losslessness, go-back-N, and VAI/SF invariants; a "
            "violation aborts the run with an InvariantViolation naming "
            "the replayable config"
        ),
    )
    parser.add_argument(
        "--flightrec",
        action="store_true",
        help=(
            "attach the flow flight recorder to every packet-backend run: "
            "per-flow FCT decomposition (queueing / serialization / "
            "propagation / PFC pause / retx recovery / CC throttle, "
            "conservation-checked to 1 ns), per-link utilization + queue "
            "series, and a convergence timeline; lands in the manifest's "
            "'flightrec' section — inspect with 'obs why FLOW' and "
            "'obs flows --top-tail'"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "record a structured event trace and write Chrome trace_event "
            "JSON (open in Perfetto or chrome://tracing)"
        ),
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=obs_tracer.DEFAULT_CAPACITY,
        metavar="N",
        help=(
            "tracer ring-buffer capacity for --trace-out and --trace-shards "
            f"(oldest events are dropped beyond it; default: "
            f"{obs_tracer.DEFAULT_CAPACITY})"
        ),
    )
    parser.add_argument(
        "--trace-shards",
        default=None,
        metavar="DIR",
        help=(
            "with --jobs N >= 2: write one Chrome-trace shard per "
            "completed run to DIR (drained from each worker's tracer ring) "
            "and journal their paths; merge with 'obs stitch JOURNAL'"
        ),
    )
    parser.add_argument(
        "--profile-phases",
        action="store_true",
        help=(
            "attribute simulator wall time to hot-path phases (event loop, "
            "port serialize/propagate, CC decision, PFC, fluid relax).  The "
            "attribution lands in the manifest's 'profile' section"
        ),
    )
    parser.add_argument(
        "--flame-out",
        default=None,
        metavar="PATH",
        help=(
            "write the phase profile as collapsed-stack flamegraph text "
            "(one 'a;b;c <usec>' line per stack; feed to flamegraph.pl or "
            "speedscope); implies --profile-phases"
        ),
    )
    return parser


def obs_diff_main(args: "argparse.Namespace") -> int:
    """``obs diff``: name the layer that moved between two ledger reports."""
    try:
        text = render_layer_diff(args.a, args.b)
    except (OSError, ValueError) as exc:
        print(
            f"error: {exc} (obs diff reads two reports written by "
            "'python ledger/run.py --json OUT')",
            file=sys.stderr,
        )
        return 2
    print(text)
    return 0


def obs_top_main(args: "argparse.Namespace") -> int:
    """``obs top``: live dashboard over a supervised campaign's journal."""
    journal = Path(args.journal)
    if not journal.exists():
        print(f"error: journal {journal} does not exist", file=sys.stderr)
        return 2
    try:
        obs_live.watch(
            journal,
            once=args.once,
            interval_s=args.interval,
            clear=not args.no_clear,
            stale_after_s=args.stale_after,
            max_frames=args.max_frames,
        )
    except KeyboardInterrupt:
        pass
    return 0


def obs_stitch_main(args: "argparse.Namespace") -> int:
    """``obs stitch``: merge a campaign journal + trace shards into one trace."""
    try:
        summary = obs_stitch.write_stitched(
            args.journal, args.out, shard_root=args.shard_root
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"[stitch] {summary['workers']} worker track(s), "
        f"{summary['shards_embedded']} shard(s) embedded "
        f"({summary['shards_missing']} missing) -> {args.out} "
        "(open in Perfetto)"
    )
    return 0


def _read_manifest(path: str) -> Optional[Any]:
    """Load, schema-warn and upgrade a telemetry manifest (None if unreadable)."""
    try:
        manifest = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read manifest {path}: {exc}", file=sys.stderr)
        return None
    errors = obs_telemetry.validate_manifest(manifest)
    if errors:
        print(f"warning: {path} fails schema validation:", file=sys.stderr)
        for err in errors[:5]:
            print(f"  - {err}", file=sys.stderr)
    return obs_telemetry.upgrade(manifest)


def obs_why_main(args: "argparse.Namespace") -> int:
    """``obs why``: decompose one flow's FCT from a manifest."""
    manifest = _read_manifest(args.manifest)
    if manifest is None:
        return 2
    text = render_why(manifest, args.flow, run_index=args.run)
    if text is None:
        runs = flightrec_runs(manifest)
        if not runs:
            print(
                "error: manifest has no flightrec section — re-run with "
                "--flightrec to record decompositions",
                file=sys.stderr,
            )
        else:
            truncated = sum(r.get("flows_truncated", 0) for r in runs)
            hint = (
                f" ({truncated} flow(s) were truncated from the section)"
                if truncated
                else ""
            )
            print(
                f"error: flow {args.flow} not found in any recorded "
                f"decomposition{hint}",
                file=sys.stderr,
            )
        return 1
    print(text)
    return 0


def obs_flows_main(args: "argparse.Namespace") -> int:
    """``obs flows``: rank the recorded tail flows from a manifest."""
    manifest = _read_manifest(args.manifest)
    if manifest is None:
        return 2
    text = render_flows(manifest, top=args.top_tail)
    if text is None:
        print(
            "error: manifest has no flightrec section — re-run with "
            "--flightrec to record decompositions",
            file=sys.stderr,
        )
        return 1
    print(text)
    return 0


def obs_main(argv: List[str]) -> int:
    """``repro-experiments obs`` (report, diff, top, stitch, why, flows)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs",
        description="Inspect observability artifacts from past invocations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    rep = sub.add_parser(
        "report",
        help="render a text dashboard from telemetry manifests",
    )
    rep.add_argument(
        "manifests",
        nargs="+",
        metavar="MANIFEST",
        help="telemetry manifest JSON file(s) written by --telemetry",
    )
    diff = sub.add_parser(
        "diff",
        help=(
            "compare two 'python ledger/run.py --json OUT' reports layer by "
            "layer: per workload, every per_layer metric sorted by how far "
            "its median moved, starred where the quartile intervals are "
            "disjoint (verdicts and exit status: ledger/compare.py)"
        ),
    )
    diff.add_argument("a", metavar="A.json", help="ledger report of the parent")
    diff.add_argument("b", metavar="B.json", help="ledger report of the change")
    top = sub.add_parser(
        "top",
        help=(
            "live campaign dashboard: tail a supervised campaign's journal "
            "(read-only, from any process) showing per-worker liveness, "
            "attempt/retry/quarantine counts, and streaming tail estimates"
        ),
    )
    top.add_argument(
        "journal",
        metavar="JOURNAL",
        help="campaign journal written by --journal PATH",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting/CI mode)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="S",
        help="refresh interval in seconds (default: 0.5)",
    )
    top.add_argument(
        "--stale-after",
        type=float,
        default=obs_live.STALE_AFTER_S,
        metavar="S",
        help=(
            "mark a running worker stale when its last heartbeat is older "
            f"than S seconds (default: {obs_live.STALE_AFTER_S})"
        ),
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen between them",
    )
    top.add_argument(
        "--max-frames",
        type=int,
        default=None,
        metavar="N",
        help="exit after N frames even if the campaign is still running",
    )
    sti = sub.add_parser(
        "stitch",
        help=(
            "merge a campaign journal and its per-worker trace shards into "
            "one Perfetto-loadable Chrome trace (one track per worker)"
        ),
    )
    sti.add_argument(
        "journal",
        metavar="JOURNAL",
        help="campaign journal written by --journal PATH",
    )
    sti.add_argument(
        "--out",
        default="stitched_trace.json",
        metavar="PATH",
        help="output trace path (default: stitched_trace.json)",
    )
    sti.add_argument(
        "--shard-root",
        default=None,
        metavar="DIR",
        help=(
            "directory to re-root relative/moved shard paths (defaults to "
            "the paths recorded in the journal)"
        ),
    )
    why = sub.add_parser(
        "why",
        help=(
            "explain one flow's FCT: render its recorded decomposition "
            "(component table, dominant component, conservation residual)"
        ),
    )
    why.add_argument(
        "flow",
        type=int,
        metavar="FLOW",
        help="flow id to explain",
    )
    why.add_argument(
        "manifest",
        metavar="MANIFEST",
        help="telemetry manifest written by --flightrec --telemetry",
    )
    why.add_argument(
        "--run",
        type=int,
        default=None,
        metavar="N",
        help="restrict the search to flightrec run index N (default: all)",
    )
    flo = sub.add_parser(
        "flows",
        help=(
            "rank the recorded flows by FCT slowdown (tail first) with "
            "each flow's dominant FCT component"
        ),
    )
    flo.add_argument(
        "manifest",
        metavar="MANIFEST",
        help="telemetry manifest written by --flightrec --telemetry",
    )
    flo.add_argument(
        "--top-tail",
        type=int,
        default=10,
        metavar="K",
        help="show the K worst flows (default: 10)",
    )
    args = parser.parse_args(argv)
    if args.verb == "flows" and args.top_tail < 1:
        parser.error("--top-tail must be >= 1")
    if args.verb == "diff":
        return obs_diff_main(args)
    if args.verb == "top":
        return obs_top_main(args)
    if args.verb == "stitch":
        return obs_stitch_main(args)
    if args.verb == "why":
        return obs_why_main(args)
    if args.verb == "flows":
        return obs_flows_main(args)

    pairs = []
    for path in args.manifests:
        manifest = _read_manifest(path)
        if manifest is None:
            return 2
        pairs.append((Path(path).name, manifest))
    print(render_report(pairs))
    return 0


def check_main(argv: List[str]) -> int:
    """The ``repro-experiments check`` subcommand family.

    Verbs: ``run`` (a reference preset under the sanitizer), ``digest``
    (canonical flow-completion digest, repeatable for determinism gating),
    ``selftest`` (inject a known violation; must die), ``differential``
    (fused/unfused x serial/parallel x store x obs equivalence matrix),
    ``chaos`` (fault-injected supervised campaign vs fault-free digests), and
    ``claims`` (the paper-claims scoreboard, :mod:`repro.check.claims`).
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments check",
        description=(
            "Correctness-checking entry points: sanitized reference runs, "
            "determinism digests, the injected-violation self-test, and the "
            "differential equivalence matrix (see repro.check)."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    run_p = sub.add_parser(
        "run", help="simulate a reference preset with every invariant checked"
    )
    run_p.add_argument(
        "--preset",
        choices=("incast", "datacenter"),
        default="incast",
        help="reference config (default: incast)",
    )
    dig = sub.add_parser(
        "digest",
        help=(
            "print the canonical flow-completion digest of a reference "
            "preset; with --runs N, simulate N times and fail on mismatch"
        ),
    )
    dig.add_argument(
        "--preset", choices=("incast", "datacenter"), default="incast"
    )
    dig.add_argument(
        "--runs",
        type=int,
        default=1,
        metavar="N",
        help="independent simulations to digest (default: 1)",
    )
    dig.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also append 'DIGEST  PRESET' lines to PATH (CI artifact)",
    )
    sub.add_parser(
        "selftest",
        help=(
            "inject a deliberate pfc-lossless violation; the process must "
            "die with InvariantViolation (CI inverts the exit code)"
        ),
    )
    di = sub.add_parser(
        "differential",
        help="run the full differential equivalence matrix on a reference preset",
    )
    di.add_argument(
        "--preset", choices=("incast", "datacenter"), default="incast"
    )
    di.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for the serial-vs-parallel leg, at least 2 (default: 2)",
    )
    di.add_argument(
        "--backends",
        nargs="*",
        metavar="FIG",
        default=None,
        help=(
            "run the packet-vs-flow backend divergence matrix instead: "
            "each reference figure workload (default: all of "
            "1/8/9) runs on both backends and summary statistics must "
            "agree within documented tolerance bands"
        ),
    )
    di.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the divergence matrix as JSON to PATH (CI failure artifact)",
    )
    ch = sub.add_parser(
        "chaos",
        help=(
            "orchestration chaos harness: inject worker SIGKILLs, hangs, "
            "transient errors, a poison config, and store corruption into a "
            "supervised campaign; assert byte-identical digests vs a "
            "fault-free run"
        ),
    )
    ch.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-plan seed (same seed = same fault assignment; default: 0)",
    )
    ch.add_argument(
        "--configs",
        type=int,
        default=4,
        metavar="N",
        help="reference configs to sweep (>= 4 so every fault fires; default: 4)",
    )
    ch.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="supervised worker processes, at least 2 (default: 2)",
    )
    ch.add_argument(
        "--journal-out",
        default=None,
        metavar="PATH",
        help="write the chaos campaign's journal to PATH (CI failure artifact)",
    )
    ch.add_argument(
        "--verbose",
        action="store_true",
        help="stream supervisor progress lines while the ladder runs",
    )
    ch.add_argument(
        "--backend",
        choices=("packet", "flow"),
        default="packet",
        help=(
            "simulation backend for the chaos ladder; 'flow' proves the "
            "supervisor's journaling/salvage/quarantine machinery is "
            "backend-agnostic (default: packet)"
        ),
    )
    cl = sub.add_parser(
        "claims",
        help=(
            "run every paper claim's configs as one campaign and print the "
            "scoreboard; exit 1 if any claim fails"
        ),
    )
    cl.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the campaign (default: 1, in-process)",
    )
    args = parser.parse_args(argv)
    if args.verb == "claims":
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        from ..check import claims

        try:
            outcome = run_campaign(claims.campaign(claims.CLAIMS), jobs=args.jobs)
        except CampaignIncomplete as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"[campaign] {outcome.stats.summary()}")
        rows = claims.evaluate(claims.CLAIMS, outcome)
        print(claims.render(rows))
        return 0 if all(row.ok for row in rows) else 1
    if args.verb == "differential" and args.jobs < 2:
        # --jobs 1 would compare an in-process campaign with an in-process one.
        parser.error(
            "check differential compares against worker processes: --jobs must be >= 2"
        )
    # Imported here, not at module top: differential pulls in the whole
    # experiments stack and is only needed by this subcommand.
    from ..check import differential

    if args.verb == "run":
        checker = check_invariants.enable()
        try:
            cfg = differential.reference_config(args.preset)
            result = run_config(cfg)
        finally:
            check_invariants.disable()
        print(f"[sanitize] {checker.summary()}")
        print(f"{differential.fct_digest(result)}  {cfg.describe()}")
        return 0
    if args.verb == "digest":
        if args.runs < 1:
            parser.error("--runs must be >= 1")
        digests = []
        for i in range(args.runs):
            digest = differential.digest_preset(args.preset)
            digests.append(digest)
            print(f"{digest}  {args.preset} (run {i + 1}/{args.runs})")
        if args.out is not None:
            with open(args.out, "a") as fh:
                for digest in digests:
                    fh.write(f"{digest}  {args.preset}\n")
        if len(set(digests)) > 1:
            print(
                "determinism: FAIL (identical runs produced different "
                "flow-completion digests)",
                file=sys.stderr,
            )
            return 1
        print("determinism: ok")
        return 0
    if args.verb == "selftest":
        from ..check import selftest as check_selftest

        check_invariants.enable()
        try:
            # An InvariantViolation propagates out of main() here — that is
            # the expected (healthy-sanitizer) outcome, and CI asserts the
            # resulting non-zero exit.  Reaching the lines below means the
            # injected break went undetected.
            check_selftest.run_injected_violation()
        finally:
            check_invariants.disable()
        print(
            "sanitizer self-test: the injected pfc-lossless violation went "
            "UNDETECTED — the sanitizer is broken",
            file=sys.stderr,
        )
        return 0
    if args.verb == "chaos":
        if args.jobs < 2:
            # jobs=1 runs attempts in this process: an injected SIGKILL or
            # hang would strike the harness itself.
            parser.error(
                "check chaos injects faults into worker processes: --jobs must be >= 2"
            )
        import tempfile

        from ..check import chaos as check_chaos

        progress = (
            (lambda message: print(f"[chaos] {message}", flush=True))
            if args.verbose
            else None
        )
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            journal_path = args.journal_out or str(Path(tmp) / "chaos.jsonl")
            report = check_chaos.run_chaos(
                store_dir=str(Path(tmp) / "store"),
                seed=args.seed,
                n_configs=args.configs,
                jobs=args.jobs,
                journal_path=journal_path,
                progress=progress,
                backend=args.backend,
            )
        print(report.render())
        return 0 if report.ok else 1
    # args.verb == "differential"
    import tempfile

    if args.backends is not None:
        figures = args.backends or None  # empty list = all reference figures
        try:
            cells = differential.backend_divergence_matrix(figures)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for cell in cells:
            print(cell.render())
        if args.report_out is not None:
            Path(args.report_out).write_text(
                json.dumps([c.to_dict() for c in cells], indent=2) + "\n"
            )
            print(f"[report] divergence matrix -> {args.report_out}")
        bad = [c for c in cells if not c.within]
        if bad:
            print(
                f"backend divergence matrix: FAIL ({len(bad)} cell(s) out "
                "of tolerance)",
                file=sys.stderr,
            )
            return 1
        print("backend divergence matrix: ok")
        return 0
    cfg = differential.reference_config(args.preset)
    with tempfile.TemporaryDirectory(prefix="repro-diff-") as tmp:
        reports = differential.run_matrix(cfg, store_dir=tmp, jobs=args.jobs)
    for report in reports:
        print(report.render())
    if any(not report.matched for report in reports):
        print("differential matrix: FAIL", file=sys.stderr)
        return 1
    print("differential matrix: ok")
    return 0


def _calendar_name() -> str:
    """Which event calendar the ``[profile]`` rates were measured on."""
    if sim_calendar.NATIVE:
        return "native"
    return f"heapq ({sim_calendar.FALLBACK_REASON})"


def _print_supervision(outcome: "Any") -> None:
    """One status line per campaign + quarantine details."""
    counts: dict = {}
    for status in outcome.statuses.values():
        counts[status] = counts.get(status, 0) + 1
    rendered = ", ".join(
        f"{counts[s]} {s}"
        for s in ("ok", "retried", "salvaged", "quarantined", "lost")
        if counts.get(s)
    )
    print(f"[supervisor] per-config statuses: {rendered or 'none'}")
    for q in outcome.quarantines:
        print(
            f"[supervisor] quarantined {q.desc} [{q.classification}] after "
            f"{q.attempts} attempt(s): {q.error}"
        )
        print(f"[supervisor]   replay with: {q.config_repr}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["obs"]:
        return obs_main(argv[1:])
    if argv[:1] == ["check"]:
        return check_main(argv[1:])
    args = build_parser().parse_args(argv)
    figs = sorted(ALL_FIGURES, key=int) if args.all else list(args.figs or [])
    exts = list(args.exts or [])
    # A typo must not cost a campaign: every id is checked before anything
    # is enabled or run.
    for kind, ids, known in (("figure", figs, ALL_FIGURES), ("extension", exts, ALL_EXTENSIONS)):
        for job_id in ids:
            if job_id not in known:
                print(f"error: unknown {kind} {job_id!r}", file=sys.stderr)
                return 2
    if exts and args.scale != "scaled":
        print("error: extensions run the scaled presets only", file=sys.stderr)
        return 2
    if "failure-sweep" in exts and args.backend != "packet":
        print(
            f"error: --ext failure-sweep injects packet-level faults, which "
            f"--backend {args.backend} cannot model",
            file=sys.stderr,
        )
        return 2
    backend, store, budget = get_default_backend(), get_store(), get_default_budget()
    planes, collector = probe.attached(), obs_telemetry.get()
    try:
        return _run(args, argv, figs, exts)
    finally:
        # Leave the process as we found it for in-process callers (tests),
        # whichever way _run left: what it attached goes, and what the
        # caller had attached comes back.
        set_default_backend(backend)
        set_store(store)
        set_default_budget(budget)
        if args.profile_phases or args.flame_out is not None:
            obs_profiler.disable()  # stops its clock; detaching alone does not
        probe.restore(planes)
        if collector is None:
            obs_telemetry.disable()
        else:
            obs_telemetry.enable(collector)


def _run(args: "argparse.Namespace", argv: List[str], figs: List[str], exts: List[str]) -> int:
    """What ``main`` does between taking and restoring the process defaults."""
    if args.backend != "packet":
        # Process-wide default: the figure functions spell packet-backend
        # configs, and the cache boundary rewrites them (campaign workers
        # are started with the same default).
        set_default_backend(args.backend)
        print(f"[backend] running simulations on the [{args.backend}] backend")
    wall_start = time.perf_counter()
    events_start = engine.total_events_executed()

    store: Optional[ResultStore] = None
    if not args.no_store:
        store = ResultStore(args.store)
        set_store(store)
    if args.store_gc:
        gc_store = store if store is not None else ResultStore(args.store)
        removed, freed = gc_store.gc()
        print(f"[store] gc: removed {removed} stale file(s), freed {freed} bytes")
        if not figs and not exts:
            return 0
    if not figs and not exts:
        build_parser().print_help()
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    budget = None
    if args.budget_seconds is not None or args.budget_events is not None:
        budget = RunBudget(
            wall_clock_s=args.budget_seconds, max_events=args.budget_events
        )
        set_default_budget(budget)

    collector = None
    if args.telemetry is not None:
        obs_registry.enable()
        collector = obs_telemetry.enable()
    tracer = None
    if args.trace_out is not None:
        tracer = obs_tracer.enable(capacity=args.trace_capacity)
    sanitizer = None
    if args.sanitize:
        sanitizer = check_invariants.enable()
    recorder = None
    if args.flightrec:
        recorder = obs_flightrec.enable()
    profiler = None
    if args.profile_phases or args.flame_out is not None:
        profiler = obs_profiler.enable()
    progress = None
    if collector is not None:
        def progress(message: str) -> None:
            print(f"[campaign] {message}", flush=True)

    resume_state = None
    if args.resume is not None:
        try:
            resume_state = load_journal(args.resume)
        except (OSError, ValueError) as exc:
            print(f"error: cannot resume from {args.resume}: {exc}",
                  file=sys.stderr)
            return 2
    # Without --journal a resumed campaign keeps appending to the same history.
    journal_path = args.journal or args.resume
    supervisor_cfg = SupervisorConfig(
        policy=RetryPolicy(
            max_attempts=args.max_attempts, backoff_s=args.retry_backoff
        ),
        journal_path=Path(journal_path) if journal_path else None,
        resume=resume_state,
        partial_ok=args.partial_ok,
        trace_shard_dir=Path(args.trace_shards) if args.trace_shards else None,
        trace_capacity=args.trace_capacity,
    )
    if args.trace_shards is not None and args.jobs == 1:
        print(
            "warning: --trace-shards is drained by worker processes; "
            "pass --jobs 2 or more to collect shards (ignoring)",
            file=sys.stderr,
        )

    # Run every selected entry's simulations as one deduplicated campaign,
    # then reduce each entry from its results.
    exit_code = 0
    entries = [("figure", str(f), ALL_FIGURES[str(f)]) for f in figs]
    entries += [("extension", str(e), ALL_EXTENSIONS[str(e)]) for e in exts]
    declared = {(kind, job_id): entry.configs(args.scale) for kind, job_id, entry in entries}
    campaign = [cfg for configs in declared.values() for cfg in configs]
    outcome = EMPTY_OUTCOME
    if campaign:
        campaign_events = engine.total_events_executed()
        try:
            outcome = run_campaign(
                campaign,
                jobs=args.jobs,
                budget=budget,
                progress=progress,
                supervisor=supervisor_cfg,
            )
        except CampaignIncomplete as exc:
            # Without --partial-ok: the journal and partial results are
            # intact; entries depending on missing configs fail below.
            outcome = exc.outcome
            print(f"error: {exc}", file=sys.stderr)
            exit_code = 1
        print(f"[campaign] {outcome.stats.summary()}")
        _print_supervision(outcome)
        if args.profile and not exit_code:
            # Events executed by workers happen in other processes; this
            # counter covers the in-process (jobs=1) campaign.
            events = engine.total_events_executed() - campaign_events
            rate = events / outcome.stats.wall_s if outcome.stats.wall_s else 0.0
            print(
                f"[profile] campaign: events={events} "
                f"wall={outcome.stats.wall_s:.2f}s events/s={rate:,.0f} "
                f"calendar={_calendar_name()}"
            )

    for kind, job_id, entry in entries:
        start = time.perf_counter()
        try:
            result = entry.reduce(args.scale, Results(outcome, declared[kind, job_id]))
        except Exception as exc:
            print(
                f"error: {kind} {job_id} failed: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            exit_code = 1
            continue
        elapsed = time.perf_counter() - start
        print(render(result))
        print(f"\n[{kind} {job_id} reproduced in {elapsed:.1f}s]\n")
    if store is not None:
        print(f"[store] {store.stats.summary()}")
    incomplete = drain_incomplete_runs()
    if incomplete:
        print(
            f"error: {len(incomplete)} run(s) ended with incomplete flows:",
            file=sys.stderr,
        )
        for line in incomplete:
            print(f"  - {line}", file=sys.stderr)
        exit_code = 1

    if tracer is not None:
        Path(args.trace_out).write_text(tracer.to_chrome_json() + "\n")
        print(
            f"[trace] {len(tracer)} event(s) ({tracer.dropped} dropped) -> "
            f"{args.trace_out} (open in Perfetto)"
        )
        if tracer.dropped:
            print(
                f"warning: trace truncated: ring overflowed and dropped "
                f"{tracer.dropped} event(s) (capacity {tracer.capacity}); "
                "the oldest events are missing — raise --trace-capacity",
                file=sys.stderr,
            )
    profile_section = None
    if profiler is not None:
        obs_profiler.disable()
        profile_section = profiler.section()
        if args.flame_out is not None:
            Path(args.flame_out).write_text(profiler.collapsed())
            print(f"[profile] flamegraph stacks -> {args.flame_out}")
        top_phases = sorted(
            profile_section["phases"].items(), key=lambda kv: -kv[1]["wall_s"]
        )[:4]
        rendered = ", ".join(
            f"{name}={entry['wall_s']:.3f}s" for name, entry in top_phases
        )
        print(
            f"[profile] phases ({profile_section['mode']}): "
            f"{rendered or 'none recorded'}"
        )
    if recorder is not None and collector is None:
        # No manifest to carry the section — print the decomposition
        # headlines so the recorder's work is not silently dropped.
        for run in recorder.runs:
            totals = run.get("components_total") or {}
            dominant = max(totals, key=lambda k: totals[k]) if totals else "-"
            failures = run.get("conservation_failures", 0)
            status = "conserved" if not failures else f"{failures} FAILURE(S)"
            print(
                f"[flightrec] {run.get('desc', '?')}: "
                f"{run.get('flows_completed', 0)}/{run.get('flows_tracked', 0)} "
                f"flow(s), dominant={dominant}, {status} "
                f"(worst residual {run.get('max_residual_ns', 0.0):.3g} ns)"
            )
        print(f"[flightrec] {recorder.summary()}")
    if collector is not None:
        # Campaign workers execute their events in other processes; their run
        # records carry the counts, so fold them into the process total.
        events_total = engine.total_events_executed() - events_start
        events_total += sum(
            r["events"] for r in collector.runs if r.get("pid") is not None
        )
        manifest = obs_telemetry.build_manifest(
            collector,
            wall_s=time.perf_counter() - wall_start,
            events_executed=events_total,
            argv=argv,
            store_stats=store.stats if store is not None else None,
            counters=(
                obs_registry.get().snapshot() if obs_registry.enabled() else None
            ),
            trace=tracer,
            profile=profile_section,
            flightrec=(recorder.section() if recorder is not None else None),
        )
        errors = obs_telemetry.validate_manifest(manifest)
        if errors:
            print(
                "error: telemetry manifest fails schema validation:",
                file=sys.stderr,
            )
            for err in errors:
                print(f"  - {err}", file=sys.stderr)
            exit_code = exit_code or 1
        obs_telemetry.write_manifest(args.telemetry, manifest)
        print(f"[telemetry] manifest -> {args.telemetry}")
    if sanitizer is not None and exit_code == 0:
        # A violation surfaces above as a failed figure (exit_code 1); the
        # summary is only meaningful when every checked run survived.  Campaign
        # workers run their own checkers (a violation there quarantines the
        # config and fails the campaign), so their counts are not in the
        # parent's tally.
        note = " (+ per-worker checks)" if args.jobs > 1 else ""
        print(f"[sanitize] {sanitizer.summary()}{note}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
