"""Command-line interface: generate, optimize, verify and report.

Mirrors the way the original DyPoSub tool is driven (AIG in, verdict
out) while also exposing this package's generators, optimizers and the
observability layer::

    python -m repro generate SP-DT-LF 16 -o mult.aag
    python -m repro optimize mult.aag --script resyn3 -o mult_opt.aag
    python -m repro verify mult_opt.aag --width-a 16
    python -m repro verify mult.aag --method static --budget 100000
    python -m repro verify mult.aag --trace-out run.jsonl -v
    python -m repro verify mult.aag --live --stall-budget 5
    python -m repro verify mult.aag --check-invariants
    python -m repro lint mult.aag --json findings.json
    python -m repro analyze mult.aag --json arch.json
    python -m repro report run.jsonl
    python -m repro explain run.jsonl
    python -m repro explain run:12 --db runs.db
    python -m repro obs ingest --db runs.db run.jsonl bench.json
    python -m repro obs diff static.jsonl dynamic.jsonl
    python -m repro serve --port 8642 --jobs 2 --db runs.db
    python -m repro submit mult.aag --port 8642
    python -m repro status --port 8642
    python -m repro inject mult.aag --kind gate-type -o buggy.aag
    python -m repro stats mult.aag

Exit codes of ``verify``: 0 correct, 1 buggy, 2 timeout, 3 the design
could not be read (``RA005``), parsed, or failed pre-flight lint.  ``lint`` exits 0 when every input is clean and
1 when any has findings (errors or warnings).  ``analyze`` exits 0 when
every design was classified without findings, 1 when any RS0xx warning
fired, 3 when an input could not be parsed.  ``explain`` exits 0 on
success, 1 when attribution coverage falls below 95% of the measured
rewrite wall-time or SP_i growth, and 2 when the trace / run reference
cannot be read or carries no rewriting instrumentation.  ``report``,
``explain``, ``obs ingest`` and ``obs diff`` exit 2 on an unreadable
trace, including one without this build's trace-format header;
``report``, ``explain`` and ``obs diff`` also refuse a batch
``verify`` trace (exit 2), whose runs are read per run after ``obs
ingest``.  Every ``obs`` subcommand and ``serve`` exit 2 on a store
file that is not a run store of this build's schema.
A closed stdout (``| head``) ends any command quietly with exit 0.
An unrecognized argument, a bad ``generate`` architecture or width,
and an output file (``-o``, ``--json``, ``--sarif``, ``--trace-out``)
in a directory that does not exist end any command in one
``<command>: <message>`` line with exit 2, before it does any work.

The run-history database path defaults to ``$REPRO_OBS_DB`` (or
``runs.db``); batch ``verify`` auto-ingests its records whenever a
database is configured.  A running ``repro serve`` answers ``GET
/metrics`` with the Prometheus text exposition of that store.

``-v``/``-q`` tune the stdlib logging level of the ``repro.*`` logger
namespace (default WARNING; ``-v`` INFO, ``-vv`` DEBUG, ``-q`` ERROR).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.aig.aiger import read_aag, write_aag
from repro.errors import GeneratorError, ReproError

log = logging.getLogger("repro.cli")


class _LazyChoices:
    """argparse ``choices`` read from their defining module on first
    use, so building the parser imports no generator or optimizer.
    Options using it set ``metavar``: argparse would otherwise list the
    choices while the parser is built."""

    def __init__(self, load):
        self._load = load

    def __iter__(self):
        return iter(self._load())

    def __contains__(self, value):
        return value in self._load()


def _optimization_names():
    from repro.opt.scripts import OPTIMIZATIONS

    return sorted(OPTIMIZATIONS)


def _fault_kinds():
    from repro.genmul.faults import FAULT_KINDS

    return FAULT_KINDS


def build_parser():
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument("-v", "--verbose", action="count", default=0,
                           help="more logging (-v INFO, -vv DEBUG)")
    verbosity.add_argument("-q", "--quiet", action="count", default=0,
                           help="less logging (errors only)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DyPoSub reproduction: SCA verification of integer "
                    "multipliers",
        parents=[verbosity])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a multiplier AIG",
                         parents=[verbosity])
    gen.add_argument("architecture", help="e.g. SP-DT-LF")
    gen.add_argument("width", type=int)
    gen.add_argument("--width-b", type=int, default=None)
    gen.add_argument("-o", "--output", default=None,
                     help="AIGER output path (default: stdout)")

    opt = sub.add_parser("optimize", help="run an optimization script",
                         parents=[verbosity])
    opt.add_argument("input", help="AIGER input path")
    opt.add_argument("--script", default="resyn3",
                     choices=_LazyChoices(_optimization_names),
                     metavar="SCRIPT", help="one of %(choices)s")
    opt.add_argument("-o", "--output", default=None)

    ver = sub.add_parser("verify", help="formally verify multiplier AIGs",
                         parents=[verbosity])
    ver.add_argument("inputs", nargs="+", metavar="input",
                     help="AIGER input path(s); several paths switch to "
                          "batch mode with one verdict line per file")
    ver.add_argument("--width-a", type=int, default=None,
                     help="operand-A width (default: half the inputs)")
    ver.add_argument("--signed", action="store_true")
    ver.add_argument("--method", default="dyposub",
                     choices=["dyposub", "static"])
    ver.add_argument("--budget", type=int, default=None,
                     help="monomial budget (stand-in for the paper's TO)")
    ver.add_argument("--time-budget", type=float, default=None,
                     help="wall-clock budget in seconds")
    ver.add_argument("--threshold", type=float, default=None,
                     help="Algorithm 2 initial growth threshold, a finite "
                          "positive number (default: INITIAL_THRESHOLD "
                          "of repro.core.dynamic)")
    ver.add_argument("--ring", default="exact", metavar="RING",
                     help="coefficient ring of the rewrite stage: "
                          "'exact' (default) or 'modular' (one run "
                          "modulo a prime above the design's "
                          "coefficient bound)")
    ver.add_argument("--trace-out", default=None, metavar="PATH",
                     help="stream a JSONL event trace to PATH "
                          "(replay it with `repro report PATH`)")
    ver.add_argument("--resources", action="store_true",
                     help="track per-phase peak RSS, tracemalloc deltas "
                          "and GC counts (printed after the verdict and "
                          "recorded in the trace)")
    ver.add_argument("--profile-sample", action="store_true",
                     help="run the stdlib sampling profiler and print a "
                          "hotspot table attributed to pipeline phases "
                          "and rewrite commits")
    ver.add_argument("--json", default=None, metavar="PATH",
                     help="write per-input records (verdict, stats, "
                          "per-phase timings) as one merged JSON file")
    ver.add_argument("--check-invariants", action="store_true",
                     help="validate the pipeline's own invariants while "
                          "verifying (coverage, rule table, substitution "
                          "order, SP_i signatures)")
    ver.add_argument("--no-preflight", action="store_true",
                     help="skip the structural pre-flight lint")
    ver.add_argument("--live", action="store_true",
                     help="render a live one-line progress status, flag "
                          "stalls (no commit within the stall budget) as "
                          "RP011 diagnostics, and screen every commit "
                          "for SP_i outliers (RP012/RP013)")
    ver.add_argument("--stall-budget", type=float, default=10.0,
                     metavar="SECONDS",
                     help="--live watchdog: flag a stall after this "
                          "many seconds without a commit (default 10)")
    ver.add_argument("--db", default=os.environ.get("REPRO_OBS_DB"),
                     metavar="PATH",
                     help="also ingest the per-input records into this "
                          "run-history database and use its certificate "
                          "cache: designs whose canonical fingerprint is "
                          "already certified are answered in O(hash) "
                          "(default: $REPRO_OBS_DB when set)")
    ver.add_argument("--no-cache", action="store_true",
                     help="with --db: skip the certificate-cache lookup "
                          "and re-verify (fresh verdicts are still "
                          "cached)")

    lnt = sub.add_parser("lint",
                         help="static analysis: lint multiplier AIGs "
                              "without verifying them",
                         parents=[verbosity])
    lnt.add_argument("inputs", nargs="+", metavar="input",
                     help="AIGER input path(s)")
    lnt.add_argument("--width-a", type=int, default=None,
                     help="operand-A width (default: inferred from port "
                          "names or an even input split)")
    lnt.add_argument("--no-probe", action="store_true",
                     help="skip the random-simulation multiplier probe")
    lnt.add_argument("--seed", type=int, default=0,
                     help="probe PRNG seed")
    lnt.add_argument("--json", default=None, metavar="PATH",
                     help="write the merged reports as JSON")
    lnt.add_argument("--sarif", default=None, metavar="PATH",
                     help="write the findings as a SARIF 2.1.0 document")

    ana = sub.add_parser("analyze",
                         help="static architecture recognition and "
                              "blow-up prediction (no verification)",
                         parents=[verbosity])
    ana.add_argument("inputs", nargs="+", metavar="input",
                     help="AIGER input path(s)")
    ana.add_argument("--width-a", type=int, default=None,
                     help="operand-A width (default: inferred from port "
                          "names or an even input split)")
    ana.add_argument("--json", default=None, metavar="PATH",
                     help="write the merged architecture reports as JSON")
    ana.add_argument("--sarif", default=None, metavar="PATH",
                     help="write the RS0xx findings as a SARIF 2.1.0 "
                          "document")

    rep = sub.add_parser("report",
                         help="rebuild the SP_i curve and backtracking "
                              "summary from a recorded JSONL trace",
                         parents=[verbosity])
    rep.add_argument("trace", help="JSONL trace file written by "
                                   "`verify --trace-out`")
    rep.add_argument("--hotspots", action="store_true",
                     help="append the sampling-profiler hotspot table "
                          "(traces recorded with --profile-sample)")

    exp = sub.add_parser("explain",
                         help="commit/rule/stage cost attribution of a "
                              "recorded run: where its rewrite time and "
                              "SP_i growth landed",
                         parents=[verbosity])
    exp.add_argument("target",
                     help="JSONL trace path or run:ID (store reference)")
    exp.add_argument("--db", default=os.environ.get("REPRO_OBS_DB",
                                                    "runs.db"),
                     metavar="PATH",
                     help="run-history store for run:ID references")
    exp.add_argument("--json", default=None, metavar="PATH",
                     help="write the report as JSON ('-' for stdout "
                          "instead of the text rendering)")

    obs = sub.add_parser("obs",
                         help="cross-run observability: run-history "
                              "store, diffs",
                         parents=[verbosity])
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    default_db = os.environ.get("REPRO_OBS_DB", "runs.db")

    ing = obs_sub.add_parser("ingest", parents=[verbosity],
                             help="ingest traces / bench JSON into the "
                                  "run-history store")
    ing.add_argument("files", nargs="+", metavar="file",
                     help="JSONL traces or verify/bench --json payloads")
    ing.add_argument("--db", default=default_db, metavar="PATH")
    ing.add_argument("--design", default=None,
                     help="design label for JSONL traces (default: "
                          "file stem)")
    ing.add_argument("--optimization", default="none")
    ing.add_argument("--method", default=None)
    ing.add_argument("--git-rev", default=None,
                     help="revision label (default: current git HEAD)")

    dif = obs_sub.add_parser("diff", parents=[verbosity],
                             help="structural diff of two runs "
                                  "(Fig.-5-style replay)")
    dif.add_argument("run_a", help="trace JSONL path or run:ID")
    dif.add_argument("run_b", help="trace JSONL path or run:ID")
    dif.add_argument("--db", default=default_db, metavar="PATH",
                     help="store for run:ID references")
    dif.add_argument("--no-plot", action="store_true",
                     help="skip the ASCII SP_i overlay plot")
    dif.add_argument("--json", default=None, metavar="PATH",
                     help="write the structural diff as JSON")

    prn = obs_sub.add_parser("prune", parents=[verbosity],
                             help="retention for the run-history store: "
                                  "drop old runs and VACUUM")
    prn.add_argument("--db", default=default_db, metavar="PATH")
    prn.add_argument("--keep-last", type=int, default=None, metavar="N",
                     help="keep only the newest N runs of every "
                          "(design, optimization, method) series")
    prn.add_argument("--before", default=None, metavar="DATE",
                     help="also drop runs created before this ISO "
                          "date/datetime (e.g. 2026-01-01)")

    srv = sub.add_parser("serve",
                         help="run the verification service: an HTTP/"
                              "JSON job server with a priority queue "
                              "and the certificate cache",
                         parents=[verbosity])
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="listening port (default 8642; 0 picks an "
                          "ephemeral port and prints it)")
    srv.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="jobs verified at once, each on its own "
                          "dispatcher thread (default 1)")
    srv.add_argument("--db", default=os.environ.get("REPRO_OBS_DB",
                                                    "runs.db"),
                     metavar="PATH",
                     help="run-history store backing the certificate "
                          "cache (default: $REPRO_OBS_DB or runs.db)")

    sbm = sub.add_parser("submit",
                         help="submit AIGs to a running `repro serve` "
                              "and print the verdicts",
                         parents=[verbosity])
    sbm.add_argument("inputs", nargs="+", metavar="input",
                     help="AIGER input path(s)")
    sbm.add_argument("--host", default="127.0.0.1")
    sbm.add_argument("--port", type=int, default=8642)
    sbm.add_argument("--priority", type=int, default=5,
                     help="queue priority (lower runs first; default 5)")
    sbm.add_argument("--width-a", type=int, default=None)
    sbm.add_argument("--signed", action="store_true")
    sbm.add_argument("--method", default=None,
                     choices=["dyposub", "static"])
    sbm.add_argument("--budget", type=int, default=None,
                     help="per-job monomial budget")
    sbm.add_argument("--time-budget", type=float, default=None,
                     help="per-job wall-clock budget in seconds")
    sbm.add_argument("--no-cache", action="store_true",
                     help="force a fresh verification run")
    sbm.add_argument("--no-wait", action="store_true",
                     help="print the job ids and return without "
                          "polling for the verdicts")
    sbm.add_argument("--timeout", type=float, default=600.0,
                     help="max seconds to wait per job (default 600)")
    sbm.add_argument("--json", default=None, metavar="PATH",
                     help="write the final job records as one JSON file")

    stt = sub.add_parser("status",
                         help="query a running `repro serve`: service "
                              "stats, the job table, or one job",
                         parents=[verbosity])
    stt.add_argument("job", nargs="?", default=None,
                     help="job id (default: service stats + job table)")
    stt.add_argument("--host", default="127.0.0.1")
    stt.add_argument("--port", type=int, default=8642)
    stt.add_argument("--events", action="store_true",
                     help="with a job id: print its obs event stream "
                          "as JSONL")
    stt.add_argument("--json", action="store_true",
                     help="print the raw JSON response")

    inj = sub.add_parser("inject", help="inject a fault (for testing)",
                         parents=[verbosity])
    inj.add_argument("input")
    inj.add_argument("--kind", default="gate-type",
                     choices=_LazyChoices(_fault_kinds),
                     metavar="KIND", help="one of %(choices)s")
    inj.add_argument("--seed", type=int, default=0)
    inj.add_argument("-o", "--output", default=None)

    sta = sub.add_parser("stats", help="print AIG statistics",
                         parents=[verbosity])
    sta.add_argument("input")
    return parser


def configure_logging(verbose=0, quiet=0):
    """Wire the ``repro.*`` logger namespace to stderr.

    Returns the computed level.  Idempotent: re-invocations (e.g. from
    tests calling :func:`main` repeatedly) adjust the level instead of
    stacking handlers.
    """
    level = logging.WARNING - 10 * verbose + 10 * quiet
    level = max(logging.DEBUG, min(logging.ERROR, level))
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)
        root.propagate = False
    else:
        # re-entry (tests call main() repeatedly): follow the current
        # sys.stderr instead of the one captured at first attach; direct
        # assignment, as setStream() would flush the old (maybe closed)
        # stream
        for handler in root.handlers:
            if isinstance(handler, logging.StreamHandler):
                handler.stream = sys.stderr
    root.setLevel(level)
    return level


def _read_design(path):
    """Parse an input design, or print its ``RA0xx`` report and return
    None (a missing, unreadable or malformed file is not a traceback)."""
    try:
        return read_aag(path)
    except ReproError as exc:
        from repro.analysis import report_from_error

        print(report_from_error(exc, subject=path).render(),
              file=sys.stderr)
        return None


def _emit(aig, output):
    text = write_aag(aig)
    if output:
        with open(output, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify_batch(args):
    """Several inputs, verified one after another: one verdict line
    each, optional merged JSON, one trace of every task."""
    import json

    from repro.core.pipeline import VerifyConfig
    from repro.errors import ConfigError
    from repro.service.persistence import ingest_verify_records
    from repro.service.task import (Task, cached_record, open_store,
                                    task_worker)

    try:
        config = VerifyConfig.from_args(args)
    except ConfigError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    # certificate cache first: already-certified designs are answered
    # here in O(hash) and never run
    use_cache = not args.no_cache
    cached = {}
    store = open_store(args.db) if use_cache else None
    if store is not None:
        with store:
            for path in args.inputs:
                record = cached_record(store, path, config)
                if record is not None:
                    record["input"] = path
                    cached[path] = record
        if cached:
            log.info("answered %d of %d input(s) from the certificate "
                     "cache", len(cached), len(args.inputs))

    # a trace or a live monitor reads one recorder that carries every
    # task (each task_begin restarts its aggregates and the monitor's
    # fold); otherwise each task's events live only while it runs
    from repro.obs.recorder import JsonlSink, Recorder

    sink = JsonlSink(args.trace_out) if args.trace_out else None
    recorder = monitor = None
    if sink is not None or args.live:
        recorder = Recorder(sink=sink)
    if args.live:
        from repro.obs.live import LiveMonitor

        monitor = LiveMonitor(recorder, stall_budget=args.stall_budget,
                              stream=sys.stderr)
    records = []
    for path in args.inputs:
        if path in cached:
            records.append(cached[path])
            continue
        records.append(task_worker(
            Task(path, path, path, config, args.db, use_cache,
                 args.resources, args.profile_sample),
            monitor or recorder or Recorder()))
    if monitor is not None:
        monitor.finish()
        if monitor.stalls:
            print(f"live: {len(monitor.stalls)} stall(s) flagged "
                  f"(RP011, budget {args.stall_budget:g}s)",
                  file=sys.stderr)
    if sink is not None:
        sink.close()
        log.info("wrote %d events to %s", len(recorder.events),
                 args.trace_out)
    exit_code = 0
    for record in records:
        marker = " [cache hit]" if record.get("cache_hit") else ""
        print(f"{record['input']}: {record['summary']}{marker}")
        if record["status"] == "buggy":
            cex = record["counterexample"]
            print(f"  counterexample: a={cex['a']} b={cex['b']}")
            exit_code = max(exit_code, 1)
        elif record["timed_out"]:
            exit_code = max(exit_code, 2)
        elif record["status"] == "invalid":
            _print_diagnostics(record)
            exit_code = max(exit_code, 3)
    if args.json:
        payload = {"command": "verify", "inputs": args.inputs,
                   "records": records}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        log.info("wrote %d records to %s", len(records), args.json)
    if args.db:
        ingest_verify_records(records, args.db)
    return exit_code


def _print_diagnostics(record, file=None):
    """One ``CODE severity: message`` line per finding of an
    ``invalid`` verdict record."""
    for diag in record.get("diagnostics", []):
        print(f"  {diag.get('code', '?')} {diag.get('severity', 'error')}: "
              f"{diag.get('message', '')}", file=file or sys.stdout)


def _cmd_verify(args):
    import json

    from repro.core.pipeline import VerifyConfig
    from repro.errors import ConfigError
    from repro.obs.recorder import JsonlSink, Recorder
    from repro.service.task import open_store, run_design

    if len(args.inputs) > 1:
        return _cmd_verify_batch(args)
    try:
        config = VerifyConfig.from_args(args)
    except ConfigError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    aig = _read_design(args.inputs[0])
    if aig is None:
        return 3
    recorder = None
    monitor = None
    tracker = None
    profiler = None
    if (args.trace_out or args.json or args.live or args.db
            or args.resources or args.profile_sample):
        sink = JsonlSink(args.trace_out) if args.trace_out else None
        recorder = Recorder(sink=sink)
    if args.resources:
        from repro.obs.resources import ResourceTracker

        tracker = ResourceTracker(recorder)
        recorder = tracker
    if args.live:
        import pathlib

        from repro.obs.attribution import (CommitAnomalyDetector,
                                           design_baseline)
        from repro.obs.live import LiveMonitor

        baseline = None
        design = pathlib.Path(args.inputs[0]).stem
        if args.db:
            from repro.obs.store import RunStore

            try:
                with RunStore(args.db) as store:
                    baseline = design_baseline(store, design,
                                               method=args.method)
            except Exception as exc:  # noqa: BLE001 - observability only
                log.warning("could not load %s baseline from %s: %s",
                            design, args.db, exc)
        detector = CommitAnomalyDetector(baseline=baseline, design=design)
        monitor = LiveMonitor(recorder, stall_budget=args.stall_budget,
                              stream=sys.stderr, detector=detector)
        recorder = monitor
    if args.profile_sample:
        from repro.obs.resources import SamplingProfiler

        profiler = SamplingProfiler(recorder)
        profiler.start()
    store = open_store(args.db)
    try:
        result, record = run_design(aig, config, recorder=recorder,
                                    store=store, design=args.inputs[0],
                                    use_cache=not args.no_cache)
    finally:
        if store is not None:
            store.close()
    if monitor is not None:
        monitor.finish()
        if monitor.stalls:
            print(f"live: {len(monitor.stalls)} stall(s) flagged "
                  f"(RP011, budget {args.stall_budget:g}s)",
                  file=sys.stderr)
        if monitor.anomalies:
            print(f"live: {len(monitor.anomalies)} commit anomaly(ies) "
                  f"flagged (RP012/RP013)", file=sys.stderr)
    profile_summary = profiler.stop() if profiler is not None else None
    if tracker is not None:
        tracker.stop()
    if result is None:
        print(f"{args.inputs[0]}: {record['summary']}", file=sys.stderr)
        _print_diagnostics(record, file=sys.stderr)
    else:
        cache_note = " [cache hit]" if record["cache_hit"] else ""
        print(record["summary"] + cache_note)
    if monitor is not None and monitor.stalls:
        record["stalls"] = [diag.as_dict() for diag in monitor.stalls]
    if monitor is not None and monitor.anomalies:
        record["anomalies"] = [diag.as_dict()
                               for diag in monitor.anomalies]
    if args.json:
        payload = {"command": "verify", "inputs": args.inputs,
                   "records": [record]}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    if args.db:
        from repro.service.persistence import ingest_verify_records

        ingest_verify_records([record], args.db)
    if recorder is not None:
        recorder.close()
        if args.trace_out:
            log.info("wrote %d events to %s",
                     len(recorder.events), args.trace_out)
    if tracker is not None:
        from repro.obs.resources import render_resource_table

        print()
        print("Resource usage")
        print("--------------")
        print(render_resource_table(tracker.phase_resources,
                                    tracker.resources_summary()))
    if profile_summary is not None:
        from repro.obs.resources import render_hotspot_table

        print()
        print("Sampling profiler")
        print("-----------------")
        print(render_hotspot_table(profile_summary))
    if result is None:
        return 3
    if result.status == "buggy":
        a = result.stats.get("counterexample_a")
        b = result.stats.get("counterexample_b")
        print(f"counterexample: a={a} b={b}")
        return 1
    if result.timed_out:
        return 2
    return 0


def _cmd_serve(args):
    """Run the verification service until ``POST /shutdown``."""
    from repro.errors import ObsDataError
    from repro.service.core import VerificationService
    from repro.service.server import run_server

    service = VerificationService(db=args.db, workers=args.jobs)

    def ready(server):
        print(f"repro serve: listening on "
              f"http://{server.host}:{server.port} "
              f"(db={args.db or 'none'}, {args.jobs} dispatcher "
              f"thread(s))", flush=True)

    try:
        run_server(service, host=args.host, port=args.port, ready=ready)
    except ObsDataError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_submit(args):
    """Submit designs to a running service; verdict line(s) + the
    batch-verify exit code contract (0/1/2/3)."""
    import json

    from repro.service.client import ServiceClient, ServiceError

    options = {}
    if args.width_a is not None:
        options["width_a"] = args.width_a
    if args.signed:
        options["signed"] = True
    if args.method:
        options["method"] = args.method
    if args.budget is not None:
        options["monomial_budget"] = args.budget
    if args.time_budget is not None:
        options["time_budget"] = args.time_budget

    client = ServiceClient(args.host, args.port)
    jobs = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="ascii") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
        try:
            info = client.submit(text, design=path,
                                 priority=args.priority, options=options,
                                 use_cache=not args.no_cache)
        except (ServiceError, OSError) as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
        jobs.append(info)
        if args.no_wait:
            print(f"{path}: {info['id']} {info['state']}")
    if args.no_wait:
        return 0
    exit_code = 0
    final = []
    for info in jobs:
        if info["state"] not in ("done", "failed"):
            try:
                info = client.wait(info["id"], timeout=args.timeout)
            except (TimeoutError, ServiceError, OSError) as exc:
                print(f"submit: {exc}", file=sys.stderr)
                return 2
        final.append(info)
        record = info.get("record") or {}
        if info["state"] == "failed":
            print(f"{info['design']}: failed: {info.get('error')}")
            exit_code = max(exit_code, 2)
            continue
        marker = " [cache hit]" if record.get("cache_hit") else ""
        summary = record.get("summary", record.get("status", "?"))
        print(f"{info['design']}: {summary}{marker}")
        if record.get("status") == "buggy":
            cex = record.get("counterexample") or {}
            print(f"  counterexample: a={cex.get('a')} b={cex.get('b')}")
            exit_code = max(exit_code, 1)
        elif record.get("timed_out"):
            exit_code = max(exit_code, 2)
        elif record.get("status") == "invalid":
            for diag in record.get("diagnostics", []):
                print(f"  {diag.get('code', '?')} "
                      f"{diag.get('severity', 'error')}: "
                      f"{diag.get('message', '')}")
            exit_code = max(exit_code, 3)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"command": "submit", "jobs": final}, handle,
                      indent=2)
        log.info("wrote %d job record(s) to %s", len(final), args.json)
    return exit_code


def _cmd_status(args):
    """Query a running service: stats + job table, or one job."""
    import json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        if args.job:
            if args.events:
                for event in client.events(args.job):
                    print(json.dumps(event, sort_keys=True))
                return 0
            info = client.job(args.job)
            if args.json:
                print(json.dumps(info, indent=2, sort_keys=True))
                return 0
            print(f"{info['id']}: {info['state']} "
                  f"(design {info['design']}, priority {info['priority']})")
            record = info.get("record") or {}
            if record:
                marker = (" [cache hit]" if record.get("cache_hit")
                          else "")
                print(f"  {record.get('summary', record.get('status'))}"
                      f"{marker}")
            if info.get("error"):
                print(f"  error: {info['error']}")
            return 0
        stats = client.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"service: {stats['workers']} dispatcher thread(s), "
              f"up {stats['uptime']:.1f}s, db {stats['db'] or 'none'}")
        jobs = stats["jobs"]
        print(f"jobs: {jobs.get('done', 0)} done, "
              f"{jobs.get('running', 0)} running, "
              f"{jobs.get('queued', 0)} queued, "
              f"{jobs.get('failed', 0)} failed")
        print(f"cache: {stats.get('cache_hits', 0)} hit(s), "
              f"{stats.get('certificates', 0)} certificate(s)")
        for row in client.jobs():
            line = (f"  {row['id']}  {row['state']:<8} "
                    f"p{row['priority']}  {row['design']}")
            if row.get("status"):
                line += f"  {row['status']}"
                if row.get("cache_hit"):
                    line += " [cache hit]"
            print(line)
        return 0
    except (ServiceError, OSError) as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 2


def _cmd_lint(args):
    """Lint one or more designs; exit 0 when all are clean."""
    import json

    from repro.analysis import lint_design, report_from_error
    from repro.errors import ReproError

    reports = []
    for path in args.inputs:
        try:
            aig = read_aag(path)
        except ReproError as exc:
            report = report_from_error(exc, subject=path)
        else:
            report = lint_design(aig, width_a=args.width_a,
                                 probe=not args.no_probe, seed=args.seed)
            report.subject = path
        reports.append(report)
        print(report.render())
    if args.json:
        payload = {"command": "lint",
                   "reports": [report.as_dict() for report in reports]}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        log.info("wrote %d report(s) to %s", len(reports), args.json)
    if args.sarif:
        merged = reports[0] if len(reports) == 1 else None
        if merged is None:
            from repro.analysis import DiagnosticReport

            merged = DiagnosticReport(subject="batch")
            for report in reports:
                merged.extend(report)
        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(merged.to_sarif(), handle, indent=2)
        log.info("wrote SARIF to %s", args.sarif)
    return 0 if all(report.clean for report in reports) else 1


def _cmd_analyze(args):
    """Statically classify one or more designs.

    Exit codes: 0 every design analyzed without findings, 1 at least
    one RS0xx warning/error finding, 3 at least one input could not be
    read or parsed.
    """
    import json

    from repro.analysis import DiagnosticReport, report_from_error
    from repro.analysis.structure import analyze_aig
    from repro.core.atomic import detect_atomic_blocks
    from repro.errors import ReproError

    records = []
    findings = False
    unreadable = False
    for path in args.inputs:
        try:
            aig = read_aag(path)
        except ReproError as exc:
            unreadable = True
            report = report_from_error(exc, subject=path)
            print(report.render())
            records.append({"subject": path, "architecture": None,
                            "diagnostics": report.as_dict()})
            continue
        arch = analyze_aig(aig, detect_atomic_blocks(aig),
                           width_a=args.width_a, subject=path)
        print(arch.render())
        records.append(arch.as_dict())
        if not arch.report.clean:
            findings = True
    if args.json:
        payload = {"command": "analyze", "reports": records}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        log.info("wrote %d report(s) to %s", len(records), args.json)
    if args.sarif:
        merged = DiagnosticReport(subject="analyze")
        for record in records:
            diags = record["diagnostics"]["diagnostics"]
            for diag in diags:
                merged.add(diag["code"], diag["message"],
                           severity=diag["severity"],
                           node=diag.get("node"), line=diag.get("line"))
        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(merged.to_sarif(), handle, indent=2)
        log.info("wrote SARIF to %s", args.sarif)
    if unreadable:
        return 3
    return 1 if findings else 0


def _cmd_explain(args):
    """Cost attribution of one recorded run; see the module docstring
    for exit codes."""
    import json

    from repro.obs.attribution import (COVERAGE_TARGET, attribute_store_run,
                                       attribute_view, render_attribution)

    if args.target.startswith("run:"):
        from repro.obs.store import RunStore

        try:
            with RunStore(args.db) as store:
                report = attribute_store_run(
                    store, int(args.target[len("run:"):]))
        except (OSError, ValueError) as exc:
            print(f"explain: {exc}", file=sys.stderr)
            return 2
    else:
        view = _load_trace("explain", args.target,
                           per_run="repro explain run:ID --db DB")
        if view is None:
            return 2
        if view.rewrite_window is None:
            print(f"explain: {args.target}: no rewriting "
                  "instrumentation in the trace (record it with "
                  "`verify --trace-out`)", file=sys.stderr)
            return 2
        report = attribute_view(view)
    if args.json:
        text = json.dumps({"command": "explain", "attribution": report},
                          indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text)
            log.info("wrote %s", args.json)
    if args.json != "-":
        print(render_attribution(report))
    wall_frac = report["wall"]["attributed_fraction"]
    growth_frac = report["growth"]["attributed_fraction"]
    if min(wall_frac, growth_frac) < COVERAGE_TARGET:
        print(f"explain: attribution coverage below "
              f"{COVERAGE_TARGET:.0%} (wall {wall_frac:.1%}, "
              f"growth {growth_frac:.1%})", file=sys.stderr)
        return 1
    return 0


def _load_trace(command, path, per_run):
    """Fold a trace file for ``command``: the :class:`RunView`, or None
    after printing ``<command>: <error>`` (the caller exits 2).

    A batch ``verify`` trace (one run per task) is refused: ``per_run``
    names the per-run command to use after ``obs ingest`` splits it.
    """
    from repro.errors import ObsDataError
    from repro.obs.recorder import read_events_tolerant
    from repro.obs.view import fold_events

    try:
        events, skipped = read_events_tolerant(path)
        if skipped:
            log.warning("%s: skipped %d unparseable line(s)", path, skipped)
        view = fold_events(events, label=path)
    except ObsDataError as exc:
        print(f"{command}: {path}: {exc}", file=sys.stderr)
        return None
    except (OSError, ValueError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None
    if view.tasks:
        print(f"{command}: {path} is a batch trace of {view.runs} runs; "
              f"split it with `repro obs ingest --db DB {path}`, then "
              f"run `{per_run}` on the ingested run ids", file=sys.stderr)
        return None
    return view


def _obs_view(ref, db):
    """Resolve a ``repro obs diff`` operand: ``run:ID`` hits the store,
    anything else is folded from a trace JSONL file."""
    if ref.startswith("run:"):
        from repro.obs.diff import view_from_store
        from repro.obs.store import RunStore

        with RunStore(db) as store:
            return view_from_store(store, int(ref[len("run:"):]))
    return _load_trace("obs diff", ref,
                       per_run="repro obs diff run:A run:B --db DB")


def _cmd_obs(args):
    """``repro obs``: a store file that is not a SQLite database exits
    2 with one line."""
    from repro.errors import ObsDataError

    try:
        return _obs_subcommand(args)
    except ObsDataError as exc:
        print(f"obs {args.obs_command}: {exc}", file=sys.stderr)
        return 2


def _obs_subcommand(args):
    import json

    from repro.obs.store import RunStore, current_git_rev

    if args.obs_command == "ingest":
        git_rev = args.git_rev or current_git_rev()
        total = 0
        with RunStore(args.db) as store:
            for path in args.files:
                try:
                    run_ids = store.ingest_file(
                        path, design=args.design,
                        optimization=args.optimization,
                        method=args.method, git_rev=git_rev)
                except (OSError, ValueError) as exc:
                    print(f"obs ingest: {path}: {exc}", file=sys.stderr)
                    return 2
                total += len(run_ids)
                print(f"{path}: ingested {len(run_ids)} run(s)")
            print(f"{args.db}: {len(store)} run(s) total")
        log.info("ingested %d run(s) into %s", total, args.db)
        return 0

    if args.obs_command == "diff":
        from repro.obs.diff import diff_views, render_diff

        try:
            view_a = _obs_view(args.run_a, args.db)
            view_b = _obs_view(args.run_b, args.db)
        except (OSError, ValueError) as exc:
            print(f"obs diff: {exc}", file=sys.stderr)
            return 2
        if view_a is None or view_b is None:
            return 2
        diff = diff_views(view_a, view_b)
        print(render_diff(diff, plot=not args.no_plot))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump({"command": "obs-diff", **diff}, handle, indent=2)
        return 0

    if args.obs_command == "prune":
        if args.keep_last is None and args.before is None:
            print("obs prune: nothing to do — give --keep-last N "
                  "and/or --before DATE", file=sys.stderr)
            return 2
        before = None
        if args.before is not None:
            import datetime

            try:
                before = datetime.datetime.fromisoformat(
                    args.before).timestamp()
            except ValueError:
                print(f"obs prune: --before: {args.before!r} is not an "
                      "ISO date/datetime", file=sys.stderr)
                return 2
        with RunStore(args.db) as store:
            summary = store.prune(keep_last=args.keep_last, before=before)
        counts = ", ".join(f"{table} {count}" for table, count
                           in summary["tables"].items())
        print(f"{args.db}: pruned {summary['deleted']} run(s), "
              f"{summary['remaining']} remaining (vacuumed)")
        print(f"rows: {counts}")
        return 0
    raise AssertionError("unreachable")


# Files each command writes, checked before it does any work: a verdict
# must not be lost to (or, with exit 1, mistaken for) a failed write.
_OUTPUT_PATHS = {
    "generate": ("output",), "optimize": ("output",),
    "inject": ("output",), "verify": ("json", "trace_out"),
    "lint": ("json", "sarif"), "analyze": ("json", "sarif"),
    "explain": ("json",), "obs": ("json",), "submit": ("json",),
}


def _missing_output_dir(args):
    """The message for the first output path whose directory does not
    exist, or None."""
    for name in _OUTPUT_PATHS.get(args.command, ()):
        path = getattr(args, name, None)   # only `obs diff` has --json
        if path:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                return f"cannot write {path}: no directory {directory}"
    return None


def main(argv=None):
    args, unknown = build_parser().parse_known_args(argv)
    # one line, like a bad option value, not a usage dump
    problem = (f"unrecognized arguments: {' '.join(unknown)}" if unknown
               else _missing_output_dir(args))
    if problem:
        print(f"{args.command}: {problem}", file=sys.stderr)
        return 2
    configure_logging(args.verbose, args.quiet)
    try:
        code = _run_command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout (``| head``, a pager) went away: stop
        # quietly, and point stdout at devnull so that the interpreter's
        # exit-time flush cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


def _run_command(args):
    if args.command == "generate":
        from repro.genmul.multiplier import generate_multiplier

        try:
            aig = generate_multiplier(args.architecture, args.width,
                                      args.width_b)
        except GeneratorError as exc:
            print(f"generate: {exc}", file=sys.stderr)
            return 2
        _emit(aig, args.output)
        log.info("%s: %d AND nodes", aig.name, aig.num_ands)
        return 0
    if args.command == "optimize":
        from repro.opt.scripts import optimize

        aig = _read_design(args.input)
        if aig is None:
            return 3
        before = aig.num_ands
        optimized = optimize(aig, args.script)
        _emit(optimized, args.output)
        log.info("%s: %d -> %d AND nodes", args.script, before,
                 optimized.num_ands)
        return 0
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "report":
        from repro.obs.report import render_report

        view = _load_trace("report", args.trace,
                           per_run="repro explain run:ID --db DB")
        if view is None:
            return 2
        print(render_report(view, hotspots=args.hotspots))
        return 0
    if args.command == "inject":
        from repro.genmul.faults import inject_visible_fault

        aig = _read_design(args.input)
        if aig is None:
            return 3
        buggy = inject_visible_fault(aig, kind=args.kind, seed=args.seed)
        _emit(buggy, args.output)
        return 0
    if args.command == "stats":
        aig = _read_design(args.input)
        if aig is None:
            return 3
        for key, value in aig.stats().items():
            print(f"{key}: {value}")
        from repro.core.atomic import detect_atomic_blocks

        blocks = detect_atomic_blocks(aig)
        fa = sum(1 for blk in blocks if blk.kind == "FA")
        print(f"full_adders: {fa}")
        print(f"half_adders: {len(blocks) - fa}")
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
