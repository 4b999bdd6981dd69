#!/usr/bin/env python
"""CI gate for the observability layer's four guarantees.

1. **Parity** — running under a live :class:`repro.obs.Recorder` must
   not change the verification outcome: status, stats and the recorded
   ``SP_i`` trace have to be identical to an uninstrumented run.
2. **Overhead** — with instrumentation disabled (the default ``NULL``
   recorder), the wall-clock cost on the cached 8x8 benchmarks must
   stay within ``--tolerance`` (default 5%) of itself across batches;
   the comparison is min-of-N against min-of-N, which isolates the
   instrumentation-site attribute checks from scheduler noise.
3. **Schema stability** — the event vocabulary (kind -> field names)
   produced by a deterministic sweep over the pipeline must match the
   committed golden snapshot ``tests/obs/event_schema.json``, and every
   trace file the sweep records must start with the trace-format
   header; the run-history store, explain and the diff tool all
   consume these events, so a silently changed field is a cross-run
   data corruption.  After an intentional change, regenerate with
   ``--update-schema``.
4. **Batch telemetry** — a batch verify must keep the cost of streaming
   its trace plus the sampling profiler within ``--telemetry-tolerance``
   of an uninstrumented batch.

Run from the repository root::

    PYTHONPATH=src python scripts/obs_overhead_check.py

Exit code 0 on success, 1 on a parity mismatch, overhead regression or
schema drift.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time

from repro.bench.harness import benchmark_multiplier
from repro.core.verifier import verify_multiplier
from repro.obs import read_events, recording_to
from repro.obs.recorder import TRACE_HEADER

CASES = (("SP-AR-RC", 8, "none"), ("SP-DT-LF", 8, "none"))

DEFAULT_SCHEMA = os.path.join("tests", "obs", "event_schema.json")


def fingerprint(result):
    """Everything about a run that instrumentation must not change."""
    return (result.status, dict(result.stats), result.sizes())


def timed_run(aig, recorder=None):
    start = time.perf_counter()
    result = verify_multiplier(aig, record_trace=True, recorder=recorder)
    return time.perf_counter() - start, result


def check_case(architecture, width, optimization, repeats, tolerance):
    aig = benchmark_multiplier(architecture, width, optimization)
    label = f"{architecture} {width}x{width}"

    timed_run(aig)  # warmup: caches, allocator, branch predictors
    # interleave the two disabled batches so clock drift hits both
    baseline = []
    check = []
    for _ in range(repeats):
        baseline.append(timed_run(aig))
        check.append(timed_run(aig))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        recorder = recording_to(trace_path)
        _, traced_result = timed_run(aig, recorder=recorder)
        recorder.close()
        events = read_trace(trace_path, failures)

    reference = fingerprint(baseline[0][1])
    for seconds, result in baseline + check:
        if fingerprint(result) != reference:
            failures.append(f"{label}: disabled-recorder runs disagree")
            break
    if fingerprint(traced_result) != reference:
        failures.append(f"{label}: live recorder changed the result")
    if not events or events[0]["ev"] != "run_begin":
        failures.append(f"{label}: trace JSONL missing run_begin")

    base = min(seconds for seconds, _ in baseline)
    after = min(seconds for seconds, _ in check)
    ratio = after / base if base else 1.0
    verdict = "ok" if ratio <= 1.0 + tolerance else "REGRESSION"
    print(f"{label}: baseline {base * 1e3:.1f}ms, "
          f"check {after * 1e3:.1f}ms, ratio {ratio:.3f} ({verdict})")
    if verdict != "ok":
        failures.append(
            f"{label}: disabled-instrumentation overhead {ratio:.3f} "
            f"exceeds 1+{tolerance}")
    return failures


def _write_benchmark_designs(tmp, cases=CASES):
    """Materialize the benchmark cases as .aag files for CLI runs."""
    from repro.aig.aiger import write_aag

    paths = []
    for architecture, width, optimization in cases:
        aig = benchmark_multiplier(architecture, width, optimization)
        path = os.path.join(tmp, f"{architecture}-{width}.aag")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(write_aag(aig))
        paths.append(path)
    return paths


def _run_batch_verify(paths, tmp, name, extra):
    """One CLI batch verify; returns (seconds, exit_code, payload)."""
    from repro import cli

    out = os.path.join(tmp, f"{name}.json")
    argv = ["verify", *paths, "--json", out, *extra]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    with open(out, "r", encoding="utf-8") as handle:
        return seconds, code, json.load(handle)


def check_batch_telemetry(repeats, telemetry_tolerance):
    """Tracing + sampling profiler overhead on a batch verify, min-of-N
    on both sides."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_benchmark_designs(tmp)
        plain = min(_run_batch_verify(paths, tmp, f"plain{i}", [])[0]
                    for i in range(repeats))
        traced = min(_run_batch_verify(
            paths, tmp, f"traced{i}",
            ["--trace-out", os.path.join(tmp, f"t{i}.jsonl"),
             "--profile-sample"])[0]
            for i in range(repeats))
    ratio = traced / plain if plain else 1.0
    verdict = "ok" if ratio <= 1.0 + telemetry_tolerance else "REGRESSION"
    print(f"batch telemetry: plain {plain * 1e3:.1f}ms, "
          f"trace+sampler {traced * 1e3:.1f}ms, "
          f"ratio {ratio:.3f} ({verdict})")
    if verdict != "ok":
        return [f"batch: trace+sampler overhead {ratio:.3f} exceeds "
                f"1+{telemetry_tolerance}"]
    return []


def read_trace(path, failures):
    """The events of a trace file; appends a failure unless its first
    line is the trace-format header."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
    if first != json.dumps(TRACE_HEADER):
        failures.append(f"{os.path.basename(path)}: first line {first!r} "
                        f"is not the trace-format header")
        return []
    return read_events(path)


def collect_schema_events(failures):
    """A deterministic sweep that exercises every event kind the
    pipeline can emit (see DESIGN.md "Observability"); a trace file
    without the format header appends to ``failures``."""
    from repro.analysis.lint import lint_design
    from repro.baselines import BASELINES
    from repro.genmul.faults import inject_visible_fault
    from repro.obs.live import LiveMonitor
    from repro.obs.recorder import Recorder
    from repro.opt.scripts import optimize

    events = []

    # DyPoSub with real backtracking (SP-WT-CL): run_begin, span, step,
    # attempt (incl. paused at its size bound), backtrack, threshold,
    # invariants_checked, run_end, summary.
    aig = benchmark_multiplier("SP-WT-CL", 8, "none")
    recorder = Recorder()
    verify_multiplier(aig, record_trace=True, check_invariants=True,
                      recorder=recorder)
    recorder.close()
    events += recorder.events

    # Budget exhaustion: the timeout-shaped run_end (budget_kind).
    aig_dt = benchmark_multiplier("SP-DT-LF", 8, "none")
    recorder = Recorder()
    verify_multiplier(aig_dt, monomial_budget=50, recorder=recorder)
    recorder.close()
    events += recorder.events

    # Optimization pipeline: opt_pass (+ opt.* spans).
    recorder = Recorder()
    optimize(aig_dt, "dc2", recorder=recorder)
    recorder.close()
    events += recorder.events

    # Column-wise baseline: column events.
    recorder = Recorder()
    BASELINES["columnwise-static"](aig_dt, monomial_budget=200_000,
                                   recorder=recorder)
    recorder.close()
    events += recorder.events

    # Modular coefficient ring: the ring event of a modular run.
    recorder = Recorder()
    verify_multiplier(aig_dt, ring="modular", recorder=recorder)
    recorder.close()
    events += recorder.events

    # Lint on an injected fault: diagnostic events.
    recorder = Recorder()
    lint_design(inject_visible_fault(aig_dt, kind="gate-type", seed=0),
                recorder=recorder)
    recorder.close()
    events += recorder.events

    # Live watchdog with an injected clock: stall events.
    times = [0.0]
    monitor = LiveMonitor(Recorder(), stall_budget=1.0,
                          clock=lambda: times[0])
    monitor.event("step", i=1, comp=0, kind="FA", size=10, threshold=None,
                  candidates=2, remaining=3)
    times[0] = 10.0
    monitor.pulse()
    events += monitor.events

    # Commit-level anomaly detection: a detector-armed monitor over an
    # injected size spike fires RP012 (run-local EWMA outlier) and
    # RP013 (stored per-design baseline crossed), each as an "anomaly"
    # event.
    from repro.obs.attribution import AnomalyConfig, CommitAnomalyDetector

    detector = CommitAnomalyDetector(
        AnomalyConfig(tolerance=2.0, floor=1, min_history=3),
        baseline={"peak": 20.0, "runs": 2}, design="SP-WT-CL-8")
    monitor = LiveMonitor(Recorder(), detector=detector)
    monitor.event("rewrite_begin", size=10, components=4, ring="exact")
    for i, size in enumerate((10, 10, 10, 100), start=1):
        monitor.event("step", i=i, comp=i, kind="FA", size=size)
    events += monitor.events

    # Batch with resources and the sampling profiler: task_begin /
    # task_end bookkeeping, resource_sample / phase_resources /
    # resources_summary and the profile event.
    from repro import cli

    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_benchmark_designs(
            tmp, cases=(("SP-AR-RC", 4, "none"), ("SP-WT-CL", 4, "none")))
        trace_path = os.path.join(tmp, "batch.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", *paths, "--trace-out", trace_path,
                      "--resources", "--profile-sample"])
        events += read_trace(trace_path, failures)

        # Single-design run: stage_map + rewrite_begin from the
        # pipeline.
        explain_path = os.path.join(tmp, "explain.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", paths[0], "--trace-out", explain_path])
        events += read_trace(explain_path, failures)
    return events


def schema_from_events(events):
    """Event vocabulary: kind -> sorted union of field names (the ``t``
    timestamp is implicit on every event and excluded)."""
    schema = {}
    for event in events:
        fields = schema.setdefault(event["ev"], set())
        fields.update(key for key in event if key not in ("ev", "t"))
    return {kind: sorted(fields) for kind, fields in sorted(schema.items())}


def check_schema(schema_path, update=False):
    """Compare the pipeline's event vocabulary against the golden
    snapshot; with ``update=True`` rewrite the snapshot instead."""
    failures = []
    events = collect_schema_events(failures)
    if not any(event["ev"] == "attempt" and event.get("paused")
               for event in events):
        failures.append("sweep: no attempt paused at its size bound")
    if failures:
        return failures
    schema = schema_from_events(events)
    if update:
        with open(schema_path, "w", encoding="utf-8") as handle:
            json.dump(schema, handle, indent=2)
            handle.write("\n")
        print(f"wrote {schema_path} ({len(schema)} event kinds)")
        return []
    try:
        with open(schema_path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
    except FileNotFoundError:
        return [f"no golden event schema at {schema_path} "
                f"(generate with --update-schema)"]
    for kind in sorted(set(golden) - set(schema)):
        failures.append(f"event kind {kind!r} is in the golden schema "
                        f"but was not emitted")
    for kind in sorted(set(schema) - set(golden)):
        failures.append(f"event kind {kind!r} is new — update "
                        f"{schema_path} with --update-schema")
    for kind in sorted(set(schema) & set(golden)):
        missing = sorted(set(golden[kind]) - set(schema[kind]))
        added = sorted(set(schema[kind]) - set(golden[kind]))
        if missing:
            failures.append(f"{kind}: field(s) {missing} disappeared")
        if added:
            failures.append(f"{kind}: new field(s) {added} — update "
                            f"{schema_path} with --update-schema")
    if not failures:
        print(f"event schema stable ({len(schema)} kinds, "
              f"{sum(len(f) for f in schema.values())} fields)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per batch (min is compared)")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative overhead (0.05 = 5%%)")
    parser.add_argument("--schema", default=DEFAULT_SCHEMA, metavar="PATH",
                        help="golden event-schema snapshot to check "
                             "against")
    parser.add_argument("--update-schema", action="store_true",
                        help="regenerate the golden snapshot and exit")
    parser.add_argument("--skip-schema", action="store_true",
                        help="skip the event-schema stability check")
    parser.add_argument("--telemetry-tolerance", type=float, default=0.25,
                        metavar="R",
                        help="allowed relative overhead of trace "
                             "streaming + the sampling profiler on a "
                             "batch verify (0.25 = 25%%)")
    parser.add_argument("--batch-repeats", type=int, default=3,
                        help="batch runs per side of the telemetry "
                             "overhead comparison (min is compared)")
    parser.add_argument("--skip-batch", action="store_true",
                        help="skip the batch telemetry overhead check")
    args = parser.parse_args(argv)

    if args.update_schema:
        check_schema(args.schema, update=True)
        return 0

    failures = []
    for architecture, width, optimization in CASES:
        failures += check_case(architecture, width, optimization,
                               args.repeats, args.tolerance)
    if not args.skip_batch:
        failures += check_batch_telemetry(args.batch_repeats,
                                          args.telemetry_tolerance)
    if not args.skip_schema:
        failures += check_schema(args.schema)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("observability parity + overhead + batch telemetry + schema "
          "check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
