#!/usr/bin/env python
"""Microbenchmark for the polynomial/rewriting hot path.

Times the phases that dominate a verification run — specification
build, vanishing-rule compilation + normalization, static backward
rewriting, dynamic backward rewriting (Algorithm 2) exactly and over a
modular coefficient ring — on fixed cached benchmark circuits, and
writes the results to ``BENCH_rewriting.json`` so the repository
carries a perf trajectory across PRs.

The exact and modular dynamic phases (``dynamic_rewrite`` /
``dynamic_rewrite_modular``) are measured as interleaved rounds on the
same circuit so machine-load drift cancels out of the comparison.

Raw wall-clock seconds are not comparable across machines, so every
result also carries a *normalized* cost: the phase time divided by the
time of a fixed pure-Python calibration workload measured in the same
process.  ``--check`` compares normalized costs against the committed
baseline and fails on a >25% regression on the small scale — this is
the CI smoke gate (see ``.github/workflows/ci.yml``).

Run from the repository root::

    PYTHONPATH=src python scripts/perf_bench.py            # measure small
    PYTHONPATH=src python scripts/perf_bench.py --scale all
    PYTHONPATH=src python scripts/perf_bench.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.harness import benchmark_multiplier
from repro.core.atomic import detect_atomic_blocks
from repro.core.spec import multiplier_specification
from repro.core.vanishing import rules_from_blocks
from repro.core.verifier import verify_multiplier

DEFAULT_BASELINE = "BENCH_rewriting.json"
CHECK_TOLERANCE = 0.25
# phases faster than this are dominated by timer/allocator noise and are
# reported but not gated
CHECK_FLOOR_SECONDS = 0.005

# Phase workloads per scale.  ``dynamic_rewrite`` is the heavy cell on
# purpose: SP-WT-CL triggers real Algorithm 2 backtracking, which is
# where the polynomial kernel earns (or loses) its keep.
SCALES = {
    "small": {
        "spec": ("SP-WT-CL", 8, "none", 5),
        "vanishing": ("SP-WT-CL", 8, "none", 5),
        "static": ("SP-DT-LF", 8, "none", 3),
        "dynamic": ("SP-WT-CL", 8, "none", 2),
        "budget": 50_000,
        "time": 120.0,
    },
    "medium": {
        "spec": ("SP-DT-LF", 16, "none", 3),
        "vanishing": ("SP-DT-LF", 16, "none", 3),
        "static": ("SP-DT-LF", 16, "none", 3),
        "dynamic": ("SP-DT-LF", 16, "none", 5),
        "budget": 150_000,
        "time": 600.0,
    },
}


def calibration_seconds(repeats=3):
    """Time a fixed pure-Python workload (dict + int churn shaped like
    the kernel's inner loops); min over ``repeats``."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        acc = {}
        for i in range(120_000):
            key = (i * 2654435761) & 0xFFFFFF
            value = acc.get(key, 0) + (i | (i << 13))
            if value:
                acc[key] = value
            else:
                acc.pop(key, None)
        total = 0
        for key, value in acc.items():
            total += key & value
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _timed(fn, repeats):
    """Min-of-N wall-clock for ``fn``; returns (seconds, last result)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_scale(name, unit):
    """Measure all phases of one scale; returns the JSON record."""
    config = SCALES[name]
    phases = {}

    arch, width, opt, repeats = config["spec"]
    aig = benchmark_multiplier(arch, width, opt)
    seconds, spec = _timed(
        lambda: multiplier_specification(aig, width, width), repeats)
    phases["spec_build"] = _phase(seconds, unit, repeats,
                                  case=f"{arch} {width}x{width} {opt}",
                                  monomials=len(spec))

    arch, width, opt, repeats = config["vanishing"]
    aig_v = benchmark_multiplier(arch, width, opt)
    spec_v = multiplier_specification(aig_v, width, width)
    blocks = detect_atomic_blocks(aig_v)

    def _vanishing():
        rules = rules_from_blocks(blocks)
        return rules.apply(spec_v)

    seconds, _ = _timed(_vanishing, repeats)
    phases["vanishing_normalize"] = _phase(
        seconds, unit, repeats, case=f"{arch} {width}x{width} {opt}",
        blocks=len(blocks))

    # Variant phases of one workload are measured as interleaved rounds
    # (variant A, variant B, A, B, ...) keeping the per-variant minimum:
    # on a shared machine, load drift between two sequentially-timed
    # phases easily exceeds the few-percent difference under test, and
    # pairing cancels it.
    arch, width, opt, repeats = config["static"]
    aig_s = benchmark_multiplier(arch, width, opt)
    phases.update(_interleaved(
        aig_s, f"{arch} {width}x{width} {opt}", unit, repeats, config,
        (("static_rewrite", "static", "exact"),)))

    arch, width, opt, repeats = config["dynamic"]
    aig_d = benchmark_multiplier(arch, width, opt)
    phases.update(_interleaved(
        aig_d, f"{arch} {width}x{width} {opt}", unit, repeats, config,
        (("dynamic_rewrite", "dyposub", "exact"),
         ("dynamic_rewrite_modular", "dyposub", "modular"))))

    return {"phases": phases, "budget": config["budget"]}


def _interleaved(aig, case, unit, repeats, config, variants):
    """Measure ``variants`` — ``(phase, method, ring)`` tuples over one
    circuit — as interleaved rounds, min per phase."""
    timings = {phase: None for phase, _m, _r in variants}
    results = {}
    for _ in range(repeats):
        for phase_name, method, ring in variants:
            start = time.perf_counter()
            results[phase_name] = verify_multiplier(
                aig, method=method, ring=ring,
                monomial_budget=config["budget"],
                time_budget=config["time"])
            elapsed = time.perf_counter() - start
            previous = timings[phase_name]
            timings[phase_name] = (elapsed if previous is None
                                   else min(previous, elapsed))
    phases = {}
    for phase_name, _method, _ring in variants:
        result = results[phase_name]
        phases[phase_name] = _phase(
            timings[phase_name], unit, repeats, case=case,
            status=result.status, steps=result.stats.get("steps"),
            max_poly_size=result.stats.get("max_poly_size"),
            ring=result.stats.get("ring", "exact"))
    return phases


def _phase(seconds, unit, repeats, **extra):
    record = {"seconds": round(seconds, 6),
              "normalized": round(seconds / unit, 3),
              "repeats": repeats}
    record.update(extra)
    return record


def run_check(baseline_path, tolerance, history_paths=()):
    """Re-measure the small scale and gate it with the EWMA trend
    detector over an in-memory run history.

    The committed baseline (and any extra ``history_paths`` payloads,
    oldest first) seed the history; the fresh measurement is the newest
    point.  Gating matches ``repro obs trends --check``: only the
    machine-normalized costs are compared, and phases whose baseline
    wall clock sits under ``CHECK_FLOOR_SECONDS`` are reported as
    noise-floor instead of gated.
    """
    from repro.obs.store import RunStore
    from repro.obs.trends import (TrendConfig, detect_trends, regressions,
                                  render_trends)

    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"FAIL: no committed baseline at {baseline_path}",
              file=sys.stderr)
        return 1
    if not baseline.get("scales", {}).get("small", {}).get("phases", {}):
        print(f"FAIL: {baseline_path} has no small-scale phases",
              file=sys.stderr)
        return 1
    unit = calibration_seconds()
    fresh = {"bench": "rewriting-microbench",
             "calibration_seconds": round(unit, 6),
             "scales": {"small": run_scale("small", unit)}}
    with RunStore(":memory:") as store:
        store.ingest_perf_bench(baseline, source=baseline_path)
        for path in history_paths:
            with open(path, "r", encoding="utf-8") as handle:
                store.ingest_perf_bench(json.load(handle), source=path)
        store.ingest_perf_bench(fresh, source="fresh measurement")
        config = TrendConfig(tolerance=tolerance,
                             floor=CHECK_FLOOR_SECONDS)
        verdicts = [v for v in detect_trends(store, config)
                    if v["design"] == "microbench-small"
                    and v["metric"].startswith("metric:normalized:")]
    print(render_trends(verdicts,
                        title="perf smoke gate (normalized costs)"))
    failures = regressions(verdicts)
    if failures:
        for verdict in failures:
            phase = verdict["metric"][len("metric:normalized:"):]
            print(f"FAIL: {phase} regressed {verdict['ratio']:.3f}x "
                  f"(tolerance 1+{tolerance})", file=sys.stderr)
        return 1
    print("perf smoke gate passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        choices=sorted(SCALES) + ["all"],
                        help="which workload tier to measure")
    parser.add_argument("--json", default=DEFAULT_BASELINE, metavar="PATH",
                        help=f"output path (default {DEFAULT_BASELINE})")
    parser.add_argument("--check", action="store_true",
                        help="compare the small scale against the "
                             "committed baseline instead of writing")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline path for --check")
    parser.add_argument("--history", action="append", default=None,
                        metavar="PATH",
                        help="--check: extra microbench payloads to seed "
                             "the trend history (oldest first, repeatable)")
    parser.add_argument("--tolerance", type=float, default=CHECK_TOLERANCE,
                        help="allowed normalized-cost regression for "
                             "--check (0.25 = 25%%)")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args.baseline, args.tolerance,
                         history_paths=args.history or ())

    unit = calibration_seconds()
    print(f"calibration unit: {unit * 1e3:.1f}ms", flush=True)
    scales = sorted(SCALES) if args.scale == "all" else [args.scale]
    payload = {"bench": "rewriting-microbench",
               "calibration_seconds": round(unit, 6),
               "python": sys.version.split()[0],
               "scales": {}}
    for scale in scales:
        print(f"measuring scale={scale}...", flush=True)
        payload["scales"][scale] = run_scale(scale, unit)
        for phase, record in payload["scales"][scale]["phases"].items():
            print(f"  {phase}: {record['seconds'] * 1e3:.1f}ms "
                  f"({record['normalized']:.2f}u) [{record['case']}]",
                  flush=True)
    # keep scales measured earlier (e.g. medium) when re-measuring small
    if os.path.exists(args.json):
        try:
            with open(args.json, "r", encoding="utf-8") as handle:
                previous = json.load(handle)
            for scale, record in previous.get("scales", {}).items():
                payload["scales"].setdefault(scale, record)
        except (OSError, ValueError):
            pass
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
