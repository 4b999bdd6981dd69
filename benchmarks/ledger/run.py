#!/usr/bin/env python3
"""Verification ledger: time to a verdict through the real CLI and
service, plus a traced run for the per-layer split.

Run from the repository root::

    python3 benchmarks/ledger/run.py --seed 1                # all workloads
    python3 benchmarks/ledger/run.py --workload blowup --seed 1 \\
        --seconds 20 --trace 0                               # one workload
    python3 benchmarks/ledger/run.py traced --seed 1         # per-layer
    python3 benchmarks/ledger/run.py compare A.json B.json   # regressions
    python3 benchmarks/ledger/run.py vet                     # pool timings

Every run checks each verdict against ground truth, prints every metric
by name and unit, writes a results JSON under ``.ledger/results`` (or
``--out``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics ``BENCHMARK.json``
lists (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  It
exits 1 when any verdict is wrong, and 2 when the program's source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

from hostspeed import pin_to_one_cpu
from pools import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".ledger"
DEFAULT_SEED = 1


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name, seed, seconds, trace):
    from timed import Children, run_timed
    from traced import run_traced

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    children = Children(ROOT, workdir)
    try:
        if trace:
            result = run_traced(WORKLOADS[name], seed, children)
        else:
            result = run_timed(WORKLOADS[name], seed, seconds, children)
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result["correct"] = result["failed"] == 0
    return result


def print_table(results):
    for name, result in results.items():
        print(f"\n{name}: {result['attempted']} attempted, "
              f"{result['failed']} failed"
              + (f", {result['rounds']} round(s) in "
                 f"{result['timed_s']:.1f}s" if "rounds" in result else ""))
        samples = result.get("samples", {})
        measured = result.get("measured", {})
        if "host" in result:
            print(f"  host-scaled to a {result['host']['nominal_s']:g}s "
                  f"reference; it took "
                  f"{result['host']['reference_s_p50']:.4f}s (median of "
                  f"{result['host']['reference_runs']} runs)")
            print(f"  {'metric':36s} {'host-scaled':>14s} {'unit':9s} "
                  f"{'measured':>14s}")
        for metric, (value, unit) in result["metrics"].items():
            note = ""
            if metric in measured and unit not in ("MB", "fraction"):
                note = f"{measured[metric][0]:14.6g}"
            if metric.startswith("verdict_s_"):
                note += f" n={samples['verdict_s']}"
            elif metric.startswith("hit_ms_"):
                note += f" n={samples['hit_ms']}"
            print(f"  {metric:36s} {value:14.6g} {unit:9s} {note}")
        for failure in result["failures"]:
            print(f"  FAILED {failure}")


def last_line(result, names):
    """The one-line JSON the benchmark contract asks for."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name][0],
                           "unit": result["metrics"][name][1]}
                    for name in names},
    })


def load_results(path):
    """The workloads of one results file or, for a directory, of every
    results file in it, each metric the median over the files and
    ``failed`` the failures per run."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            runs.append(json.load(handle)["workloads"])
    merged = {}
    for workload in {name for run in runs for name in run}:
        results = [run[workload] for run in runs if workload in run]
        metrics = {}
        for key, (_value, unit) in results[0]["metrics"].items():
            values = [r["metrics"][key][0] for r in results
                      if key in r["metrics"]]
            metrics[key] = (statistics.median(values), unit)
        merged[workload] = {
            "metrics": metrics,
            "failed": sum(r["failed"] for r in results) / len(results)}
    return merged


def compare(path_a, path_b):
    """Print every workload x end-to-end metric of two results files (or
    directories of them); returns 1 when any is worse in B than its
    bound allows, or when B fails more requests."""
    a = load_results(path_a)
    b = load_results(path_b)
    metrics = load_benchmark()["end_to_end"]
    common = [name for name in WORKLOADS if name in a and name in b]
    if not common:
        print("compare: the results share no workload")
        return 1
    outside = 0
    print(f"{'workload':12s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} verdict")
    for name in common:
        for metric in metrics:
            key = metric["name"]
            value_a = a[name]["metrics"].get(key, (None,))[0]
            value_b = b[name]["metrics"].get(key, (None,))[0]
            if value_a is None or value_b is None:
                outside += 1
                print(f"{name:12s} {key:16s} missing")
                continue
            worse = (value_b - value_a) / value_a
            if metric["better"] == "higher":
                worse = -worse
            ok = worse <= metric["bound"]
            outside += not ok
            print(f"{name:12s} {key:16s} {value_a:12.6g} {value_b:12.6g} "
                  f"{value_b / value_a:7.3f} "
                  f"{'within' if ok else 'OUTSIDE'} "
                  f"(bound {metric['bound']:.0%})")
        if b[name]["failed"] > a[name]["failed"]:
            outside += 1
            print(f"{name:12s} failed requests per run rose from "
                  f"{a[name]['failed']:g} to {b[name]['failed']:g}")
    return 1 if outside else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end verification ledger (see README.md)")
    parser.add_argument("mode", nargs="?", default="run",
                        choices=("run", "traced", "compare", "vet"))
    parser.add_argument("files", nargs="*",
                        help="compare: A B, each a results JSON or a "
                             "directory of them")
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="results JSON path (default: under .ledger/)")
    args = parser.parse_args(argv)

    if args.mode == "compare":
        if len(args.files) != 2:
            parser.error("compare needs two results files or directories")
        return compare(*args.files)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    if args.mode == "vet":
        from traced import vet

        workdir = WORK / f"vet-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            return 1 if vet(workdir) else 0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    trace = 1 if args.mode == "traced" else args.trace
    benchmark = load_benchmark()
    seconds = (args.seconds if args.seconds is not None
               else benchmark["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, seconds, trace)
               for name in names}
    print_table(results)

    out = Path(args.out) if args.out else (
        WORK / "results" / f"{args.workload}-seed{args.seed}-"
                           f"{'traced' if trace else 'timed'}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"seed": args.seed, "seconds": seconds, "trace": trace,
               "python": platform.python_version(),
               "cpus": os.cpu_count(), "workloads": results}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    print(f"\nresults: {out}")

    correct = all(result["correct"] for result in results.values())
    if len(names) == 1:
        listed = benchmark["per_layer" if trace else "end_to_end"]
        print(last_line(results[names[0]], [m["name"] for m in listed]))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
