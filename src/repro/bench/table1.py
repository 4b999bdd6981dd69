"""Table I — verification of optimized multipliers.

Regenerates the paper's Table I grid: architecture x optimization x
size, reporting AIG nodes, removed vanishing monomials, maximum
``SP_i`` size, DyPoSub's run time, and the run times of the prior-art
static method families (TO = budget exhausted, the stand-in for the
paper's 24 h time-out).

Differences from the paper (see EXPERIMENTS.md):

* sizes are scaled down for pure Python (``REPRO_BENCH_SCALE``);
* the Onespin commercial column is ``n/a`` (closed source);
* the ``map3`` optimization column carries the boundary-destruction
  strength of abc's NPN rewriting (our dc2/resyn3 reimplementations are
  gentler than abc's, so the static-order failures the paper reports
  for dc2/resyn3 appear in our flow under ``map3``).

Run with ``python -m repro.bench.table1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.harness import (
    bench_config,
    benchmark_multiplier,
    run_method,
    runtime_cell,
)
from repro.bench.render import render_table
from repro.core.result import result_record
from repro.obs.recorder import Recorder

# The paper's Table I architecture list (stage abbreviations as in the
# paper: SP/BP o {AR,WT,DT,BD,OS} o {RC,CK,CL,CU,KS,BK,LF}).
ARCHITECTURES = (
    "SP-DT-LF",
    "SP-AR-CK",
    "SP-BD-KS",
    "SP-WT-CL",
    "BP-AR-RC",
    "BP-OS-CU",
    "SP-AR-RC",
    "SP-WT-BK",
)

OPTIMIZATIONS = ("none", "dc2", "resyn3", "map3")

BASELINE_COLUMNS = (
    ("revsca-static", "[13]"),
    ("polycleaner-static", "[10]"),
    ("naive-static", "[5]/[11]"),
    ("columnwise-static", "[8]/[16]"),
)


def table1_cases(config=None):
    """The (architecture, size, optimization) grid for this scale."""
    config = config or bench_config()
    cases = []
    for architecture in ARCHITECTURES:
        sizes = (config["booth_sizes"] if architecture.startswith("BP")
                 else config["sizes"])
        for width in sizes:
            for optimization in OPTIMIZATIONS:
                cases.append((architecture, width, optimization))
    return cases


def run_case(architecture, width, optimization, config=None,
             methods=None, telemetry=False):
    """Run one Table I cell across all methods; returns a result dict.

    With ``telemetry=True`` every method runs under its own
    :class:`~repro.obs.Recorder` and the returned dict gains a
    ``records`` entry of JSON-serializable per-method records with
    per-phase timings.
    """
    config = config or bench_config()
    aig = benchmark_multiplier(architecture, width, optimization)
    methods = methods or ("dyposub",) + tuple(m for m, _ in BASELINE_COLUMNS)
    results = {}
    records = {}
    for method in methods:
        recorder = Recorder() if telemetry else None
        result = run_method(method, aig, budget=config["budget"],
                            time_budget=config["time"], recorder=recorder)
        results[method] = result
        if telemetry:
            records[method] = result_record(result, recorder)
    case = {"aig": aig, "results": results}
    if telemetry:
        case["records"] = records
    return case


def _case_row(architecture, width, optimization, config, telemetry):
    """One Table I cell: its printable row and, with ``telemetry``, its
    JSON record (else None)."""
    case = run_case(architecture, width, optimization, config,
                    telemetry=telemetry)
    record = None
    if telemetry:
        record = {
            "architecture": architecture,
            "size": f"{width}x{width}",
            "optimization": optimization,
            "nodes": case["aig"].num_ands,
            "methods": case["records"],
        }
    ours = case["results"]["dyposub"]
    row = [
        f"{width}x{width}",
        architecture,
        "-" if optimization == "none" else optimization,
        case["aig"].num_ands,
        ours.stats.get("vanishing_removed", 0) if not ours.timed_out else "-",
        ours.stats.get("max_poly_size", 0),
        runtime_cell(ours),
        "n/a",  # commercial tool (closed source)
    ]
    for method, _tag in BASELINE_COLUMNS:
        row.append(runtime_cell(case["results"][method]))
    return row, record


def build_rows(config=None, progress=None, records=None):
    """Build the printable rows; with ``records`` (a list), also append
    one JSON-serializable record per case.  ``progress`` is called with
    each case's label before it runs."""
    config = config or bench_config()
    rows = []
    for architecture, width, optimization in table1_cases(config):
        if progress is not None:
            progress(f"{architecture} {width}x{width} {optimization}")
        row, record = _case_row(architecture, width, optimization, config,
                                records is not None)
        rows.append(row)
        if record is not None:
            records.append(record)
    return rows


HEADERS = ["Size", "Benchmark", "Optimiz.", "Nodes", "Vanishing",
           "MaxPoly", "Ours(s)", "Com.", "[13](s)", "[10](s)",
           "[5]/[11](s)", "[8]/[16](s)"]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.bench.table1")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write per-case results with per-phase "
                             "timings as JSON (e.g. BENCH_TABLE1.json)")
    parser.add_argument("--db", default=os.environ.get("REPRO_OBS_DB"),
                        metavar="PATH",
                        help="also ingest the per-case records into this "
                             "run-history database (default: $REPRO_OBS_DB "
                             "when set)")
    args = parser.parse_args(argv)
    config = bench_config()
    print(f"# Table I reproduction (scale={config['scale']}, "
          f"budget={config['budget']} monomials, "
          f"time={config['time']:.0f}s per case)", flush=True)
    records = [] if (args.json or args.db) else None
    rows = build_rows(config, records=records,
                      progress=lambda s: print(f"  running {s}...",
                                               file=sys.stderr,
                                               flush=True))
    print(render_table(HEADERS, rows, title="Table I: optimized multipliers"))
    payload = {"bench": "table1", "config": config, "cases": records}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.db:
        from repro.bench.harness import ingest_payload

        run_ids = ingest_payload(payload, args.db)
        print(f"ingested {len(run_ids)} run(s) into {args.db}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
