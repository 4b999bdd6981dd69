"""Fig. 5 — ``SP_i`` size per backward-rewriting step.

Regenerates the paper's Fig. 5: the number of monomials in the
intermediate specification polynomial at every rewriting step for the
``SP o DT o LF`` multiplier, (a) unoptimized, (b) dc2, (c) resyn3 —
each with the static ordering (black line in the paper) and the dynamic
ordering (red line).  The paper's headline observation must hold: on
optimized netlists the static order produces peaks orders of magnitude
above the dynamic order.

Run with ``python -m repro.bench.fig5``.
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
)
from repro.bench.render import render_table, render_trace_plot
from repro.core.result import result_record
from repro.obs.recorder import Recorder

ARCHITECTURE = "SP-DT-LF"
VARIANTS = ("none", "dc2", "resyn3", "map3")


def trace_case(optimization, width=None, config=None, telemetry=False):
    """Collect static and dynamic SP_i traces for one Fig. 5 panel.

    With ``telemetry=True`` each method runs under its own
    :class:`~repro.obs.Recorder` and the result gains a ``records``
    entry with per-phase timings alongside the trace sizes.
    """
    config = config or bench_config()
    width = width or config["fig5_size"]
    aig = benchmark_multiplier(ARCHITECTURE, width, optimization)
    traces = {}
    peaks = {}
    status = {}
    records = {}
    for method, label in (("dyposub", "dynamic"), ("revsca-static", "static")):
        recorder = Recorder() if telemetry else None
        result = run_method(method, aig, budget=config["budget"],
                            time_budget=config["time"], record_trace=True,
                            recorder=recorder)
        traces[label] = result.trace
        peaks[label] = result.stats.get("max_poly_size", 0)
        status[label] = result.status
        if telemetry:
            records[label] = result_record(result, recorder)
    case = {"aig": aig, "traces": traces, "peaks": peaks, "status": status,
            "width": width, "optimization": optimization}
    if telemetry:
        case["records"] = records
    return case


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.bench.fig5")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write per-panel traces with per-phase "
                             "timings as JSON (e.g. BENCH_FIG5.json)")
    parser.add_argument("--db", default=os.environ.get("REPRO_OBS_DB"),
                        metavar="PATH",
                        help="also ingest the per-panel records into this "
                             "run-history database (default: $REPRO_OBS_DB "
                             "when set)")
    args = parser.parse_args(argv)
    config = bench_config()
    width = config["fig5_size"]
    telemetry = args.json is not None or args.db is not None
    print(f"# Fig. 5 reproduction: {ARCHITECTURE} {width}x{width} "
          f"(scale={config['scale']})", flush=True)
    summary = []
    panels = []
    for optimization in VARIANTS:
        print(f"  tracing {optimization}...", file=sys.stderr, flush=True)
        case = trace_case(optimization, config=config, telemetry=telemetry)
        if telemetry:
            panels.append({
                "architecture": ARCHITECTURE,
                "size": f"{case['width']}x{case['width']}",
                "optimization": optimization,
                "nodes": case["aig"].num_ands,
                "methods": case["records"],
            })
        label = "-" if optimization == "none" else optimization
        print()
        print(render_trace_plot(
            case["traces"],
            title=f"Fig.5 ({label}): SP_i size per step "
                  f"[static={case['status']['static']}, "
                  f"dynamic={case['status']['dynamic']}]"))
        ratio = (case["peaks"]["static"] / case["peaks"]["dynamic"]
                 if case["peaks"]["dynamic"] else float("inf"))
        summary.append([label, case["peaks"]["dynamic"],
                        case["peaks"]["static"], f"{ratio:.1f}x",
                        case["status"]["dynamic"], case["status"]["static"]])
    print()
    print(render_table(
        ["Optimiz.", "Peak(dynamic)", "Peak(static)", "Ratio",
         "Dynamic", "Static"],
        summary, title="Fig. 5 peak summary"))
    payload = {"bench": "fig5", "config": config, "cases": panels}
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
