"""Table II — verification of industrial multipliers.

Regenerates the paper's Table II: DesignWare-like technology-mapped
Booth-Wallace multipliers across sizes, plus one EPFL-like heavily
optimized instance; columns are AIG nodes and per-method run times.

Run with ``python -m repro.bench.table2``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.harness import (
    bench_config,
    cached_aig,
    run_method,
    runtime_cell,
)
from repro.bench.render import render_table
from repro.bench.table1 import BASELINE_COLUMNS
from repro.core.result import result_record
from repro.errors import ConfigError
from repro.obs.recorder import Recorder
from repro.industrial import designware_like_multiplier, epfl_like_multiplier


def table2_cases(config=None):
    config = config or bench_config()
    cases = [("DesignWare-like", width) for width in config["industrial_sizes"]]
    cases.append(("EPFL-like", config["epfl_size"]))
    return cases


def industrial_aig(source, width):
    if source == "DesignWare-like":
        return cached_aig(f"designware_{width}x{width}",
                          lambda: designware_like_multiplier(width))
    if source == "EPFL-like":
        return cached_aig(f"epfl_{width}x{width}",
                          lambda: epfl_like_multiplier(width))
    raise ConfigError(f"unknown industrial source {source!r}",
                      source=source)


def run_case(source, width, config=None, methods=None, telemetry=False):
    config = config or bench_config()
    aig = industrial_aig(source, width)
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


def _case_row(source, width, config, telemetry):
    """One Table II cell: its printable row and, with ``telemetry``, its
    JSON record (else None)."""
    case = run_case(source, width, config, telemetry=telemetry)
    record = None
    if telemetry:
        record = {
            "source": source,
            "size": f"{width}x{width}",
            "nodes": case["aig"].num_ands,
            "methods": case["records"],
        }
    ours = case["results"]["dyposub"]
    row = [source, f"{width}x{width}", case["aig"].num_ands,
           runtime_cell(ours), "n/a"]
    for method, _tag in BASELINE_COLUMNS:
        row.append(runtime_cell(case["results"][method]))
    return row, record


def build_rows(config=None, progress=None, records=None):
    config = config or bench_config()
    rows = []
    for source, width in table2_cases(config):
        if progress is not None:
            progress(f"{source} {width}x{width}")
        row, record = _case_row(source, width, config, records is not None)
        rows.append(row)
        if record is not None:
            records.append(record)
    return rows


HEADERS = ["Source", "Size", "Nodes", "Ours(s)", "Com.",
           "[13](s)", "[10](s)", "[5]/[11](s)", "[8]/[16](s)"]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.bench.table2")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write per-case results with per-phase "
                             "timings as JSON (e.g. BENCH_TABLE2.json)")
    parser.add_argument("--db", default=os.environ.get("REPRO_OBS_DB"),
                        metavar="PATH",
                        help="also ingest the per-case records into this "
                             "run-history database (default: $REPRO_OBS_DB "
                             "when set)")
    args = parser.parse_args(argv)
    config = bench_config()
    print(f"# Table II reproduction (scale={config['scale']}, "
          f"budget={config['budget']} monomials, "
          f"time={config['time']:.0f}s per case)", flush=True)
    records = [] if (args.json or args.db) else None
    rows = build_rows(config, records=records,
                      progress=lambda s: print(f"  running {s}...",
                                               file=sys.stderr,
                                               flush=True))
    print(render_table(HEADERS, rows, title="Table II: industrial multipliers"))
    payload = {"bench": "table2", "config": config, "cases": records}
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
