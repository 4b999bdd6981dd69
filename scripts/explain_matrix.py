#!/usr/bin/env python
"""CI gate: `repro explain` cost attribution over the architecture zoo.

Runs a traced verification of the same 19 generator architectures the
``arch_matrix`` recognizer gate uses (widths trimmed to keep every
verification in CI budget — parallel-prefix and Booth designs grow
steeply, which is the point of the paper), then pushes each trace
through the actual CLI (``repro explain --json``) and asserts the facts
the attribution layer exists to report:

* **coverage** — every design attributes >= 95% of measured rewrite
  wall-time *and* SP_i growth to commit+rule+stage (``repro explain``
  itself exits 1 below the bar, so the CLI exit code is asserted too);
* **Booth forensics** — every Booth design attributes the majority of
  its rewrite wall-time to the PPG/FSA regions (the Booth-encoded
  partial products are where substitution cancellation struggles) and
  a material share (>= 10%) of its SP_i growth to the PPG region,
  while clean simple-PPG designs attribute *zero* growth to PPG;
* **quiet baselines** — clean array designs (SP-AR-*) fire no
  commit-level anomalies under the default detector.

Exit code 0 when every gate holds, 1 otherwise.

Run locally with::

    PYTHONPATH=src python scripts/explain_matrix.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.aig.aiger import write_aag                     # noqa: E402
from repro.genmul.multiplier import generate_multiplier   # noqa: E402

#: The arch_matrix zoo's 19 architectures at verification-feasible
#: widths: simple designs at 6-8 bits, Booth designs at 4 (BP-WT-RC
#: already takes >2 minutes at 6 bits — the blow-up the attribution
#: layer measures).  The architecture spread (PPG x PPA x FSA family
#: coverage) is identical to scripts/arch_matrix.py.
EXPLAIN_ZOO = [
    ("SP-AR-RC", 6), ("SP-AR-RC", 8),
    ("SP-AR-KS", 6), ("SP-AR-CL", 8),
    ("SP-WT-RC", 6), ("SP-WT-KS", 6), ("SP-WT-CL", 6), ("SP-WT-BK", 6),
    ("SP-DT-RC", 6), ("SP-DT-KS", 6), ("SP-DT-LF", 6),
    ("SP-BD-RC", 8), ("SP-BD-BK", 6), ("SP-BD-SK", 6),
    ("BP-WT-RC", 4), ("BP-WT-KS", 4),
    ("BP-DT-RC", 4), ("BP-DT-CL", 4), ("BP-WT-CU", 4),
]

COVERAGE = 0.95
BOOTH_WALL_MAJORITY = 0.50   # ppg+fsa wall share (measured: >= 0.64)
BOOTH_PPG_GROWTH = 0.10      # ppg growth share (measured: >= 0.16)


def run_design(cli, tmp, architecture, width):
    """Traced verify + ``repro explain --json`` for one design; returns
    (explain exit code, attribution report dict)."""
    aig = generate_multiplier(architecture, width)
    path = tmp / f"{architecture}_{width}.aag"
    write_aag(aig, str(path))
    trace = tmp / f"{architecture}_{width}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        verify_code = cli.main(["verify", str(path),
                                "--trace-out", str(trace)])
    if verify_code != 0:
        raise RuntimeError(f"{architecture} w{width}: verify exited "
                           f"{verify_code}")
    out = tmp / f"{architecture}_{width}.explain.json"
    with contextlib.redirect_stdout(io.StringIO()):
        explain_code = cli.main(["explain", str(trace),
                                 "--json", str(out)])
    payload = json.loads(out.read_text())
    return explain_code, payload["attribution"]


def check_design(architecture, width, explain_code, report):
    """The per-design coverage, Booth-forensics and anomaly gates."""
    label = f"{architecture} w{width}"
    failures = []
    if explain_code != 0:
        failures.append(f"{label}: repro explain exited {explain_code}")
    wall = report["wall"]["attributed_fraction"]
    growth = report["growth"]["attributed_fraction"]
    if wall < COVERAGE:
        failures.append(f"{label}: wall attribution {wall:.3f} < "
                        f"{COVERAGE}")
    if growth < COVERAGE:
        failures.append(f"{label}: growth attribution {growth:.3f} < "
                        f"{COVERAGE}")

    by_stage = report["by_stage"]
    ppg_growth = by_stage.get("ppg", {}).get("share_growth", 0.0)
    if architecture.startswith("BP"):
        hot_wall = sum(by_stage.get(stage, {}).get("share_seconds", 0.0)
                       for stage in ("ppg", "fsa"))
        if hot_wall <= BOOTH_WALL_MAJORITY:
            failures.append(
                f"{label}: Booth ppg+fsa wall share {hot_wall:.3f} is "
                f"not a majority (> {BOOTH_WALL_MAJORITY})")
        if ppg_growth < BOOTH_PPG_GROWTH:
            failures.append(
                f"{label}: Booth ppg growth share {ppg_growth:.3f} < "
                f"{BOOTH_PPG_GROWTH}")
    else:
        if ppg_growth > 0.0:
            failures.append(
                f"{label}: simple design attributed {ppg_growth:.3f} "
                f"growth share to ppg (expected none)")

    anomalies = len(report.get("anomalies") or ())
    if architecture.startswith("SP-AR") and anomalies:
        failures.append(f"{label}: clean array design fired "
                        f"{anomalies} anomaly(ies)")
    return failures


def main():
    from repro import cli

    failures = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = pathlib.Path(tmpdir)
        for architecture, width in EXPLAIN_ZOO:
            code, report = run_design(cli, tmp, architecture, width)
            failures += check_design(architecture, width, code, report)
            print(f"{architecture} w{width}: wall "
                  f"{report['wall']['attributed_fraction']:.1%}, "
                  f"growth "
                  f"{report['growth']['attributed_fraction']:.1%}, "
                  f"{len(report.get('anomalies') or ())} anomaly(ies)")

    if failures:
        print(f"explain matrix: {len(failures)} FAILURE(S) over "
              f"{len(EXPLAIN_ZOO)} designs")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"explain matrix: all {len(EXPLAIN_ZOO)} designs >= "
          f"{COVERAGE:.0%} attributed, Booth forensics and quiet "
          f"baselines hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
