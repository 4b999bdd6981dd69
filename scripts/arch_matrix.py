#!/usr/bin/env python
"""CI gate: `repro analyze` labels over a matrix of generated designs.

Generates a 19-design architecture zoo spanning every stage family the
recognizer claims to know — simple and Booth partial-product
generators, array and tree (Wallace / Dadda / balanced-delay)
accumulators, ripple and parallel (CLA / Kogge-Stone / Brent-Kung /
Ladner-Fischer / Sklansky / conditional-sum) final-stage adders — then
runs the actual CLI (``repro analyze --json``) and diffs every stage
label against the generator's ground truth.  The generator *names* are
the ground truth: ``SP-DT-LF`` must come back
``simple``/``tree``/``lookahead``.

Clean simple-PPG designs must also carry no RS01x structural-hazard
warnings (the thresholds are calibrated so fresh generator output is
quiet).

Exit code 0 when the whole matrix matches, 1 otherwise.

Run locally with::

    PYTHONPATH=src python scripts/arch_matrix.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.aig.aiger import write_aag                     # noqa: E402
from repro.genmul.multiplier import generate_multiplier   # noqa: E402

#: (architecture, width) -> expected (ppg, ppa, fsa) labels.  The
#: expectation derives mechanically from the generator name: SP/BP pick
#: the PPG family, AR vs the tree accumulators the PPA family, RC vs
#: every parallel adder the FSA family.  Widths are chosen so each
#: family is exercised at more than one size; BP is only paired with
#: tree accumulators because BP-AR and BP-BD are structurally identical
#: at these widths (one carry-save row — no array/tree distinction
#: exists to recover).
ZOO = [
    ("SP-AR-RC", 6), ("SP-AR-RC", 8),
    ("SP-AR-KS", 6), ("SP-AR-CL", 8),
    ("SP-WT-RC", 6), ("SP-WT-KS", 8), ("SP-WT-CL", 6), ("SP-WT-BK", 8),
    ("SP-DT-RC", 6), ("SP-DT-KS", 8), ("SP-DT-LF", 6),
    ("SP-BD-RC", 8), ("SP-BD-BK", 6), ("SP-BD-SK", 6),
    ("BP-WT-RC", 6), ("BP-WT-KS", 8),
    ("BP-DT-RC", 8), ("BP-DT-CL", 6), ("BP-WT-CU", 6),
]


def expected_labels(architecture):
    ppg_code, ppa_code, fsa_code = architecture.split("-")
    ppg = "booth" if ppg_code == "BP" else "simple"
    ppa = "array" if ppa_code == "AR" else "tree"
    fsa = "ripple" if fsa_code == "RC" else "lookahead"
    return ppg, ppa, fsa


def run_analyze(paths, json_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *map(str, paths),
         "--json", str(json_path)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, cwd=str(ROOT))
    return proc.returncode, json.loads(json_path.read_text())


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        paths = []
        cases = []
        for architecture, width in ZOO:
            aig = generate_multiplier(architecture, width)
            path = tmp / f"{architecture}_{width}.aag"
            write_aag(aig, str(path))
            paths.append(path)
            cases.append((architecture, width, expected_labels(architecture)))
        code, payload = run_analyze(paths, tmp / "arch.json")
        if code not in (0, 1):
            failures.append(f"analyze exited {code}, expected 0 or 1")

        for (architecture, width, expected), record in zip(
                cases, payload["reports"]):
            got = tuple(record["stages"][stage]["label"]
                        for stage in ("ppg", "ppa", "fsa"))
            if got != expected:
                failures.append(
                    f"{architecture} w{width}: labelled {'-'.join(got)}, "
                    f"ground truth {'-'.join(expected)}")
            warnings = [d["code"]
                        for d in record["diagnostics"]["diagnostics"]
                        if d["severity"] == "warning"]
            structural = [c for c in warnings if c.startswith("RS01")]
            if expected[0] == "simple" and structural:
                failures.append(
                    f"{architecture} w{width}: clean design flagged "
                    f"{structural}")

    if failures:
        print(f"arch matrix: {len(failures)} FAILURE(S) over "
              f"{len(ZOO)} designs")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"arch matrix: all {len(ZOO)} designs classified to generator "
          f"ground truth")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
