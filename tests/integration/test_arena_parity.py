"""End-to-end arena vs dict parity: a golden snapshot of a 19-design sweep.

The rewriting engine once had two interchangeable kernels, the arena
(sorted columns) and the dict path.  Verdicts, remainder polynomials,
counterexamples and the per-step ``SP_i``-size trace (the Fig. 5 curve)
of both were recorded into ``arena_parity_golden.json`` while they
coexisted — the two recordings were byte-identical — and the dict path
was then deleted.  The arena engine is now checked against that
recording.  The dynamic engine's accept/reject decisions feed off exact
polynomial sizes, so any change to the rewrite kernels that moves a
single intermediate size shows up here; the full ``sizes()`` list is
stored as a sha256 next to its length and maximum.

The sweep covers all eight Table I architectures, the optimization
scripts that destroy atomic-block boundaries, both rewriting methods
and injected faults (exercising the counterexample extractor), in the
exact and modular coefficient rings — 19 designs in total.

Regenerate (only after an intended behaviour change) with::

    PYTHONPATH=src python tests/integration/test_arena_parity.py --update
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.verifier import verify_multiplier
from repro.genmul import generate_multiplier
from repro.genmul.faults import inject_visible_fault
from repro.opt.scripts import optimize

GOLDEN = Path(__file__).with_name("arena_parity_golden.json")
RINGS = ("exact", "modular")

# (architecture, width, optimization, method, fault-kind or None)
DESIGNS = [
    ("SP-DT-LF", 4, "none", "dyposub", None),
    ("SP-AR-CK", 4, "none", "dyposub", None),
    ("SP-BD-KS", 4, "none", "dyposub", None),
    ("SP-WT-CL", 4, "none", "dyposub", None),
    ("BP-AR-RC", 4, "none", "dyposub", None),
    ("BP-OS-CU", 4, "none", "dyposub", None),
    ("SP-AR-RC", 4, "none", "dyposub", None),
    ("SP-WT-BK", 4, "none", "dyposub", None),
    ("SP-DT-LF", 4, "dc2", "dyposub", None),
    ("SP-WT-CL", 4, "resyn3", "dyposub", None),
    ("SP-AR-RC", 4, "map3", "dyposub", None),
    ("BP-AR-RC", 4, "dc2", "dyposub", None),
    ("SP-AR-RC", 4, "none", "static", None),
    ("SP-DT-LF", 4, "dc2", "static", None),
    ("SP-WT-CL", 4, "none", "static", None),
    ("SP-WT-CL", 8, "none", "dyposub", None),
    ("SP-DT-LF", 8, "none", "static", None),
    ("SP-AR-RC", 4, "none", "dyposub", "gate-type"),
    ("SP-DT-LF", 4, "none", "dyposub", "wrong-wire"),
]

assert len(DESIGNS) == 19


def case_key(architecture, width, optimization, method, fault, ring):
    return (f"{architecture}/{width}/{optimization}/{method}/"
            f"{fault or 'clean'}/{ring}")


def snapshot(architecture, width, optimization, method, fault, ring):
    aig = optimize(generate_multiplier(architecture, width), optimization)
    if fault is not None:
        aig = inject_visible_fault(aig, kind=fault, seed=0)
    result = verify_multiplier(aig, method=method, ring=ring,
                               record_trace=True, monomial_budget=200_000)
    sizes = result.sizes()
    counterexample = result.counterexample
    return {
        "status": result.status,
        "counterexample": ([[var, value] for var, value
                            in sorted(counterexample.items())]
                           if counterexample is not None else None),
        "remainder": (result.remainder.to_string()
                      if result.remainder is not None else None),
        "steps": len(sizes),
        "max_size": max(sizes),
        "sizes_sha256": hashlib.sha256(
            json.dumps(sizes).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("architecture,width,optimization,method,fault",
                         DESIGNS)
@pytest.mark.parametrize("ring", RINGS)
def test_arena_matches_dict_end_to_end(golden, architecture, width,
                                       optimization, method, fault, ring):
    got = snapshot(architecture, width, optimization, method, fault, ring)
    assert got == golden[case_key(architecture, width, optimization,
                                  method, fault, ring)]
    expected = "buggy" if fault else "correct"
    assert got["status"] == expected
    if fault:
        assert got["counterexample"] is not None


def test_golden_covers_sweep(golden):
    assert set(golden) == {case_key(*design, ring)
                           for design in DESIGNS for ring in RINGS}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    cases = {case_key(*design, ring): snapshot(*design, ring)
             for design in DESIGNS for ring in RINGS}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
