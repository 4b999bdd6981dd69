"""Golden snapshot of the pipeline's architecture outputs.

A traced run emits one ``stage_map`` event (architecture label,
stage-region sizes and every component's region), rendered
from :func:`repro.analysis.structure.analyze_aig`.  This test pins it
for the 19-design ``scripts/arch_matrix.py`` zoo plus three wide
designs, and pins the ``stage_map`` of a run that disables both atomic
blocks and vanishing rules (its components are gate-level cones).

The ``stage_map`` event is emitted before rewriting starts, so every
run uses a tiny monomial budget and ends in a timeout right after it.

Regenerate (only after an intended behaviour change) with::

    PYTHONPATH=src python tests/integration/test_stage_map_golden.py --update
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import Pipeline, VerifyConfig
from repro.genmul import generate_multiplier
from repro.obs.recorder import Recorder

GOLDEN = Path(__file__).with_name("stage_map_golden.json")
BUDGET = 64

#: The ``scripts/arch_matrix.py`` zoo.
ZOO = [
    ("SP-AR-RC", 6), ("SP-AR-RC", 8),
    ("SP-AR-KS", 6), ("SP-AR-CL", 8),
    ("SP-WT-RC", 6), ("SP-WT-KS", 8), ("SP-WT-CL", 6), ("SP-WT-BK", 8),
    ("SP-DT-RC", 6), ("SP-DT-KS", 8), ("SP-DT-LF", 6),
    ("SP-BD-RC", 8), ("SP-BD-BK", 6), ("SP-BD-SK", 6),
    ("BP-WT-RC", 6), ("BP-WT-KS", 8),
    ("BP-DT-RC", 8), ("BP-DT-CL", 6), ("BP-WT-CU", 6),
]
WIDE = [("SP-DT-LF", 16), ("SP-AR-RC", 16), ("SP-AR-RC", 24)]
ABLATED = [("SP-AR-RC", 6), ("SP-DT-LF", 6), ("BP-WT-CU", 6)]
NO_BLOCKS = {"use_atomic_blocks": False, "use_vanishing": False}


def key(architecture, width):
    return f"{architecture}/{width}"


def traced_run(architecture, width, **config):
    """``(result, events)`` of one budget-capped traced run."""
    recorder = Recorder()
    result = Pipeline(VerifyConfig(monomial_budget=BUDGET, **config)).run(
        generate_multiplier(architecture, width), recorder=recorder)
    return result, recorder.events


def stage_map_body(events):
    """The one ``stage_map`` event of a run, without its timestamp."""
    (event,) = [e for e in events if e["ev"] == "stage_map"]
    return {name: value for name, value in event.items()
            if name not in ("ev", "t")}


def stage_map_of(architecture, width, **config):
    return stage_map_body(traced_run(architecture, width, **config)[1])


def snapshot():
    return {
        "stage_map": {key(*design): stage_map_of(*design)
                      for design in ZOO + WIDE},
        "stage_map_no_blocks": {key(*design): stage_map_of(*design,
                                                           **NO_BLOCKS)
                                for design in ABLATED},
    }


def canonical(value):
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("architecture,width", ZOO + WIDE,
                         ids=[key(*design) for design in ZOO + WIDE])
def test_stage_map_matches_golden(golden, architecture, width):
    assert canonical(stage_map_of(architecture, width)) == canonical(
        golden["stage_map"][key(architecture, width)])


@pytest.mark.parametrize("architecture,width", ABLATED,
                         ids=[key(*design) for design in ABLATED])
def test_stage_map_without_blocks_matches_golden(golden, architecture,
                                                 width):
    assert canonical(stage_map_of(architecture, width,
                                  **NO_BLOCKS)) == canonical(
        golden["stage_map_no_blocks"][key(architecture, width)])


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit("usage: test_stage_map_golden.py --update")
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
