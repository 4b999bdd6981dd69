"""Golden snapshot of the pipeline's front end.

``Pipeline.stage_prepare`` turns a cleaned AIG into the atomic blocks,
the component partition and the vanishing-rule table that every rewrite
run consumes.  This test pins, per design:

* the atomic blocks in order (kind, inputs, input polarities, carry and
  sum variables and their negations);
* the components in order (kind, outputs, inputs);
* every vanishing rule in registration order (trigger pair and terms),
  the implication-derived ones included;
* the number of implication rules.

Each list is stored as its length and the sha256 of its canonical JSON.
The designs are the ledger's 11 ``wide-clean`` designs, the distinct
AIGs of the arena-parity sweep, and three designs on which the 128-entry
conflict-set cap of :func:`repro.core.implications.derive_zero_pairs`
binds.

Regenerate (only after an intended behaviour change) with::

    PYTHONPATH=src:. python tests/integration/test_front_end_golden.py --update
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import Pipeline, VerifyConfig
from repro.core.vanishing import VanishingRuleSet
from repro.genmul import generate_multiplier
from repro.genmul.faults import inject_visible_fault
from repro.obs.recorder import NULL
from repro.opt.scripts import optimize
from tests.integration.test_arena_parity import DESIGNS as ARENA_SWEEP

GOLDEN = Path(__file__).with_name("front_end_golden.json")

# (architecture, width, optimization, fault-kind or None)
WIDE_CLEAN = [
    ("SP-AR-RC", 12, "none", None), ("SP-AR-RC", 16, "none", None),
    ("SP-AR-RC", 24, "none", None), ("SP-DT-LF", 12, "none", None),
    ("SP-DT-LF", 16, "none", None), ("SP-DT-LF", 24, "none", None),
    ("SP-DT-RC", 16, "none", None), ("SP-AR-CL", 16, "none", None),
    ("SP-AR-RC", 16, "map3", None), ("SP-DT-LF", 8, "map3", None),
    ("SP-AR-RC", 12, "dc2", None),
]
CAP_BINDING = [
    ("SP-BD-KS", 8, "none", None), ("BP-WT-KS", 8, "none", None),
    ("BP-OS-CU", 4, "none", None),
]
# method and ring do not reach the front end: one entry per AIG
ARENA = list(dict.fromkeys((arch, width, opt, fault)
                           for arch, width, opt, _method, fault
                           in ARENA_SWEEP))
DESIGNS = list(dict.fromkeys(WIDE_CLEAN + ARENA + CAP_BINDING))


def design_key(architecture, width, optimization, fault):
    return f"{architecture}/{width}/{optimization}/{fault or 'clean'}"


def _mask_vars(mask):
    return [bit for bit in range(mask.bit_length()) if mask >> bit & 1]


def front_end(architecture, width, optimization, fault):
    """The stage_prepare outputs of one design as plain lists."""
    aig = optimize(generate_multiplier(architecture, width), optimization)
    if fault is not None:
        aig = inject_visible_fault(aig, kind=fault, seed=0)
    registered = []
    add_rule = VanishingRuleSet.add_rule

    def recording_add_rule(rules, var_a, var_b, terms):
        add_rule(rules, var_a, var_b, terms)
        _partner, _pair, compiled = rules._by_var[var_a][-1]
        registered.append((rules, var_a, var_b, compiled))

    VanishingRuleSet.add_rule = recording_add_rule
    try:
        art = Pipeline(VerifyConfig()).stage_prepare(
            aig, width, width, NULL)
    finally:
        VanishingRuleSet.add_rule = add_rule
    return {
        "blocks": [[blk.kind, list(blk.inputs), list(blk.input_negations),
                    blk.carry_var, blk.carry_negated,
                    blk.sum_var, blk.sum_negated] for blk in art.blocks],
        "components": [[comp.kind, list(comp.output_vars),
                        list(comp.input_vars)]
                       for comp in art.components],
        "vanishing": [[var_a, var_b,
                       [[coeff, _mask_vars(extra)] for coeff, extra in terms]]
                      for rules, var_a, var_b, terms in registered
                      if rules is art.vanishing],
        "implication_rules": art.implication_rules,
    }


def digest(items):
    blob = json.dumps(items, separators=(",", ":")).encode()
    return {"count": len(items), "sha256": hashlib.sha256(blob).hexdigest()}


def snapshot(design):
    outputs = front_end(*design)
    return {"blocks": digest(outputs["blocks"]),
            "components": digest(outputs["components"]),
            "vanishing": digest(outputs["vanishing"]),
            "implication_rules": outputs["implication_rules"]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_design_list_covers_every_group():
    assert len(WIDE_CLEAN) == 11
    assert len(ARENA) == 16
    assert len(DESIGNS) == 29


@pytest.mark.parametrize("design", DESIGNS,
                         ids=[design_key(*design) for design in DESIGNS])
def test_front_end_matches_golden(golden, design):
    assert snapshot(design) == golden[design_key(*design)]


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit("usage: test_front_end_golden.py --update")
    GOLDEN.write_text(json.dumps({design_key(*design): snapshot(design)
                                  for design in DESIGNS},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
