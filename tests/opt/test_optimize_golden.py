"""Golden snapshot of the optimizer's output.

The optimization scripts of :mod:`repro.opt.scripts` are deterministic:
the same generator output and script must give the same AIG, node for
node, whatever the passes do internally to get there.  This test pins,
per design, the AND count and the sha256 of the ``write_aag`` text:

* every ``OPTIMIZATIONS`` script on a few 4-8 bit architectures;
* the optimized members of the ledger's workload pools;
* ``designware_like_multiplier(4)``, which reaches
  :func:`repro.opt.decompose.synthesize_best` through
  :meth:`repro.gates.netlist.Netlist.to_aig`.

Regenerate (only after an intended behaviour change) with::

    PYTHONPATH=src:. python tests/opt/test_optimize_golden.py --update
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.aig.aiger import write_aag
from repro.genmul import generate_multiplier
from repro.industrial import designware_like_multiplier
from repro.opt.scripts import OPTIMIZATIONS, optimize

GOLDEN = Path(__file__).with_name("optimize_golden.json")

DESIGNWARE = "DesignWare-like"

# (architecture, width, script)
EVERY_SCRIPT = [(arch, width, script)
                for arch, width in (("SP-AR-RC", 4), ("BP-WT-CL", 4),
                                    ("SP-WT-CL", 6), ("SP-DT-LF", 8))
                for script in sorted(OPTIMIZATIONS)]
LEDGER_POOLS = [
    ("SP-AR-RC", 16, "map3"), ("SP-DT-LF", 8, "map3"),
    ("SP-AR-RC", 12, "dc2"), ("SP-AR-CK", 8, "map3"),
    ("BP-AR-RC", 4, "dc2"), ("SP-AR-CK", 6, "map3"),
    ("SP-DT-LF", 6, "dc2"), (DESIGNWARE, 4, "none"),
]
DESIGNS = list(dict.fromkeys(EVERY_SCRIPT + LEDGER_POOLS))


def design_key(architecture, width, script):
    return f"{architecture}/{width}/{script}"


def build(architecture, width, script):
    if architecture == DESIGNWARE:
        aig = designware_like_multiplier(width)
    else:
        aig = generate_multiplier(architecture, width)
    return optimize(aig, script)


def snapshot(design):
    aig = build(*design)
    text = write_aag(aig)
    return {"ands": aig.num_ands,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_design_list_covers_every_group():
    assert len(EVERY_SCRIPT) == 4 * len(OPTIMIZATIONS)
    assert len(DESIGNS) == len(EVERY_SCRIPT) + len(LEDGER_POOLS) - 1


@pytest.mark.parametrize("design", DESIGNS,
                         ids=[design_key(*design) for design in DESIGNS])
def test_optimize_matches_golden(golden, design):
    assert snapshot(design) == golden[design_key(*design)]


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit("usage: test_optimize_golden.py --update")
    GOLDEN.write_text(json.dumps({design_key(*design): snapshot(design)
                                  for design in DESIGNS},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
