"""Workload pools and seeded request draws of the verification ledger.

Every pool is a fixed list of designs.  A run visits the whole pool once
per round; the seed decides the order of each round and, on the service,
which earlier design every cache-hit request resubmits and the variable
numbering of the resubmitted copies.  Subset draws were tried and
rejected: pool members differ in cost by up to 100x, so a seeded subset
moves a workload's median by more than the regression bound from one
seed to the next, and the benchmark could no longer tell a slower
program from an unlucky draw.

Nothing here imports the program; building designs from these
descriptions is ``designs.py``'s job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAULT_KINDS = ("gate-type", "input-negation", "output-negation",
               "wrong-wire")


@dataclass(frozen=True)
class Design:
    """One pool member: generator architecture, width, optimization
    script and, for a buggy variant, the injected fault."""

    arch: str
    width: int
    opt: str = "none"
    fault: str | None = None
    fault_seed: int = 0

    @property
    def label(self):
        text = f"{self.arch} {self.width} {self.opt}"
        if self.fault:
            text += f" {self.fault}/{self.fault_seed}"
        return text

    @property
    def base(self):
        """The clean design a fault is injected into."""
        return Design(self.arch, self.width, self.opt)

    @property
    def expected(self):
        """Ground truth: generator output is correct, a visible injected
        fault is buggy."""
        return "buggy" if self.fault else "correct"


@dataclass(frozen=True)
class Request:
    """One timed request: a cold verification of ``design`` in ``ring``,
    or (``hit``) a resubmitted renumbered copy the cache must answer."""

    design: Design
    ring: str = "exact"
    hit: bool = False

    @property
    def label(self):
        if self.hit:
            return f"hit {self.design.label}"
        return f"{self.design.label} @{self.ring}"


def _d(spec, opt="none"):
    arch, width = spec.rsplit(" ", 1)
    return Design(arch, int(width), opt)


# Rewrite is at most 30% of pipeline time on these designs: interpreter
# start, parse, preflight and the front-end stages take the rest.
WIDE_CLEAN = (
    _d("SP-AR-RC 12"), _d("SP-AR-RC 16"), _d("SP-AR-RC 24"),
    _d("SP-DT-LF 12"), _d("SP-DT-LF 16"), _d("SP-DT-LF 24"),
    _d("SP-DT-RC 16"), _d("SP-AR-CL 16"),
    _d("SP-AR-RC 16", "map3"), _d("SP-DT-LF 8", "map3"),
    _d("SP-AR-RC 12", "dc2"),
)

# core.rewrite is at least 90% of the time: the Table I blow-up regime.
# Sized so one round fits a run: the 8-bit dc2 variants would add 8 s of
# set-up each, and SP-BD-KS 8 map3 takes close to the 6 s vetting cap.
BLOWUP = (
    _d("SP-WT-CL 8"), _d("SP-AR-CK 8"), _d("SP-AR-CK 8", "map3"),
    _d("BP-AR-RC 4"), _d("BP-AR-RC 4", "dc2"), _d("BP-OS-CU 4"),
    _d("BP-WT-RC 4"), _d("BP-WT-KS 4"),
    _d("DesignWare-like 4"),
)

# Fault seed 0 only: a fault's cost depends on where it lands, and a
# seeded choice between two fault seeds moves a round's total by ~8%.
# 8-bit faults are left out: most take over 10 s where the clean design
# takes 0.1 s.
FAULT_BASES = (
    _d("BP-AR-RC 4"), _d("SP-AR-CK 6", "map3"), _d("SP-DT-LF 6", "dc2"),
    _d("SP-WT-BK 6"),
)
FAULT_SWEEP = tuple(Design(b.arch, b.width, b.opt, kind, 0)
                    for b in FAULT_BASES for kind in FAULT_KINDS)

# Cold service jobs: the wide-clean designs of at most 16 bits plus the
# fault sweep (exact ring).  Every one is structurally distinct, so each
# misses the cache of a fresh store.
SERVICE_MIX = tuple(d for d in WIDE_CLEAN if d.width <= 16) + FAULT_SWEEP


@dataclass(frozen=True)
class Workload:
    name: str
    front_end: str             # "cli" or "service"
    pool: tuple
    forced: tuple              # members every draw must contain
    warmup: Design             # untimed first request of a run
    rings: tuple = ("exact",)  # each cold design runs once per ring
    traced: int = 0            # designs the traced run covers
    certificates: bool = False  # traced run also checks certificates


WORKLOADS = {
    "wide-clean": Workload(
        "wide-clean", "cli", WIDE_CLEAN, forced=(_d("SP-DT-LF 16"),),
        warmup=_d("SP-AR-RC 12"), traced=len(WIDE_CLEAN),
        certificates=True),
    "blowup": Workload(
        "blowup", "cli", BLOWUP, forced=(_d("SP-WT-CL 8"),),
        warmup=_d("DesignWare-like 4"), traced=3, certificates=True),
    "fault-sweep": Workload(
        "fault-sweep", "cli", FAULT_SWEEP, forced=FAULT_SWEEP[:1],
        warmup=FAULT_SWEEP[-1], rings=("exact", "modular"), traced=6),
    # The warm-up design is in no pool, so no cold job hits its
    # certificate.
    "service-mix": Workload(
        "service-mix", "service", SERVICE_MIX, forced=(),
        warmup=_d("SP-AR-RC 4"), traced=12),
}


def draw_round(workload, seed, round_index):
    """The requests of one round, in the order they are sent.

    CLI workloads: every pool member once per ring, a design's ring
    requests back to back in a seeded order.  Service: every pool member
    once, each cold job followed by a hit that resubmits a renumbered
    copy of a design already verified in this round.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    designs = list(spec.pool)
    rng.shuffle(designs)
    requests = []
    for index, design in enumerate(designs):
        if spec.front_end == "service":
            requests.append(Request(design))
            requests.append(Request(designs[rng.randrange(index + 1)],
                                    hit=True))
            continue
        rings = list(spec.rings)
        rng.shuffle(rings)
        requests.extend(Request(design, ring) for ring in rings)
    return requests


def traced_designs(workload, seed):
    """The fixed-size design set the traced run covers: forced members
    first, then the seeded order of the first round."""
    spec = WORKLOADS[workload]
    order = list(spec.forced)
    for request in draw_round(workload, seed, 0):
        if not request.hit and request.design not in order:
            order.append(request.design)
    return order[:spec.traced]


def renumber_seed(seed, design, copy):
    """Seed of the variable numbering of one renumbered copy."""
    return f"{seed}/{design.label}/{copy}"
