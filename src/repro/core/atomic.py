"""Reverse engineering: atomic-block identification (Algorithm 1, line 2).

Half adders and full adders are located by cut enumeration: a pair of
nodes sharing the same 2-cut (3-cut) whose cone functions are AND and
XOR (majority and 3-input parity) — under *any* input/output polarity —
forms an HA (FA).  Polarity awareness matters: in a real netlist the
carry chain routes complemented literals, so a full-adder carry often
computes ``MAJ(!x, y, z)`` rather than ``MAJ(x, y, z)``.  The word-level
relation simply absorbs the flips:

    2*C + S = X' + Y' + Z',      X' = x or (1 - x) per input polarity.

This is the cut-matching approach of RevSCA [13]; the paper relies on it
and shows that optimization *destroys* some of these boundaries, which
is what the tests and benchmarks measure.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field

from repro.aig.cuts import cut_functions
from repro.aig.ops import cone_vars, fanout_map
from repro.aig.truth import (
    AND2,
    MAJ3,
    XNOR2,
    XNOR3,
    XOR2,
    XOR3,
    cofactor,
    tt_mask,
    var_pattern,
)

log = logging.getLogger("repro.core.atomic")


def _role_table(carry_tt, sum_tts, num_vars):
    """Map a cut function to ``(0, (input_negations, output_negated))``
    for every input/output-flip variant of the carry, or to
    ``(1, output_negated)`` for the sum and its complement."""
    table = {}
    mask = tt_mask(num_vars)
    for flips in range(1 << num_vars):
        tt = carry_tt
        for pos in range(num_vars):
            if (flips >> pos) & 1:
                c0 = cofactor(tt, pos, num_vars, 0)
                c1 = cofactor(tt, pos, num_vars, 1)
                pattern = var_pattern(pos, num_vars)
                tt = (c1 & ~pattern & mask) | (c0 & pattern)
        polarity = tuple(bool((flips >> pos) & 1) for pos in range(num_vars))
        table.setdefault(tt & mask, (0, (polarity, False)))
        table.setdefault((tt ^ mask) & mask, (0, (polarity, True)))
    for negated, tt in enumerate(sum_tts):
        table[tt] = (1, bool(negated))
    return table


# indexed by cut size; 0- and 1-leaf cuts have no role
_ROLES = [{}, {}, _role_table(AND2, (XOR2, XNOR2), 2),
          _role_table(MAJ3, (XOR3, XNOR3), 3)]


@dataclass
class AtomicBlock:
    """A detected half or full adder.

    ``carry_negated``/``sum_negated`` mean the AIG *variable* computes
    the complement of the true carry/sum.  ``input_negations`` records
    per-input polarity: the word-level relation runs over
    ``X' = (1 - x)`` for negated inputs.  ``internal`` contains all AND
    variables of the block including the two output roots.
    """

    kind: str                   # "HA" or "FA"
    inputs: tuple               # cut leaf variables
    input_negations: tuple
    carry_var: int
    carry_negated: bool
    sum_var: int
    sum_negated: bool
    internal: frozenset = field(default_factory=frozenset)

    @property
    def output_vars(self):
        return (self.carry_var, self.sum_var)

    def describe(self):
        c = ("!" if self.carry_negated else "") + f"v{self.carry_var}"
        s = ("!" if self.sum_negated else "") + f"v{self.sum_var}"
        ins = ",".join(("!" if neg else "") + f"v{v}"
                       for v, neg in zip(self.inputs, self.input_negations))
        return f"{self.kind}({ins} -> C={c}, S={s})"


def detect_atomic_blocks(aig, max_cuts=24, fanout=None):
    """Find a maximal non-overlapping set of HA/FA blocks.

    Returns the chosen blocks (full adders preferred over half adders,
    then earlier roots first).  Two blocks never share an AND node; a
    block's strictly-internal nodes must not be referenced from outside
    the block, and both outputs must be used outside it (otherwise the
    "block" is just an XOR cone with an incidental AND inside).
    ``fanout`` is ``fanout_map(aig)`` when the caller already has it.

    Each 2- or 3-leaf cut is classified by its function as cut
    enumeration keeps it (:func:`repro.aig.cuts.cut_functions`).
    """
    fanouts, po_refs = fanout if fanout is not None else fanout_map(aig)

    # Classify every (node, cut) pair by role: per cut, in order of
    # first appearance, the carry roots and the sum roots.
    by_cut = {}
    for v, cut, tt in cut_functions(aig, limit=max_cuts):
        hit = _ROLES[len(cut)].get(tt)
        if hit is not None:
            by_cut.setdefault(cut, ([], []))[hit[0]].append((v, hit[1]))

    # Candidates in selection order (FAs first, then earlier roots; the
    # sort is stable): carry fixes the input polarity; the sum output
    # polarity is the observed parity polarity corrected by the parity
    # of the input flips.
    candidates = []
    for cut, (carries, sums) in by_cut.items():
        is_ha = len(cut) == 2
        for carry_var, (polarity, carry_neg) in carries:
            flip_parity = sum(polarity) % 2 == 1
            for sum_var, tt_neg in sums:
                if carry_var != sum_var:
                    candidates.append((
                        is_ha, max(carry_var, sum_var), carry_var, sum_var,
                        cut, polarity, carry_neg, tt_neg != flip_parity))
    candidates.sort(key=lambda candidate: candidate[:4])

    # Select greedily.  A candidate's cone is computed, and the block
    # validated, only once neither of its roots is taken.  The same
    # (root, cut) cone appears in many pairings, so it is cached.
    cone_cache = {}

    def cached_cone(root, cut):
        cone = cone_cache.get((root, cut))
        if cone is None:
            cone = cone_cache[root, cut] = cone_vars(aig, root, cut)
        return cone

    chosen = []
    claimed = set()
    roots_used = set()
    for (is_ha, _top, carry_var, sum_var, cut, polarity, carry_neg,
         sum_neg) in candidates:
        if carry_var in roots_used or sum_var in roots_used:
            continue
        internal = frozenset(cached_cone(carry_var, cut)
                             | cached_cone(sum_var, cut))
        if not internal.isdisjoint(claimed):
            continue
        roots = (carry_var, sum_var)
        if not (_internals_contained(internal, roots, fanouts, po_refs)
                and _outputs_used_externally(internal, roots, fanouts,
                                             po_refs)):
            continue
        chosen.append(AtomicBlock(
            kind="HA" if is_ha else "FA", inputs=cut,
            input_negations=polarity,
            carry_var=carry_var, carry_negated=carry_neg,
            sum_var=sum_var, sum_negated=sum_neg, internal=internal))
        claimed |= internal
        roots_used.update(roots)
    log.debug("atomic blocks: %d candidates, chose %d FA + %d HA "
              "covering %d/%d AND nodes",
              len(candidates),
              sum(1 for blk in chosen if blk.kind == "FA"),
              sum(1 for blk in chosen if blk.kind == "HA"),
              len(claimed), aig.num_ands)
    return chosen


def _internals_contained(internal, roots, fanouts, po_refs):
    """Strictly-internal nodes must only be referenced inside the block."""
    for v in internal.difference(roots):
        if po_refs.get(v, 0):
            return False
        for consumer in fanouts[v]:
            if consumer not in internal:
                return False
    return True


def _outputs_used_externally(internal, roots, fanouts, po_refs):
    """Both roots must be referenced outside the block.

    Rejects *phantom* blocks: e.g. in the AOI-style XOR structure
    ``NOR(NOR(a,b), AND(a,b))`` the inner ``AND(a,b)`` matches the carry
    function, but when nothing outside the cone consumes it, the pair is
    just an XOR — claiming it as a half adder would register an output
    variable that never occurs in ``SP_i`` and spoil the compact
    word-level substitution.
    """
    for root in roots:
        if po_refs.get(root, 0):
            continue
        if any(consumer not in internal for consumer in fanouts[root]):
            continue
        return False
    return True


def ha_pairs(blocks):
    """(carry_var, carry_neg, sum_var, sum_neg) for every HA — the raw
    material of the vanishing-monomial rules."""
    return [(blk.carry_var, blk.carry_negated, blk.sum_var, blk.sum_negated)
            for blk in blocks if blk.kind == "HA"]


def block_coverage(aig, blocks):
    """Atomic-block coverage statistics, validating disjointness.

    Returns ``{"blocks", "covered", "ands", "fraction"}``.  Two blocks
    claiming the same AND node would make the downstream component
    partition ambiguous, so an overlap raises
    :class:`repro.errors.PipelineInvariantError` (RP001) — the
    ``--check-invariants`` guard over ``detect_atomic_blocks``'s
    non-overlap contract.
    """
    from repro.errors import PipelineInvariantError

    claimed = {}
    for index, blk in enumerate(blocks):
        for var in blk.internal:
            if var in claimed:
                raise PipelineInvariantError(
                    f"AND node v{var} claimed by two atomic blocks "
                    f"({blocks[claimed[var]].describe()} and "
                    f"{blk.describe()})",
                    code="RP001", context={"node": var})
            claimed[var] = index
    total = aig.num_ands
    return {"blocks": len(blocks), "covered": len(claimed), "ands": total,
            "fraction": round(len(claimed) / total, 4) if total else 0.0}
