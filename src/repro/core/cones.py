"""Cone partitioning (Algorithm 1, lines 3-4).

AND nodes that survive reverse engineering (i.e. are not inside an
atomic block) are grouped into single-output cones:

* a *fanout-free cone* (FFC) hangs off a root — a node referenced more
  than once, by a primary output, or by an atomic block — and absorbs
  the chain of single-reference nodes feeding it;
* a cone whose inputs include **both** outputs of some half adder is a
  *converging gate cone* (CGC): substituting its polynomial is where
  vanishing monomials would be born, so its polynomial is normalized
  against the vanishing rules at extraction time (the "local backward
  rewriting" of [10]).

The partition covers every remaining AND node exactly once.
"""

from __future__ import annotations

import logging

from repro.aig.ops import fanout_map
from repro.core.components import atomic_block_component, cone_component
from repro.core.gatepoly import cone_polynomial
from repro.core.vanishing import rules_from_blocks

log = logging.getLogger("repro.core.cones")


def build_components(aig, blocks, vanishing=None, fanout=None):
    """Partition the AIG into components (Definition 1).

    Returns ``(components, vanishing_rules)``.  ``blocks`` comes from
    :func:`repro.core.atomic.detect_atomic_blocks`; pass an empty list to
    model verifiers without reverse engineering.  ``fanout`` is
    ``fanout_map(aig)`` when the caller already has it.
    """
    if vanishing is None:
        vanishing = rules_from_blocks(blocks)
    fanouts, po_refs = fanout if fanout is not None else fanout_map(aig)

    block_internal = set()
    for blk in blocks:
        block_internal |= blk.internal

    remaining = [v for v in aig.and_vars() if v not in block_internal]
    remaining_set = set(remaining)

    # Reference counts seen by the cone partition: consumers among the
    # remaining nodes, atomic-block cut inputs, and primary outputs.
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    refs = dict.fromkeys(remaining, 0)
    for v in remaining:
        for w in (fanin0[v] >> 1, fanin1[v] >> 1):
            if w in refs:
                refs[w] += 1
    for blk in blocks:
        for leaf in blk.inputs:
            if leaf in refs:
                refs[leaf] += 1
    for v in remaining:
        if po_refs.get(v, 0):
            refs[v] += po_refs[v]

    # Roots: referenced != exactly-once-by-a-remaining-AND.  A node with
    # refs == 0 is dead; skip it (cleanup would remove it).
    components = []
    index = 0
    for blk in blocks:
        components.append(atomic_block_component(index, blk))
        index += 1

    roots = []
    for v in remaining:
        if refs[v] == 0:
            continue
        if refs[v] >= 2 or po_refs.get(v, 0):
            roots.append(v)
            continue
        # exactly one reference: root only when the consumer is an
        # atomic block (cut input) rather than a remaining AND node
        consumed_by_remaining = False
        for consumer in fanouts[v]:
            if consumer in remaining_set:
                consumed_by_remaining = True
        if not consumed_by_remaining:
            roots.append(v)
    root_set = set(roots)

    ha_output_pairs = {}
    for blk in blocks:
        if blk.kind == "HA":
            pair = frozenset(blk.output_vars)
            ha_output_pairs[pair] = blk

    for root in sorted(roots):
        cone = _collect_cone(aig, root, root_set, remaining_set)
        leaves = _cone_leaves(aig, cone, root)
        before_removed = vanishing.total_removed
        poly = cone_polynomial(aig, root, leaves, vanishing=vanishing)
        touched = vanishing.total_removed > before_removed
        converging = touched or _sees_ha_pair(leaves, ha_output_pairs)
        kind = "CGC" if converging else "FFC"
        components.append(cone_component(index, kind, root, leaves, poly, cone))
        index += 1
    log.debug("partition: %d components (%d atomic, %d CGC, %d FFC) "
              "over %d remaining AND nodes",
              len(components), len(blocks),
              sum(1 for c in components if c.kind == "CGC"),
              sum(1 for c in components if c.kind == "FFC"),
              len(remaining))
    return components, vanishing


def _collect_cone(aig, root, root_set, remaining_set):
    """The root plus every single-reference remaining node absorbed by it."""
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    cone = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in (fanin0[v] >> 1, fanin1[v] >> 1):
            if (w in remaining_set and w not in root_set
                    and w not in cone):
                cone.add(w)
                stack.append(w)
    return cone


def _cone_leaves(aig, cone, root):
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    leaves = set()
    for v in cone:
        for w in (fanin0[v] >> 1, fanin1[v] >> 1):
            if w not in cone and w != 0:
                leaves.add(w)
    return tuple(sorted(leaves))


def _sees_ha_pair(leaves, ha_output_pairs):
    leaf_set = set(leaves)
    for pair in ha_output_pairs:
        if pair <= leaf_set:
            return True
    return False
