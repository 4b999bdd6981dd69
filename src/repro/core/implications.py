"""Conflict-derived vanishing rules: carry operators and beyond.

The paper lists "carry operators" (the ``(G, P)`` nodes of parallel-
prefix adders, after Zimmermann [18]) among the atomic blocks whose
word-level behaviour SCA verifiers must exploit.  Their key algebraic
property is ``G * P = 0`` on every prefix span: a group cannot generate
a carry *and* propagate one.  Unlike the half-adder product rule this is
not a local truth-table fact — it follows inductively from the leaf
relations ``g_i * p_i = 0`` through the prefix combine structure.

This module derives such product-zero (*conflict*) pairs by a bounded
fixpoint over the AIG.  ``Z[lit]`` collects literals that can never be
true together with ``lit``:

* an AND node ``w = la & lb`` conflicts with ``!la``/``!lb`` and
  inherits every conflict of its conjuncts;
* the complement ``!w = !la | !lb`` conflicts with whatever conflicts
  with *both* branches (disjunction elimination);
* detected half adders seed the semantic conflicts ``C # S``;
* the relation is kept symmetric, and iteration continues to a fixpoint
  (bounded passes, capped set sizes — dropping conflicts is sound).

Every derived pair among the component-output/input variables becomes a
vanishing rule via :class:`repro.core.vanishing.VanishingRuleSet` — for
Kogge-Stone / Brent-Kung / carry-lookahead multipliers these are exactly
the ``G * P`` rules that keep backward rewriting from exploding.
"""

from __future__ import annotations


def _lit(var, negated):
    return 2 * var + (1 if negated else 0)


def derive_zero_pairs(aig, blocks, interesting_vars, cap=128,
                      max_passes=4):
    """Derive product-zero pairs among the interesting variables.

    Returns a set of ``((u, pu), (v, pv))`` tuples (u < v) meaning
    ``(u xor pu) * (v xor pv) = 0`` on every consistent assignment.
    ``cap`` bounds the conflict-set size per literal and ``max_passes``
    the fixpoint iterations (both truncations are sound).
    """
    interesting = set(interesting_vars)
    conflicts = {}

    def add_conflict(a, b):
        changed = False
        set_a = conflicts.setdefault(a, set())
        if b not in set_a and len(set_a) < cap:
            set_a.add(b)
            changed = True
        set_b = conflicts.setdefault(b, set())
        if a not in set_b and len(set_b) < cap:
            set_b.add(a)
            changed = True
        return changed

    for blk in blocks:
        if blk.kind != "HA":
            continue
        add_conflict(_lit(blk.carry_var, blk.carry_negated),
                     _lit(blk.sum_var, blk.sum_negated))

    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    and_nodes = [(v, fanin0[v], fanin1[v]) for v in aig.and_vars()]
    conflicts_get = conflicts.get
    conflicts_setdefault = conflicts.setdefault
    # Conflict sets only grow, so a set's length is its version.  A
    # node whose four source sets (f0, f1, !f0, !f1) kept their lengths
    # since its last visit is skipped: every insert that visit would try
    # is already present or blocked by the cap (the visit itself only
    # adds the node's own literals to the sources, and those are never
    # targets).
    versions = {}
    for _sweep in range(max_passes):
        changed = False
        for v, f0, f1 in and_nodes:
            nf0 = f0 ^ 1
            nf1 = f1 ^ 1
            cf0 = conflicts_get(f0, _EMPTY)
            cf1 = conflicts_get(f1, _EMPTY)
            if versions.get(v) == (len(cf0), len(cf1),
                                   len(conflicts_get(nf0, _EMPTY)),
                                   len(conflicts_get(nf1, _EMPTY))):
                continue
            w_pos = 2 * v
            w_neg = w_pos + 1
            # w = f0 & f1: conflicts with the branch complements and
            # with everything a conjunct conflicts with.  The symmetric
            # cap-bounded insert of ``add_conflict`` is inlined with the
            # node's own set hoisted out of the target loop — this runs
            # for every (node, target) pair of every sweep.  Iterating
            # the conjunct sets live is safe: a target's partner set is
            # never the set being iterated (no literal conflicts with
            # itself, and ``w`` is above its fan-ins).  A target already
            # in ``set_w`` is skipped outright: every membership was
            # established by a symmetric attempt, whose reverse insert
            # either succeeded then or was cap-blocked — and stays
            # blocked, since conflict sets only grow.  That turns the
            # stable majority of pairs in later sweeps into a single
            # membership test.
            set_w = conflicts_setdefault(w_pos, set())
            for target in (nf0, nf1):
                if target in set_w:
                    continue
                if len(set_w) < cap:
                    set_w.add(target)
                    changed = True
                set_t = conflicts_setdefault(target, set())
                if w_pos not in set_t and len(set_t) < cap:
                    set_t.add(w_pos)
                    changed = True
            for source in (cf0, cf1):
                for target in source:
                    if target in set_w or target >> 1 == v:
                        continue
                    if len(set_w) < cap:
                        set_w.add(target)
                        changed = True
                    set_t = conflicts_setdefault(target, set())
                    if w_pos not in set_t and len(set_t) < cap:
                        set_t.add(w_pos)
                        changed = True
            # !w = !f0 | !f1: disjunction elimination
            both = conflicts_get(nf0, _EMPTY) & conflicts_get(nf1, _EMPTY)
            if both:
                set_wn = conflicts_setdefault(w_neg, set())
                for target in both:
                    if target in set_wn or target >> 1 == v:
                        continue
                    if len(set_wn) < cap:
                        set_wn.add(target)
                        changed = True
                    set_t = conflicts_setdefault(target, set())
                    if w_neg not in set_t and len(set_t) < cap:
                        set_t.add(w_neg)
                        changed = True
            versions[v] = (len(conflicts_get(f0, _EMPTY)),
                           len(conflicts_get(f1, _EMPTY)),
                           len(conflicts_get(nf0, _EMPTY)),
                           len(conflicts_get(nf1, _EMPTY)))
        if not changed:
            break

    pairs = set()
    for literal, partners in conflicts.items():
        u = literal >> 1
        if u not in interesting:
            continue
        pu = literal & 1
        for partner in partners:
            v = partner >> 1
            if v == u or v not in interesting:
                continue
            pv = partner & 1
            pairs.add(((u, pu), (v, pv)) if u < v else ((v, pv), (u, pu)))
    return pairs


_EMPTY = frozenset()


def add_implication_rules(rules, aig, blocks, components, cap=128):
    """Derive zero pairs among component outputs/inputs and register
    them as vanishing rules.

    Skips pairs the rule set already covers (duplicates would only cost
    time, not correctness).  Returns the number of rules added.
    """
    interesting = set(aig.inputs)
    for comp in components:
        interesting.update(comp.output_vars)
    existing = set()
    for var, partner_list in rules._by_var.items():
        for partner_bit, _pair_mask, _terms in partner_list:
            existing.add(frozenset((var, partner_bit.bit_length() - 1)))
    added = 0
    for (u, pu), (v, pv) in sorted(derive_zero_pairs(aig, blocks,
                                                     interesting, cap=cap)):
        if frozenset((u, v)) in existing:
            continue
        # register via the HA-product machinery: it implements exactly
        # the four polarity cases of a product-zero pair
        rules.add_ha_product_rule(u, bool(pu), v, bool(pv))
        existing.add(frozenset((u, v)))
        added += 1
    return added
