"""Recursive Boolean decomposition of small truth tables.

The ISOP re-synthesis of :mod:`repro.opt.isop` is weak on XOR-heavy
functions (a 3-input parity costs 11 AND nodes as a SOP but 6 as an XOR
tree), and multiplier logic is almost entirely XOR/majority.  This
module decomposes a truth table by peeling simple top operators —

* ``f = x AND g``   when the negative cofactor vanishes,
* ``f = x OR g``    when the positive cofactor is a tautology,
* ``f = x XOR g``   when the cofactors are complementary,

recursing into ``g``, and falling back to a Shannon multiplexer when no
variable admits a simple peel.  The result is an expression tree with an
exact AND-node cost, which the optimization passes compare against the
ISOP cover cost before materializing the cheaper one.
"""

from __future__ import annotations

from repro.aig.truth import cofactors, tt_mask, var_patterns
from repro.opt.isop import _cover_cost, build_sop, isop

# Expression-tree node kinds.
CONST = "const"
LEAF = "leaf"
AND = "and"
OR = "or"
XOR = "xor"
MUX = "mux"

_COSTS = {AND: 1, OR: 1, XOR: 3, MUX: 3}


def decompose(tt, num_vars):
    """Decompose ``tt`` into an expression tree (memoized per call)."""
    tree, _cost = _decompose(tt & tt_mask(num_vars), num_vars, {})
    return tree


def _decompose(tt, num_vars, memo):
    """``(tree, tree_cost(tree))`` of ``tt``.  ``memo`` maps each
    sub-function to the same pair, so the Shannon fallback compares
    cofactor costs without re-walking their trees."""
    cached = memo.get(tt)
    if cached is not None:
        return cached
    mask = tt_mask(num_vars)
    result = None
    if tt == 0:
        result = ((CONST, 0), 0)
    elif tt == mask:
        result = ((CONST, 1), 0)
    if result is None:
        for pos, pattern in enumerate(var_patterns(num_vars)):
            if tt == pattern:
                result = ((LEAF, pos, 1), 0)
                break
            if tt == pattern ^ mask:
                result = ((LEAF, pos, 0), 0)
                break
    if result is None:
        pairs = cofactors(tt, num_vars)
        for pos, (f0, f1) in enumerate(pairs):
            if f0 == f1:
                continue
            if f0 == 0:
                result = _peel(AND, (LEAF, pos, 1), f1, num_vars, memo)
                break
            if f1 == 0:
                result = _peel(AND, (LEAF, pos, 0), f0, num_vars, memo)
                break
            if f1 == mask:
                result = _peel(OR, (LEAF, pos, 1), f0, num_vars, memo)
                break
            if f0 == mask:
                result = _peel(OR, (LEAF, pos, 0), f1, num_vars, memo)
                break
            if f0 == f1 ^ mask:
                result = _peel(XOR, (LEAF, pos, 1), f0, num_vars, memo)
                break
    if result is None:
        # Shannon fallback on the variable whose cofactors are cheapest.
        best = None
        for pos, (f0, f1) in enumerate(pairs):
            if f0 == f1:
                continue
            then_tree, then_cost = _decompose(f1, num_vars, memo)
            else_tree, else_cost = _decompose(f0, num_vars, memo)
            total = then_cost + else_cost
            if best is None or total < best[0]:
                best = (total, pos, then_tree, else_tree)
        total, pos, then_tree, else_tree = best
        result = ((MUX, pos, then_tree, else_tree), _COSTS[MUX] + total)
    memo[tt] = result
    return result


def _peel(kind, leaf, rest_tt, num_vars, memo):
    rest, rest_cost = _decompose(rest_tt, num_vars, memo)
    return (kind, leaf, rest), _COSTS[kind] + rest_cost


def tree_cost(tree):
    """Exact AND-node count of an expression tree (no sharing)."""
    kind = tree[0]
    if kind in (CONST, LEAF):
        return 0
    if kind == MUX:
        return _COSTS[MUX] + tree_cost(tree[2]) + tree_cost(tree[3])
    return _COSTS[kind] + tree_cost(tree[1]) + tree_cost(tree[2])


def build_tree(aig, tree, leaf_literals):
    """Materialize an expression tree in ``aig``; returns a literal."""
    kind = tree[0]
    if kind == CONST:
        return 1 if tree[1] else 0
    if kind == LEAF:
        _, pos, polarity = tree
        leaf = leaf_literals[pos]
        return leaf if polarity else aig.not_(leaf)
    if kind == AND:
        return aig.and_(build_tree(aig, tree[1], leaf_literals),
                        build_tree(aig, tree[2], leaf_literals))
    if kind == OR:
        return aig.or_(build_tree(aig, tree[1], leaf_literals),
                       build_tree(aig, tree[2], leaf_literals))
    if kind == XOR:
        return aig.xor_(build_tree(aig, tree[1], leaf_literals),
                        build_tree(aig, tree[2], leaf_literals))
    _, pos, then_tree, else_tree = tree
    return aig.mux(leaf_literals[pos],
                   build_tree(aig, then_tree, leaf_literals),
                   build_tree(aig, else_tree, leaf_literals))


def synthesize_best(aig, tt, leaf_literals, plans=None):
    """Build ``tt`` over the leaves using the cheaper of the ISOP covers
    and the recursive decomposition.

    The choice depends only on ``(tt, len(leaf_literals))``; a caller
    that synthesizes many cuts passes one ``plans`` dict for all of them
    so each function is planned once.  The dict lives as long as the
    caller keeps it: nothing is cached across calls otherwise.
    """
    num_vars = len(leaf_literals)
    tt &= tt_mask(num_vars)
    key = (tt, num_vars)
    plan = plans.get(key) if plans is not None else None
    if plan is None:
        plan = _plan(tt, num_vars)
        if plans is not None:
            plans[key] = plan
    kind, payload = plan
    if kind == "tree":
        return build_tree(aig, payload, leaf_literals)
    if kind == "sop":
        return build_sop(aig, payload, leaf_literals)
    return aig.not_(build_sop(aig, payload, leaf_literals))


def _plan(tt, num_vars):
    """``(kind, payload)`` of the cheapest of the decomposition tree,
    the ISOP cover and the complemented ISOP cover; ties go in that
    order."""
    mask = tt_mask(num_vars)
    tree, cost = _decompose(tt, num_vars, {})
    options = [(cost, "tree", tree)]
    cubes_pos = isop(tt, num_vars)
    options.append((_cover_cost(cubes_pos), "sop", cubes_pos))
    cubes_neg = isop(tt ^ mask, num_vars)
    options.append((_cover_cost(cubes_neg), "nsop", cubes_neg))
    options.sort(key=lambda item: item[0])
    _, kind, payload = options[0]
    return kind, payload
