"""k-feasible cut enumeration.

Cut enumeration is the engine behind both reverse engineering of atomic
blocks (Section II-A of the paper: "Based on cut enumeration, atomic
blocks can be identified very fast") and the cut-based optimization and
technology-mapping passes.

A *cut* of node ``v`` is a set of variables (leaves) such that every path
from the inputs to ``v`` crosses a leaf.  We enumerate all cuts with at
most ``k`` leaves bottom-up, pruning dominated cuts and keeping at most
``limit`` cuts per node.
"""

from __future__ import annotations

from repro.aig.truth import var_pattern


def _cut_sets(aig, k, limit, include_trivial):
    """The merge/prune core of :func:`enumerate_cuts` and
    :func:`cut_functions`.

    Yields ``(var, cuts, parents)`` per variable in topological order:
    the kept cuts as leaf frozensets (trivial cut first when
    ``include_trivial``), and a map from each merged cut to the
    (fanin-0 cut, fanin-1 cut) pair that first formed it — ``None`` for
    the constant and inputs.
    """
    sets = {0: [frozenset()]}
    yield 0, sets[0], None
    for var in aig.inputs:
        sets[var] = [frozenset((var,))]
        yield var, sets[var], None
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    keep = limit - 1 if include_trivial else limit
    for v in aig.and_vars():
        m1 = sets[fanin1[v] >> 1]
        parents = {}
        for a in sets[fanin0[v] >> 1]:
            # a full cut merges only with its subsets, into itself:
            # test containment instead of building the union
            if len(a) == k:
                if a not in parents:
                    for b in m1:
                        if b <= a:
                            parents[a] = (a, b)
                            break
                continue
            for b in m1:
                if len(b) == k:
                    if a <= b and b not in parents:
                        parents[b] = (a, b)
                    continue
                union = a | b
                if len(union) > k or union in parents:
                    continue
                parents[union] = (a, b)
        merged = _prune_dominated_sets(list(parents))[:keep]
        sets[v] = [frozenset((v,))] + merged if include_trivial else merged
        yield v, sets[v], parents


def enumerate_cuts(aig, k=4, limit=12, include_trivial=True):
    """Enumerate k-feasible cuts for every variable.

    Returns ``{var: [cut, ...]}`` where each cut is a sorted tuple of leaf
    variables.  The trivial cut ``(var,)`` is included first when
    ``include_trivial`` is set.  Constant and input variables only get
    their trivial cut.
    """
    return {var: [tuple(sorted(cut)) for cut in cut_list]
            for var, cut_list, _parents in _cut_sets(aig, k, limit,
                                                     include_trivial)}


def _expansions(n, positions):
    """``table[tt]``: the truth table ``tt`` over ``len(positions)``
    inputs, re-expressed over ``n`` inputs of which input ``j`` sits at
    position ``positions[j]``."""
    mask = (1 << (1 << n)) - 1
    cubes = []
    for minterm in range(1 << len(positions)):
        cube = mask
        for j, pos in enumerate(positions):
            pattern = var_pattern(pos, n)
            cube &= pattern if minterm >> j & 1 else pattern ^ mask
        cubes.append(cube)
    table = [0]
    for tt in range(1, 1 << len(cubes)):
        low = tt & -tt
        table.append(table[tt ^ low] | cubes[low.bit_length() - 1])
    return table


# _EXPAND[n][pmask][tt]: a cut function re-expressed over an n-leaf
# superset cut whose leaf positions ``pmask`` it occupies.
_EXPAND = [[_expansions(n, [pos for pos in range(n) if pmask >> pos & 1])
            for pmask in range(1 << n)] for n in range(4)]
_MASKS = [(1 << (1 << n)) - 1 for n in range(4)]
_ZEROS = [0] * 4


def cut_functions(aig, limit=24):
    """The cuts of ``enumerate_cuts(aig, k=3, limit=limit)``, in order,
    with their functions.

    Yields ``(var, leaves, tt)`` per kept cut, where ``tt`` equals
    ``cone_truth_table(aig, var, leaves)``.  A merged cut's table is the
    AND of its two parents' tables, each complemented per fan-in edge
    and expanded onto the union's leaf positions; no cone is walked.
    """
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    tables = {}
    for var, cut_list, parents in _cut_sets(aig, 3, limit, True):
        # a trivial cut's table is the variable itself, 0b10; the
        # constant's empty cut is 0
        if parents is None:
            tt = 2 if var else 0
            tables[var] = {cut_list[0]: tt}
            yield var, tuple(cut_list[0]), tt
            continue
        f0 = fanin0[var]
        f1 = fanin1[var]
        tables0 = tables[f0 >> 1]
        tables1 = tables[f1 >> 1]
        flip0 = _MASKS if f0 & 1 else _ZEROS
        flip1 = _MASKS if f1 & 1 else _ZEROS
        own = tables[var] = {cut_list[0]: 2}
        yield var, (var,), 2
        for cut in cut_list[1:]:
            a, b = parents[cut]
            leaves = tuple(sorted(cut))
            n = len(leaves)
            ta = tables0[a] ^ flip0[len(a)]
            if len(a) != n:
                ta = _EXPAND[n][_position_mask(leaves, a)][ta]
            tb = tables1[b] ^ flip1[len(b)]
            if len(b) != n:
                tb = _EXPAND[n][_position_mask(leaves, b)][tb]
            tt = own[cut] = ta & tb
            yield var, leaves, tt


def _position_mask(leaves, subset):
    """Bit ``i`` set iff ``leaves[i]`` is in ``subset``."""
    pmask = 0
    for leaf in subset:
        pmask |= 1 << leaves.index(leaf)
    return pmask


def _prune_dominated_sets(cut_list):
    """Drop cuts that are supersets of another cut in the list,
    returning the survivors sorted by leaf count (stable, so ties keep
    their discovery order)."""
    cut_list.sort(key=len)
    kept = []
    for cut in cut_list:
        for smaller in kept:
            if smaller <= cut:
                break
        else:
            kept.append(cut)
    return kept


def nontrivial_cuts(cuts, var):
    """All enumerated cuts of ``var`` except the trivial one."""
    return [cut for cut in cuts.get(var, []) if cut != (var,)]
