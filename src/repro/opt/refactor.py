"""Cut-based re-synthesis passes: ``refactor`` (large cuts) and
``rewrite`` (small enumerated cuts).

Both passes walk the AIG in topological order, collapse the function of
a root node over a cut to a truth table, re-synthesize it with the
Minato-Morreale ISOP, and accept the replacement when it saves nodes
(``zero_cost=True`` also accepts size-neutral replacements, like abc's
``rwz``/``rfz`` — these restructure the netlist without shrinking it,
which is exactly what destroys atomic-block boundaries).

Rejected attempts simply leave dangling nodes behind; the final
:func:`repro.aig.ops.cleanup` sweep removes them.
"""

from __future__ import annotations

from repro.aig.aig import Aig, lit_var
from repro.aig.cuts import enumerate_cuts
from repro.aig.ops import cleanup, cone_vars, fanout_map, mffc
from repro.aig.truth import cone_truth_table
from repro.opt.decompose import synthesize_best


def refactor(aig, k=8, zero_cost=False, min_cone=3):
    """One refactoring sweep with structurally grown cuts of up to ``k``
    leaves.  Returns a new AIG (never larger than the input: per-node
    gain accounting is heuristic, so a global guard rejects a sweep that
    grew the netlist)."""
    result = _resynthesis_pass(aig, _structural_cut_provider(k),
                               zero_cost=zero_cost, min_cone=min_cone)
    return result if result.num_ands <= aig.num_ands else cleanup(aig)


def rewrite(aig, k=4, cut_limit=8, zero_cost=False, min_cone=2):
    """One rewriting sweep over enumerated ``k``-feasible cuts (guarded
    like :func:`refactor`)."""
    cuts = enumerate_cuts(aig, k=k, limit=cut_limit)

    def provider(graph, root):
        found = []
        for cut in cuts.get(root, []):
            if cut == (root,) or len(cut) < 2:
                continue
            found.append(list(cut))
        return found

    result = _resynthesis_pass(aig, provider, zero_cost=zero_cost,
                               min_cone=min_cone)
    return result if result.num_ands <= aig.num_ands else cleanup(aig)


def _structural_cut_provider(k):
    def provider(aig, root):
        cut = _grow_cut(aig, root, k)
        if cut is None or len(cut) < 2:
            return []
        return [cut]
    return provider


def _grow_cut(aig, root, k):
    """Grow a cut from ``root`` by greedily expanding the deepest AND
    leaf while the leaf count stays within ``k``."""
    f0, f1 = aig.fanins(root)
    leaves = {lit_var(f0), lit_var(f1)}
    leaves.discard(0)
    if not leaves:
        return None
    while True:
        expanded = False
        for leaf in sorted(leaves, reverse=True):
            if not aig.is_and(leaf):
                continue
            g0, g1 = aig.fanins(leaf)
            candidate = (leaves - {leaf}) | {lit_var(g0), lit_var(g1)}
            candidate.discard(0)
            if len(candidate) <= k:
                leaves = candidate
                expanded = True
                break
        if not expanded:
            return sorted(leaves)


def _resynthesis_pass(aig, cut_provider, zero_cost, min_cone):
    fanouts, po_refs = fanout_map(aig)
    plans = {}
    new = Aig(aig.name)
    old2new = {0: 0}
    for var, name in zip(aig.inputs, aig.input_names):
        old2new[var] = new.add_input(name)

    for v in aig.and_vars():
        f0, f1 = aig.fanins(v)
        replaced = False
        # Every node is a candidate; shared nodes gain the most but
        # single-fanout nodes also profit when their cone collapses.
        candidates = cut_provider(aig, v)
        if candidates:
            root_mffc = mffc(aig, v, fanouts, po_refs)
        for cut in candidates:
            cone = cone_vars(aig, v, cut)
            saved = len(cone & root_mffc)
            if saved < min_cone:
                continue
            if len(cone) > 64:
                continue
            tt = cone_truth_table(aig, v, tuple(cut))
            leaf_images = [old2new[leaf] for leaf in cut]
            before = new.num_vars
            out = synthesize_best(new, tt, leaf_images, plans)
            added = new.num_vars - before
            accept = added < saved or (zero_cost and added == saved)
            if accept:
                old2new[v] = out
                replaced = True
                break
        if not replaced:
            nf0 = old2new[lit_var(f0)] ^ (f0 & 1)
            nf1 = old2new[lit_var(f1)] ^ (f1 & 1)
            old2new[v] = new.add_and(nf0, nf1)

    for out, name in zip(aig.outputs, aig.output_names):
        new.add_output(old2new[lit_var(out)] ^ (out & 1), name)
    return cleanup(new)
