"""Structural operations on AIGs: cleanup, cones, fanout maps, copying."""

from __future__ import annotations

from repro.aig.aig import Aig, lit_var
from repro.errors import AigError


def reachable_vars(aig, roots=None):
    """Set of variables reachable from ``roots`` (default: the outputs)."""
    if roots is None:
        roots = [lit_var(out) for out in aig.outputs]
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    first_and = len(aig._inputs) + 1
    n = len(fanin0)
    seen = set()
    add = seen.add
    stack = [v for v in roots if v > 0]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        if v in seen:
            continue
        add(v)
        if first_and <= v < n:
            push(fanin0[v] >> 1)
            push(fanin1[v] >> 1)
    return seen


def cleanup(aig):
    """Return a compacted copy containing only nodes reachable from outputs.

    Inputs are always kept (the interface must not change).  This is the
    ``dce`` building block used by every optimization script.
    """
    keep = reachable_vars(aig)
    new = Aig(aig.name)
    # old variable -> new literal (the image of the old positive literal);
    # add_and may simplify, so the image can be complemented or constant.
    old2new = {0: 0}
    for var, name in zip(aig.inputs, aig.input_names):
        old2new[var] = new.add_input(name)
    for v in aig.and_vars():
        if v not in keep:
            continue
        f0, f1 = aig.fanins(v)
        old2new[v] = new.add_and(_map_lit(old2new, f0), _map_lit(old2new, f1))
    for out, name in zip(aig.outputs, aig.output_names):
        new.add_output(_map_lit(old2new, out), name)
    return new


def _map_lit(old2new, literal):
    return old2new[lit_var(literal)] ^ (literal & 1)


def copy_aig(aig):
    """Deep copy (also canonicalizes via structural hashing)."""
    return cleanup(aig)


def fanout_map(aig):
    """Map each variable to the list of AND variables that consume it.

    Primary outputs are recorded under the key ``"po"`` in a second map:
    returns ``(consumers, po_refs)`` where ``po_refs[v]`` is the number of
    outputs driven by variable ``v``.
    """
    consumers = {v: [] for v in range(aig.num_vars)}
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    for v in aig.and_vars():
        consumers[fanin0[v] >> 1].append(v)
        consumers[fanin1[v] >> 1].append(v)
    po_refs = dict.fromkeys(range(aig.num_vars), 0)
    for out in aig.outputs:
        po_refs[lit_var(out)] += 1
    return consumers, po_refs


def cone_vars(aig, root, leaves):
    """Variables strictly inside the cone of ``root`` bounded by ``leaves``.

    Returns the set of AND variables on paths from ``root`` down to (but
    not including) the leaf variables.  ``root`` itself is included when it
    is an AND node.
    """
    leaves = set(leaves)
    cone = set()
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    first_and = len(aig._inputs) + 1
    n = len(fanin0)
    stack = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        if v in cone or v in leaves or v < first_and or v >= n:
            continue
        cone.add(v)
        push(fanin0[v] >> 1)
        push(fanin1[v] >> 1)
    return cone


def transitive_fanin_support(aig, root):
    """Primary-input variables in the transitive fan-in of ``root``."""
    support = set()
    seen = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if aig.is_input(v):
            support.add(v)
        elif aig.is_and(v):
            f0, f1 = aig.fanins(v)
            stack.append(lit_var(f0))
            stack.append(lit_var(f1))
    return support


def mffc(aig, root, fanouts=None, po_refs=None):
    """Maximum fanout-free cone of ``root``: AND vars whose every path to
    an output passes through ``root``.

    Computed by simulated reference-count dereferencing.  A fan-in's
    count is taken from ``fanouts``/``po_refs`` the first time the walk
    reaches it, so with the maps given a call costs O(cone), not O(N).
    """
    if fanouts is None or po_refs is None:
        fanouts, po_refs = fanout_map(aig)
    refs = {}
    cone = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if not aig.is_and(v) or v in cone:
            continue
        cone.add(v)
        for f in aig.fanins(v):
            w = lit_var(f)
            count = refs.get(w)
            if count is None:
                count = len(fanouts[w]) + po_refs[w]
            count -= 1
            refs[w] = count
            if count == 0:
                stack.append(w)
    return cone


def check_acyclic(aig):
    """Validate the topological-order invariant; raises on violation."""
    for v in aig.and_vars():
        f0, f1 = aig.fanins(v)
        if lit_var(f0) >= v or lit_var(f1) >= v:
            raise AigError(f"node {v} breaks the topological-order invariant")
    return True


def structural_signature(aig):
    """A hashable signature of the structure (for regression tests)."""
    return (
        aig.num_inputs,
        tuple(aig.fanins(v) for v in aig.and_vars()),
        tuple(aig.outputs),
    )


def canonical_labels(aig):
    """Merkle-style canonical label (bytes digest) per reachable variable.

    Labels are invariant under variable renumbering (any topological
    insertion order) and AND-pin permutation, but *not* under primary
    input reordering: an input's label is its declared position, because
    the multiplier specification assigns operand bit weights by
    position.  Two AIGs whose outputs carry the same label sequence are
    structurally isomorphic as circuits over the declared input order.
    """
    import hashlib

    labels = {0: hashlib.sha256(b"const0").digest()}
    for position, var in enumerate(aig.inputs):
        labels[var] = hashlib.sha256(b"in:%d" % position).digest()
    # and_vars() is topologically ordered (fanins < var), so one pass
    # suffices; sorting the two fanin labels folds pin permutation away
    # (AND is commutative), while the complement bit stays attached to
    # the edge it negates.
    for v in aig.and_vars():
        f0, f1 = aig.fanins(v)
        edges = sorted((labels[lit_var(f0)] + (b"~" if f0 & 1 else b"."),
                        labels[lit_var(f1)] + (b"~" if f1 & 1 else b".")))
        labels[v] = hashlib.sha256(b"and:" + edges[0] + edges[1]).digest()
    return labels


def canonical_signature(aig, width_a=None, width_b=None, signed=False):
    """Canonical structural signature for content-addressed caching.

    Extends :func:`structural_signature` three ways, as the certificate
    cache requires (see :mod:`repro.service.fingerprint`):

    * **isomorphism-invariant** — internal variable numbering and AND
      pin order are canonicalized away via Merkle hashing, so any
      renumbered/pin-permuted rewrite of the same circuit maps to the
      same signature;
    * **input/output ordering** — inputs are labelled by declared
      position and outputs contribute in declared order (with their
      complement bits), because operand/product bit weights are
      positional;
    * **declared interface** — the claimed operand widths and
      signedness are part of the signature, so the same graph verified
      as 4x4 unsigned vs 4x4 signed occupies two distinct cache slots.

    Returns a hashable tuple; hash it (sha256) for a compact key.
    """
    labels = canonical_labels(aig)
    outputs = tuple(labels[lit_var(out)] + (b"~" if out & 1 else b".")
                    for out in aig.outputs)
    return (aig.num_inputs, aig.num_outputs, width_a, width_b,
            bool(signed), outputs)
