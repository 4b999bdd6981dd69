"""Pipeline invariant checkers (``repro verify --check-invariants``).

These validate the verifier's *own* machinery while it runs — a
violation is always a pipeline bug, never a circuit bug:

* :func:`check_component_coverage` (RP001) — the atomic-block + cone
  partition covers every reachable AND node exactly once;
* :func:`check_vanishing_rules` (RP002) — the compiled pair-rule table
  is well-formed (no rule reproduces its own trigger, the reducer's
  scan tables agree with the rule lists);
* :class:`InvariantMonitor` — hooked into every commit of backward
  rewriting: substitution-order legality (RP003 — a component is
  substituted only after every consumer of its outputs) and ``SP_i``
  signature spot-checks (RP004 — ``SP_i`` evaluated on assignments
  consistent with the circuit must stay equal to the specification
  value at every step; substitution and vanishing-rule application are
  value-preserving exactly on consistent assignments).

All violations raise :class:`repro.errors.PipelineInvariantError` with
the code and a structured context; when a recorder is attached each
check also emits an ``invariant`` event so traces show the checks ran.
"""

from __future__ import annotations

import random

from repro.aig.ops import reachable_vars
from repro.errors import PipelineInvariantError
from repro.poly.monomial import monomial_vars


def check_component_coverage(aig, components):
    """RP001: components partition the reachable AND nodes.

    Every AND node reachable from an output must belong to exactly one
    component's ``internal`` set, and no two components may claim the
    same node or produce the same output variable.
    """
    owner = {}
    for comp in components:
        for v in comp.internal:
            if not aig.is_and(v):
                raise PipelineInvariantError(
                    f"component {comp.describe()} claims non-AND node v{v}",
                    code="RP001", context={"component": comp.index,
                                           "node": v})
            if v in owner:
                raise PipelineInvariantError(
                    f"node v{v} claimed by two components "
                    f"(#{owner[v]} and #{comp.index})",
                    code="RP001", context={"node": v,
                                           "components": [owner[v],
                                                          comp.index]})
            owner[v] = comp.index
    out_owner = {}
    for comp in components:
        for var in comp.output_vars:
            if var in out_owner:
                raise PipelineInvariantError(
                    f"output variable v{var} produced by two components "
                    f"(#{out_owner[var]} and #{comp.index})",
                    code="RP001", context={"node": var})
            out_owner[var] = comp.index
    missing = [v for v in reachable_vars(aig)
               if aig.is_and(v) and v not in owner]
    if missing:
        raise PipelineInvariantError(
            f"{len(missing)} reachable AND node(s) covered by no "
            f"component (first: v{missing[0]})",
            code="RP001", context={"nodes": missing[:8],
                                   "count": len(missing)})
    return len(owner)


def check_vanishing_rules(rules):
    """RP002: the compiled rule table is well-formed.

    Checks that every rule's right-hand side does not reproduce its own
    trigger pair (which would make normalization diverge), and that the
    scan tables the reducer uses — per-bit entry lists, partner unions,
    the rescan masks of the rules that have fired, the global trigger
    mask — describe the per-variable rule lists (compiling the tables
    first when no reduction has yet).
    """
    if rules._by_low is None:
        rules._compile()
    trigger_union = 0
    count = 0
    unions = {}
    for var, entries in rules._by_var.items():
        bit = 1 << var
        trigger_union |= bit
        partner_union = 0
        for partner_bit, pair_mask, terms in entries:
            count += 1
            partner_union |= partner_bit
            if pair_mask != (bit | partner_bit):
                raise PipelineInvariantError(
                    f"rule on v{var} has inconsistent pair mask",
                    code="RP002", context={"node": var})
            for _coeff, extra in terms:
                if extra & pair_mask == pair_mask:
                    raise PipelineInvariantError(
                        f"rule on v{var} reproduces its own trigger pair "
                        "on the right-hand side", code="RP002",
                        context={"node": var})
        unions[bit] = partner_union
        if rules._union_by_low.get(bit, 0) != partner_union:
            raise PipelineInvariantError(
                f"partner-union index stale for trigger v{var}",
                code="RP002", context={"node": var})
    if trigger_union != rules._trigger_mask:
        raise PipelineInvariantError(
            "global trigger mask disagrees with the per-variable rule "
            "lists", code="RP002", context={})
    reverse = {}  # partner var -> bits of the triggers it pairs with
    for bit, union in unions.items():
        for partner in monomial_vars(union):
            reverse[partner] = reverse.get(partner, 0) | bit
    scan_terms_of = rules._scan_terms_of
    for var, entries in rules._by_var.items():
        if rules._by_low.get(1 << var) != entries:
            raise PipelineInvariantError(
                f"rule index mismatch for trigger v{var}: _by_var and "
                "_by_low disagree", code="RP002", context={"node": var})
        for entry in entries:
            scan_terms = scan_terms_of.get(id(entry))
            if scan_terms is None:
                continue  # the rule has not fired yet
            if [(c, e) for c, e, _rescan in scan_terms] != list(entry[2]):
                raise PipelineInvariantError(
                    f"scan terms stale for a rule on v{var}",
                    code="RP002", context={"node": var})
            for _coeff, extra, rescan in scan_terms:
                # the triggers in the term and those with a partner in it
                expected = extra & trigger_union
                for partner in monomial_vars(extra):
                    expected |= reverse.get(partner, 0)
                if rescan != expected:
                    raise PipelineInvariantError(
                        f"rescan mask stale for a rule on v{var}",
                        code="RP002", context={"node": var})
    if count != len(rules):
        raise PipelineInvariantError(
            f"rule count {len(rules)} disagrees with indexed rules "
            f"{count}", code="RP002", context={"indexed": count})
    return count


class InvariantMonitor:
    """Per-commit checks for one backward-rewriting run.

    Built once after component partitioning; the engine calls
    :meth:`on_commit` after installing each substitution.  The
    signature spot-check evaluates ``SP_i`` on ``samples`` random
    circuit-consistent assignments and compares against the
    specification value computed once up front — O(|SP_i|) per commit,
    opt-in via ``--check-invariants``.
    """

    def __init__(self, aig, spec, components, samples=2, seed=0,
                 recorder=None, ring=None):
        from repro.aig.simulate import node_values
        from repro.poly.ring import EXACT

        if ring is None:
            ring = EXACT
        self.ring = ring
        self.recorder = recorder
        self.checked_commits = 0
        # Substitution-order bookkeeping: consumers of each component.
        var_owner = {}
        for comp in components:
            for var in comp.output_vars:
                var_owner[var] = comp.index
        self._consumers = {comp.index: set() for comp in components}
        for comp in components:
            for var in comp.input_vars:
                owner = var_owner.get(var)
                if owner is not None and owner != comp.index:
                    self._consumers[owner].add(comp.index)
        self._substituted = set()
        # Signature assignments: full node valuations on random inputs.
        rng = random.Random(seed)
        self._assignments = []
        self._expected = []
        for _ in range(samples):
            inputs = [rng.getrandbits(1) for _ in range(aig.num_inputs)]
            values = node_values(aig, inputs, width=1)
            assignment = {var: values[var] & 1
                          for var in range(aig.num_vars)}
            self._assignments.append(assignment)
            # canonical in the run's coefficient ring, so the comparison
            # against a mod-p SP_i is a like-for-like one
            self._expected.append(ring.convert(spec.evaluate(assignment)))

    def on_commit(self, index, component, sp):
        """Check one committed substitution (order + signature)."""
        illegal = [c for c in self._consumers[index]
                   if c not in self._substituted]
        if illegal:
            raise PipelineInvariantError(
                f"component #{index} ({component.kind}) substituted "
                f"before its consumer(s) {sorted(illegal)}",
                code="RP003", context={"component": index,
                                       "consumers": sorted(illegal)})
        if index in self._substituted:
            raise PipelineInvariantError(
                f"component #{index} substituted twice",
                code="RP003", context={"component": index})
        self._substituted.add(index)
        for assignment, expected in zip(self._assignments, self._expected):
            got = sp.evaluate(assignment)
            if got != expected:
                raise PipelineInvariantError(
                    f"SP_i signature mismatch after substituting "
                    f"component #{index}: evaluated {got}, specification "
                    f"value {expected}",
                    code="RP004", context={"component": index,
                                           "got": got,
                                           "expected": expected})
        self.checked_commits += 1
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.count("invariants.commit_checks")

    def summary(self):
        return {"checked_commits": self.checked_commits,
                "signature_samples": len(self._assignments)}
