"""Cache-key soundness: the fingerprint must collapse exactly the
designs that are interchangeable as verification subjects.

Two directions, both load-bearing for the certificate cache:

* **no missed hits** — any isomorphic rewrite (renumbered variables,
  permuted AND pins, different topological insertion order) of the same
  circuit maps to the same fingerprint, so a resubmission is answered
  in O(hash);
* **no false hits** — every functional change (any injected fault
  kind), any interface change (widths, signedness, output order) maps
  to a different fingerprint, so a buggy variant can never replay a
  clean certificate.
"""

import random

import pytest

from repro.aig.aig import Aig, lit_neg, lit_var
from repro.aig.simulate import exhaustive_equal
from repro.genmul.faults import FAULT_KINDS, inject_visible_fault
from repro.genmul.multiplier import generate_multiplier
from repro.service.fingerprint import (config_fingerprint,
                                       design_fingerprint, resolve_widths)


def shuffled_copy(aig, seed=0):
    """An isomorphic rebuild: same circuit, different variable
    numbering (randomized topological insertion order) and swapped AND
    pin order.  The interface (input/output order) is preserved."""
    rng = random.Random(seed)
    out = Aig(aig.name)
    mapping = {0: 0}
    for var, name in zip(aig.inputs, aig.input_names):
        mapping[var] = lit_var(out.add_input(name))
    remaining = list(aig.and_vars())
    ready = []
    while remaining or ready:
        ready.extend(v for v in remaining
                     if all(lit_var(f) in mapping for f in aig.fanins(v)))
        remaining = [v for v in remaining if v not in set(ready)]
        pick = ready.pop(rng.randrange(len(ready)))
        f0, f1 = aig.fanins(pick)

        def relit(lit):
            new = 2 * mapping[lit_var(lit)]
            return lit_neg(new) if lit & 1 else new

        mapping[pick] = lit_var(out.add_and(relit(f1), relit(f0)))
    for lit, name in zip(aig.outputs, aig.output_names):
        new = 2 * mapping[lit_var(lit)]
        out.add_output(lit_neg(new) if lit & 1 else new, name)
    return out


@pytest.fixture(scope="module")
def mult():
    return generate_multiplier("SP-AR-RC", 4)


class TestIsomorphismInvariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_copy_is_equivalent_and_hits(self, mult, seed):
        other = shuffled_copy(mult, seed=seed)
        assert exhaustive_equal(mult, other)
        assert design_fingerprint(other) == design_fingerprint(mult)

    def test_shuffle_actually_renumbers(self, mult):
        # the helper must exercise the invariance, not copy verbatim
        other = shuffled_copy(mult, seed=1)
        assert [mult.fanins(v) for v in mult.and_vars()] != \
            [other.fanins(v) for v in other.and_vars()]

    def test_stable_across_processes(self, mult):
        # sha256 of canonical structure: no salt, no id()s, no dict order
        fp = design_fingerprint(mult)
        assert fp == design_fingerprint(generate_multiplier("SP-AR-RC", 4))
        assert len(fp) == 64 and int(fp, 16) >= 0


class TestInvalidation:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_fault_kind_misses(self, mult, kind, seed):
        buggy = inject_visible_fault(mult, kind=kind, seed=seed)
        assert design_fingerprint(buggy) != design_fingerprint(mult)

    def test_architecture_misses(self, mult):
        other = generate_multiplier("SP-DT-LF", 4)
        assert design_fingerprint(other) != design_fingerprint(mult)

    def test_declared_widths_distinguish(self):
        aig = generate_multiplier("SP-AR-RC", 4, 4)
        # same graph, different claimed operand split
        base = design_fingerprint(aig, 4, 4)
        assert design_fingerprint(aig, 2, 6) != base

    def test_signedness_distinguishes(self, mult):
        assert design_fingerprint(mult, signed=True) != \
            design_fingerprint(mult, signed=False)

    def test_spec_distinguishes(self, mult):
        assert design_fingerprint(mult, spec="adder") != \
            design_fingerprint(mult)

    def test_config_key_keeps_multiplier_fingerprints(self):
        from repro.core.pipeline import VerifyConfig

        aig = generate_multiplier("SP-AR-RC", 4)
        # the key every release before the spec field computed
        pinned = ("f81f07f832f301b08563f33324cf6bf6"
                  "07c1c00288d6829996980aef537da78a")
        assert design_fingerprint(aig) == pinned
        assert config_fingerprint(aig, VerifyConfig()) == pinned
        assert config_fingerprint(aig, VerifyConfig(spec="adder")) == \
            design_fingerprint(aig, spec="adder")

    def test_output_negation_misses(self, mult):
        other = shuffled_copy(mult, seed=0)
        other.set_output(0, lit_neg(other.outputs[0]))
        assert design_fingerprint(other) != design_fingerprint(mult)


class TestWidths:
    def test_half_split_default(self, mult):
        assert resolve_widths(mult, None, None) == (4, 4)

    def test_explicit_widths(self, mult):
        assert resolve_widths(mult, 3, None) == (3, 5)
        assert resolve_widths(mult, 3, 5) == (3, 5)

    def test_odd_inputs_need_widths(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        aig.add_output(aig.and_(a, aig.and_(b, c)))
        with pytest.raises(ValueError):
            resolve_widths(aig, None, None)
        assert resolve_widths(aig, 1, None) == (1, 2)
