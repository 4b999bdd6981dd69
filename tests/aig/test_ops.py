"""Tests for structural AIG operations (cleanup, cones, MFFC, ...)."""

import pytest

from repro.aig.aig import Aig, lit_neg, lit_var
from repro.aig.ops import (
    check_acyclic,
    cleanup,
    cone_vars,
    copy_aig,
    fanout_map,
    mffc,
    reachable_vars,
    structural_signature,
    transitive_fanin_support,
)
from repro.aig.simulate import exhaustive_equal
from repro.genmul import generate_multiplier
from repro.opt.scripts import optimize


def full_refcount_mffc(aig, root, fanouts, po_refs):
    """Reference: dereferencing from a count of every variable."""
    refs = {v: len(fanouts[v]) + po_refs[v] for v in range(aig.num_vars)}
    cone = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if not aig.is_and(v) or v in cone:
            continue
        cone.add(v)
        for f in aig.fanins(v):
            w = lit_var(f)
            refs[w] -= 1
            if refs[w] == 0:
                stack.append(w)
    return cone


@pytest.fixture()
def diamond():
    """a&b feeding two consumers plus a dead node."""
    aig = Aig()
    a, b, c = aig.add_inputs(3)
    ab = aig.add_and(a, b)
    left = aig.add_and(ab, c)
    right = aig.add_and(ab, lit_neg(c))
    dead = aig.add_and(a, c)
    aig.add_output(left)
    aig.add_output(right)
    return aig, {"ab": ab, "left": left, "right": right, "dead": dead}


class TestCleanup:
    def test_removes_dead_nodes(self, diamond):
        aig, nodes = diamond
        before = aig.num_ands
        clean = cleanup(aig)
        assert clean.num_ands == before - 1
        assert exhaustive_equal(aig, clean)

    def test_keeps_interface(self, diamond):
        aig, _ = diamond
        clean = cleanup(aig)
        assert clean.num_inputs == aig.num_inputs
        assert clean.num_outputs == aig.num_outputs
        assert clean.input_names == aig.input_names
        assert clean.output_names == aig.output_names

    def test_idempotent(self, diamond):
        aig, _ = diamond
        once = cleanup(aig)
        twice = cleanup(once)
        assert structural_signature(once) == structural_signature(twice)

    def test_copy_preserves_function(self, mult_4x4_array):
        assert exhaustive_equal(mult_4x4_array, copy_aig(mult_4x4_array))

    def test_constant_output(self):
        aig = Aig()
        a = aig.add_input()
        aig.add_output(0)
        aig.add_output(1)
        aig.add_output(a)
        clean = cleanup(aig)
        assert clean.outputs[:2] == [0, 1]


class TestReachability:
    def test_reachable_vars(self, diamond):
        aig, nodes = diamond
        reach = reachable_vars(aig)
        assert lit_var(nodes["dead"]) not in reach
        assert lit_var(nodes["ab"]) in reach

    def test_cone_vars_bounded(self, diamond):
        aig, nodes = diamond
        left_var = lit_var(nodes["left"])
        ab_var = lit_var(nodes["ab"])
        cone = cone_vars(aig, left_var, leaves={ab_var})
        assert cone == {left_var}
        cone_full = cone_vars(aig, left_var, leaves=set())
        assert cone_full == {left_var, ab_var}

    def test_transitive_support(self, diamond):
        aig, nodes = diamond
        support = transitive_fanin_support(aig, lit_var(nodes["left"]))
        assert support == set(aig.inputs)


class TestFanoutAndMffc:
    def test_fanout_map(self, diamond):
        aig, nodes = diamond
        consumers, po_refs = fanout_map(aig)
        ab_var = lit_var(nodes["ab"])
        assert sorted(consumers[ab_var]) == sorted(
            [lit_var(nodes["left"]), lit_var(nodes["right"])])
        assert po_refs[lit_var(nodes["left"])] == 1

    def test_mffc_excludes_shared(self, diamond):
        aig, nodes = diamond
        cone = mffc(aig, lit_var(nodes["left"]))
        # ab is shared with `right`, so only `left` itself dies
        assert cone == {lit_var(nodes["left"])}

    def test_mffc_includes_private_chain(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        aig.add_output(abc)
        cone = mffc(aig, lit_var(abc))
        assert cone == {lit_var(ab), lit_var(abc)}


    @pytest.mark.parametrize("design", [("SP-AR-RC", 4, "none"),
                                        ("BP-WT-CL", 4, "none"),
                                        ("SP-DT-LF", 6, "dc2")])
    def test_mffc_matches_full_refcount(self, design):
        architecture, width, script = design
        aig = optimize(generate_multiplier(architecture, width), script)
        fanouts, po_refs = fanout_map(aig)
        for v in aig.and_vars():
            assert mffc(aig, v, fanouts, po_refs) == full_refcount_mffc(
                aig, v, fanouts, po_refs), v


class TestInvariants:
    def test_acyclic_check(self, mult_4x4_dadda):
        assert check_acyclic(mult_4x4_dadda)

    def test_signature_differs_on_function_change(self):
        a1 = Aig()
        x, y = a1.add_inputs(2)
        a1.add_output(a1.and_(x, y))
        a2 = Aig()
        x, y = a2.add_inputs(2)
        a2.add_output(a2.or_(x, y))
        assert structural_signature(a1) != structural_signature(a2)
