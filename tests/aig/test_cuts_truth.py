"""Tests for cut enumeration and cone truth tables."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import Aig, lit_var
from repro.aig.cuts import cut_functions, enumerate_cuts, nontrivial_cuts
from repro.aig.truth import (
    AND2,
    MAJ3,
    XOR2,
    XOR3,
    cofactor,
    cofactors,
    cone_truth_table,
    negate_tt,
    tt_mask,
    tt_support,
    var_pattern,
    var_patterns,
)
from repro.errors import AigError


def loop_var_pattern(position, num_vars):
    """Reference: the pattern built bit block by bit block."""
    width = 1 << num_vars
    block = 1 << position
    pattern = 0
    bit = block
    while bit < width:
        pattern |= ((1 << block) - 1) << bit
        bit += 2 * block
    return pattern


class TestTruthPrimitives:
    def test_var_patterns(self):
        assert var_pattern(0, 2) == 0b1010
        assert var_pattern(1, 2) == 0b1100
        assert var_pattern(0, 3) == 0b10101010

    def test_masks(self):
        assert tt_mask(2) == 0xF
        assert tt_mask(3) == 0xFF

    def test_negate(self):
        assert negate_tt(AND2, 2) == 0b0111

    def test_cofactors(self):
        # f = x0 & x1: cofactor on x0
        assert cofactor(AND2, 0, 2, 1) == 0b1100
        assert cofactor(AND2, 0, 2, 0) == 0

    def test_support(self):
        assert tt_support(AND2, 2) == [0, 1]
        assert tt_support(0b1010, 2) == [0]   # f = x0
        assert tt_support(0b1111, 2) == []


class TestPatternTables:
    """The tabled patterns (up to 8 inputs) and the computed fallback
    (above) agree with the loop they replace."""

    @pytest.mark.parametrize("num_vars", range(13))
    def test_patterns_and_masks_match_the_loop(self, num_vars):
        expected = tuple(loop_var_pattern(pos, num_vars)
                         for pos in range(num_vars))
        assert var_patterns(num_vars) == expected
        assert tuple(var_pattern(pos, num_vars)
                     for pos in range(num_vars)) == expected
        assert tt_mask(num_vars) == (1 << (1 << num_vars)) - 1

    @pytest.mark.parametrize("num_vars", range(11))
    def test_cofactor_pairs_match_single_cofactors(self, num_vars):
        rng = random.Random(num_vars)
        for _ in range(20):
            tt = rng.getrandbits(1 << num_vars)
            assert cofactors(tt, num_vars) == [
                (cofactor(tt, pos, num_vars, 0),
                 cofactor(tt, pos, num_vars, 1))
                for pos in range(num_vars)]


class TestConeTruthTable:
    def test_xor_cone(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        x = aig.xor_(a, b)
        var = lit_var(x)
        tt = cone_truth_table(aig, var, (lit_var(a), lit_var(b)))
        # the variable computes XNOR (the literal is complemented)
        assert tt == negate_tt(XOR2, 2)

    def test_escaping_cone_rejected(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        with pytest.raises(AigError):
            cone_truth_table(aig, lit_var(abc), (lit_var(a),))

    def test_full_adder_tables(self):
        aig = Aig()
        x, y, z = aig.add_inputs(3)
        s, c = aig.full_adder(x, y, z)
        leaves = tuple(lit_var(v) for v in (x, y, z))
        s_tt = cone_truth_table(aig, lit_var(s), leaves)
        c_tt = cone_truth_table(aig, lit_var(c), leaves)
        if s & 1:
            s_tt = negate_tt(s_tt, 3)
        if c & 1:
            c_tt = negate_tt(c_tt, 3)
        assert s_tt == XOR3
        assert c_tt == MAJ3


class TestCutEnumeration:
    def test_trivial_cuts_for_inputs(self, mult_4x4_array):
        cuts = enumerate_cuts(mult_4x4_array, k=3)
        for var in mult_4x4_array.inputs:
            assert cuts[var] == [(var,)]

    def test_cut_leaf_bound(self, mult_4x4_dadda):
        cuts = enumerate_cuts(mult_4x4_dadda, k=3, limit=10)
        for var, var_cuts in cuts.items():
            for cut in var_cuts:
                assert len(cut) <= 3
            assert len(var_cuts) <= 10

    def test_cuts_are_real_cuts(self, mult_4x4_array):
        # every cut must allow a bounded truth-table computation
        cuts = enumerate_cuts(mult_4x4_array, k=3, limit=8)
        for var in mult_4x4_array.and_vars():
            for cut in cuts[var]:
                if cut == (var,):
                    continue
                cone_truth_table(mult_4x4_array, var, cut)  # must not raise

    def test_full_adder_boundary_cut_present(self):
        aig = Aig()
        x, y, z = aig.add_inputs(3)
        s, c = aig.full_adder(x, y, z)
        aig.add_output(s)
        aig.add_output(c)
        cuts = enumerate_cuts(aig, k=3, limit=16)
        boundary = tuple(sorted(lit_var(v) for v in (x, y, z)))
        assert boundary in cuts[lit_var(s)]
        assert boundary in cuts[lit_var(c)]

    def test_nontrivial_cuts_helper(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        ab = aig.add_and(a, b)
        cuts = enumerate_cuts(aig, k=2)
        nt = nontrivial_cuts(cuts, lit_var(ab))
        assert (lit_var(ab),) not in nt
        assert nt

    def test_dominated_cuts_pruned(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        ab = aig.add_and(a, b)
        deeper = aig.add_and(ab, a)  # support still {a, b}
        cuts = enumerate_cuts(aig, k=3, limit=16)
        cut_sets = [set(c) for c in cuts[lit_var(deeper)]]
        # no cut is a strict superset of another
        for i, c1 in enumerate(cut_sets):
            for j, c2 in enumerate(cut_sets):
                if i != j:
                    assert not (c1 < c2)


class TestCutEdgeCases:
    def _chain(self, n):
        """A linear AND chain over n inputs (rich cut space)."""
        aig = Aig()
        lits = aig.add_inputs(n)
        acc = lits[0]
        for lit in lits[1:]:
            acc = aig.add_and(acc, lit)
        aig.add_output(acc)
        return aig, lit_var(acc)

    def test_limit_truncates_cut_lists(self):
        aig, root = self._chain(6)
        full = enumerate_cuts(aig, k=4, limit=16)
        small = enumerate_cuts(aig, k=4, limit=2)
        assert len(full[root]) > 2
        assert len(small[root]) == 2
        # the trivial cut survives truncation and stays first
        assert small[root][0] == (root,)

    def test_limit_without_trivial(self):
        aig, root = self._chain(6)
        cuts = enumerate_cuts(aig, k=4, limit=2, include_trivial=False)
        for var in aig.and_vars():
            assert (var,) not in cuts[var]
            assert len(cuts[var]) <= 2
        # shallow nodes still get their boundary cut; deep ones may run
        # out once truncation cascades, but never exceed the limit
        first_and = next(iter(aig.and_vars()))
        assert cuts[first_and]

    def test_k1_leaves_only_trivial_cuts_on_ands(self):
        aig, root = self._chain(4)
        cuts = enumerate_cuts(aig, k=1, limit=8)
        for var in aig.and_vars():
            assert cuts[var] == [(var,)]

    def test_k1_without_trivial_is_empty_on_ands(self):
        aig, root = self._chain(4)
        cuts = enumerate_cuts(aig, k=1, limit=8, include_trivial=False)
        for var in aig.and_vars():
            assert cuts[var] == []

    def test_zero_and_design(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        aig.add_output(a)
        cuts = enumerate_cuts(aig, k=3)
        for var in aig.inputs:
            assert cuts[var] == [(var,)]
        assert not [v for v in cuts if v not in (0, *aig.inputs)]

    def test_dominated_cut_dropped_not_just_deduplicated(self):
        # AND(AND(a, b), a) has support {a, b}; the 3-leaf merge
        # {a, b, ab} is dominated by {a, b} and must be absent entirely.
        aig = Aig()
        a, b = aig.add_inputs(2)
        ab = aig.add_and(a, b)
        deeper = aig.add_and(ab, a)
        cuts = enumerate_cuts(aig, k=3, limit=16)
        leaves = {lit_var(a), lit_var(b)}
        assert tuple(sorted(leaves)) in cuts[lit_var(deeper)]
        assert tuple(sorted(leaves | {lit_var(ab)})) \
            not in cuts[lit_var(deeper)]


@st.composite
def raw_aigs(draw, max_inputs=5, max_nodes=20):
    """Random AIGs built without structural hashing or simplification:
    complemented edges, fan-ins shared between nodes, a node's two
    fan-ins on the same variable, and the constant as a fan-in."""
    aig = Aig("raw")
    aig.add_inputs(draw(st.integers(1, max_inputs)))
    for _ in range(draw(st.integers(1, max_nodes))):
        num_vars = aig.num_vars
        a = draw(st.integers(0, num_vars - 1))
        b = draw(st.one_of(st.just(a), st.integers(0, num_vars - 1)))
        aig._fanin0.append(2 * a + draw(st.integers(0, 1)))
        aig._fanin1.append(2 * b + draw(st.integers(0, 1)))
    aig.add_output(2 * (aig.num_vars - 1))
    return aig


class TestCutFunctions:
    @given(raw_aigs(), st.sampled_from([1, 2, 3, 24]))
    @settings(max_examples=150, deadline=None)
    def test_matches_cones_and_enumeration(self, aig, limit):
        expected = enumerate_cuts(aig, k=3, limit=limit)
        cut_lists = {}
        for var, leaves, tt in cut_functions(aig, limit=limit):
            cut_lists.setdefault(var, []).append(leaves)
            assert tt == cone_truth_table(aig, var, leaves), (var, leaves)
        assert cut_lists == expected

    def test_full_adder_cut_functions(self):
        aig = Aig()
        x, y, z = aig.add_inputs(3)
        s, c = aig.full_adder(x, y, z)
        boundary = tuple(sorted(lit_var(v) for v in (x, y, z)))
        functions = {(var, leaves): tt
                     for var, leaves, tt in cut_functions(aig)}
        s_tt = functions[lit_var(s), boundary]
        c_tt = functions[lit_var(c), boundary]
        assert (negate_tt(s_tt, 3) if s & 1 else s_tt) == XOR3
        assert (negate_tt(c_tt, 3) if c & 1 else c_tt) == MAJ3
