"""Tests for ISOP and recursive Boolean decomposition."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import Aig
from repro.aig.simulate import exhaustive_truth_tables
from repro.aig.truth import cofactor, tt_mask, var_pattern
from repro.errors import ReproError
from repro.opt.decompose import (
    _decompose,
    build_tree,
    decompose,
    synthesize_best,
    tree_cost,
)
from repro.opt.isop import (
    _isop,
    build_sop,
    cubes_to_tt,
    isop,
    synthesize_tt,
)


def synthesized_tt(builder, tt, num_vars):
    aig = Aig()
    leaves = aig.add_inputs(num_vars)
    aig.add_output(builder(aig, tt, leaves))
    return exhaustive_truth_tables(aig)[0]


def reference_isop(lower, upper, num_vars, var_count):
    """Reference ``_isop`` that finds its split variable by comparing
    the two cofactors of each bound on every position."""
    mask = tt_mask(num_vars)
    if lower == 0:
        return [], 0
    if upper == mask:
        return [()], mask
    var = None
    for pos in range(var_count - 1, -1, -1):
        if (cofactor(lower, pos, num_vars, 0) != cofactor(lower, pos, num_vars, 1)
                or cofactor(upper, pos, num_vars, 0) != cofactor(upper, pos, num_vars, 1)):
            var = pos
            break
    if var is None:
        return [()], mask
    l0 = cofactor(lower, var, num_vars, 0)
    l1 = cofactor(lower, var, num_vars, 1)
    u0 = cofactor(upper, var, num_vars, 0)
    u1 = cofactor(upper, var, num_vars, 1)
    cubes0, cover0 = reference_isop(l0 & ~u1 & mask, u0, num_vars, var)
    cubes1, cover1 = reference_isop(l1 & ~u0 & mask, u1, num_vars, var)
    l_rest = (l0 & ~cover0 & mask) | (l1 & ~cover1 & mask)
    cubes_star, cover_star = reference_isop(l_rest, u0 & u1, num_vars, var)
    pattern = var_pattern(var, num_vars)
    cover = ((cover0 & ~pattern) | (cover1 & pattern) | cover_star) & mask
    return ([cube + ((var, 0),) for cube in cubes0]
            + [cube + ((var, 1),) for cube in cubes1]
            + cubes_star), cover


class TestIsop:
    @pytest.mark.parametrize("num_vars", [0, 1, 2, 3, 4])
    def test_exhaustive_small(self, num_vars):
        mask = tt_mask(num_vars)
        space = range(mask + 1) if num_vars <= 3 else \
            random.Random(0).sample(range(mask + 1), 200)
        for tt in space:
            cubes = isop(tt, num_vars)
            assert cubes_to_tt(cubes, num_vars) == tt

    @pytest.mark.parametrize("num_vars", [3, 5, 7])
    def test_matches_the_cofactor_comparing_reference(self, num_vars):
        rng = random.Random(num_vars)
        for _ in range(50):
            lower = rng.getrandbits(1 << num_vars)
            upper = lower | rng.getrandbits(1 << num_vars)
            var_count = rng.randint(1, num_vars)
            assert _isop(lower, upper, num_vars, var_count) == \
                reference_isop(lower, upper, num_vars, var_count)

    def test_constants(self):
        assert isop(0, 3) == []
        assert isop(tt_mask(3), 3) == [()]

    def test_dont_cares_respected(self):
        lower = 0b1000
        upper = 0b1010
        cubes = isop(lower, 2, upper=upper)
        cover = cubes_to_tt(cubes, 2)
        assert cover & ~upper & 0xF == 0
        assert cover & lower == lower

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ReproError):
            isop(0b1111, 2, upper=0b0001)

    def test_irredundancy_on_known_function(self):
        # x | y needs exactly two cubes
        assert len(isop(0b1110, 2)) == 2


class TestDecompose:
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=200)
    def test_tree_matches_function_4vars(self, tt):
        aig = Aig()
        leaves = aig.add_inputs(4)
        tree = decompose(tt, 4)
        aig.add_output(build_tree(aig, tree, leaves))
        assert exhaustive_truth_tables(aig)[0] == tt

    def test_xor_costs_less_than_sop(self):
        from repro.aig.truth import XOR3
        from repro.opt.isop import _cover_cost

        tree = decompose(XOR3, 3)
        assert tree_cost(tree) < _cover_cost(isop(XOR3, 3))
        assert tree_cost(tree) == 6

    @pytest.mark.parametrize("num_vars,seed", [(3, None), (6, 1)])
    def test_carried_cost_is_tree_cost(self, num_vars, seed):
        if seed is None:
            space = range(tt_mask(num_vars) + 1)
        else:
            rng = random.Random(seed)
            space = [rng.getrandbits(1 << num_vars) for _ in range(60)]
        for tt in space:
            memo = {}
            tree, cost = _decompose(tt, num_vars, memo)
            assert tree == decompose(tt, num_vars)
            assert cost == tree_cost(tree)
            for sub_tree, sub_cost in memo.values():
                assert sub_cost == tree_cost(sub_tree)

    def test_cost_is_exact_node_count_on_tree_functions(self):
        # AND(a, b): one node
        tree = decompose(0b1000, 2)
        assert tree_cost(tree) == 1

    @pytest.mark.parametrize("num_vars", [1, 2, 3])
    def test_synthesize_best_exhaustive(self, num_vars):
        mask = tt_mask(num_vars)
        for tt in range(mask + 1):
            assert synthesized_tt(synthesize_best, tt, num_vars) == tt

    def test_synthesize_best_random_5vars(self):
        rng = random.Random(9)
        for _ in range(40):
            tt = rng.getrandbits(32) & tt_mask(5)
            assert synthesized_tt(synthesize_best, tt, 5) == tt

    def test_shared_plans_build_what_fresh_calls_build(self):
        rng = random.Random(4)
        functions = [(rng.getrandbits(1 << n), n)
                     for n in (2, 3, 4, 5, 6) for _ in range(8)]
        shared, fresh = Aig(), Aig()
        shared_leaves = shared.add_inputs(6)
        fresh_leaves = fresh.add_inputs(6)
        plans = {}
        for tt, n in functions + functions:
            shared.add_output(synthesize_best(shared, tt,
                                              shared_leaves[:n], plans))
            fresh.add_output(synthesize_best(fresh, tt, fresh_leaves[:n]))
        assert len(plans) <= len(functions)
        assert shared.outputs == fresh.outputs
        assert shared.num_ands == fresh.num_ands

    def test_synthesize_tt_matches(self):
        rng = random.Random(2)
        for _ in range(40):
            tt = rng.getrandbits(16) & tt_mask(4)
            assert synthesized_tt(synthesize_tt, tt, 4) == tt

    def test_synthesize_best_never_worse_than_sop(self):
        rng = random.Random(5)
        for _ in range(30):
            tt = rng.getrandbits(16)
            a1 = Aig()
            leaves = a1.add_inputs(4)
            synthesize_best(a1, tt, leaves)
            a2 = Aig()
            leaves = a2.add_inputs(4)
            build_sop(a2, isop(tt & 0xFFFF, 4), leaves)
            assert a1.num_ands <= a2.num_ands
