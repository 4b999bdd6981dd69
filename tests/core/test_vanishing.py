"""Tests for vanishing-monomial removal and block-implied pair rules.

Every compiled rule is an identity on consistent circuit assignments;
the tests verify this numerically for all polarity combinations and
check the counters used by the Table I "Vanishing Monomials" column.
"""

import itertools

import pytest

from repro.core.vanishing import (
    VanishingRuleSet,
    literal_product_terms,
    rules_from_blocks,
)
from repro.poly import Polynomial

VC, VS, X, Y, Z, M = 1, 2, 3, 4, 5, 6


def ha_consistent_assignments(carry_neg, sum_neg):
    """All assignments of (vc, vs, x, y) consistent with a half adder."""
    out = []
    for x_val, y_val in itertools.product((0, 1), repeat=2):
        c_true = x_val & y_val
        s_true = x_val ^ y_val
        out.append({
            VC: c_true ^ (1 if carry_neg else 0),
            VS: s_true ^ (1 if sum_neg else 0),
            X: x_val, Y: y_val, Z: 0, M: 1,
        })
    return out


class TestHaProductRules:
    @pytest.mark.parametrize("carry_neg", [False, True])
    @pytest.mark.parametrize("sum_neg", [False, True])
    def test_rule_is_identity(self, carry_neg, sum_neg):
        rules = VanishingRuleSet()
        rules.add_ha_product_rule(VC, carry_neg, VS, sum_neg)
        poly = Polynomial.from_terms([
            (3, (VC, VS)), (2, (VC, VS, M)), (1, (VC,)), (5, ()),
        ])
        reduced = rules.apply(poly)
        for assignment in ha_consistent_assignments(carry_neg, sum_neg):
            assert reduced.evaluate(assignment) == poly.evaluate(assignment)

    def test_positive_pair_deletes(self):
        rules = VanishingRuleSet([(VC, False, VS, False)])
        poly = Polynomial.from_terms([(7, (VC, VS)), (1, (VC,))])
        reduced = rules.apply(poly)
        assert reduced == Polynomial.variable(VC)
        assert rules.removed == 1
        assert rules.total_removed == 1

    def test_mixed_polarity_rewrites(self):
        rules = VanishingRuleSet([(VC, False, VS, True)])
        poly = Polynomial.from_terms([(7, (VC, VS))])
        reduced = rules.apply(poly)
        assert reduced == 7 * Polynomial.variable(VC)
        assert rules.rewritten == 1

    def test_untouched_polynomial_returned_identically(self):
        rules = VanishingRuleSet([(VC, False, VS, False)])
        poly = Polynomial.from_terms([(1, (X, Y))])
        assert rules.apply(poly) is poly

    def test_cascading_rules(self):
        # two HA rules where the first rewrite exposes the second pair
        rules = VanishingRuleSet([(VC, False, VS, True), (X, False, Y, False)])
        poly = Polynomial.from_terms([(1, (VC, VS, X, Y))])
        reduced = rules.apply(poly)
        assert reduced.is_zero()


class TestFaProductRules:
    @pytest.mark.parametrize("carry_neg", [False, True])
    @pytest.mark.parametrize("sum_neg", [False, True])
    @pytest.mark.parametrize("input_negs", [
        (False, False, False), (True, False, False), (True, True, True),
    ])
    def test_rule_is_identity(self, carry_neg, sum_neg, input_negs):
        rules = VanishingRuleSet()
        rules.add_fa_product_rule(
            VC, carry_neg, VS, sum_neg,
            literal_product_terms((X, Y, Z), input_negs))
        poly = Polynomial.from_terms([(3, (VC, VS)), (2, (VC, VS, M))])
        reduced = rules.apply(poly)
        for bits in itertools.product((0, 1), repeat=3):
            eff = [b ^ n for b, n in zip(bits, input_negs)]
            c_true = 1 if sum(eff) >= 2 else 0
            s_true = sum(eff) % 2
            assignment = {
                VC: c_true ^ carry_neg, VS: s_true ^ sum_neg,
                X: bits[0], Y: bits[1], Z: bits[2], M: 1,
            }
            assert reduced.evaluate(assignment) == poly.evaluate(assignment)


class TestAbsorptionRules:
    def test_positive_absorption_drops_input(self):
        rules = VanishingRuleSet()
        rules.add_carry_absorption_rule(VC, False, X, False)
        poly = Polynomial.from_terms([(4, (VC, X)), (1, (X,))])
        reduced = rules.apply(poly)
        assert reduced == 4 * Polynomial.variable(VC) + Polynomial.variable(X)

    def test_negated_input_vanishes(self):
        rules = VanishingRuleSet()
        rules.add_carry_absorption_rule(VC, False, X, True)
        poly = Polynomial.from_terms([(4, (VC, X))])
        assert rules.apply(poly).is_zero()

    def test_absorption_is_identity_on_consistent_points(self):
        rules = VanishingRuleSet()
        rules.add_carry_absorption_rule(VC, False, X, False)
        poly = Polynomial.from_terms([(4, (VC, X)), (2, (VC, Y))])
        reduced = rules.apply(poly)
        for x_val, y_val in itertools.product((0, 1), repeat=2):
            assignment = {VC: x_val & y_val, X: x_val, Y: y_val}
            assert reduced.evaluate(assignment) == poly.evaluate(assignment)


class TestRuleSetMechanics:
    def test_rejects_self_pair(self):
        rules = VanishingRuleSet()
        with pytest.raises(ValueError):
            rules.add_rule(VC, VC, [])

    def test_rejects_self_reproducing_rhs(self):
        rules = VanishingRuleSet()
        with pytest.raises(ValueError):
            rules.add_rule(VC, VS, [(1, (VC, VS))])

    def test_len_counts_rules(self):
        rules = VanishingRuleSet([(VC, False, VS, False)])
        assert len(rules) == 1
        rules.add_carry_absorption_rule(VC, False, X, False)
        assert len(rules) == 2

    def test_stats(self):
        rules = VanishingRuleSet([(VC, False, VS, False)])
        rules.apply(Polynomial.from_terms([(1, (VC, VS))]))
        stats = rules.stats()
        assert stats == {"rules": 1, "removed": 1, "rewritten": 0,
                         "truncated": 0}


class TestDepthTruncation:
    def test_truncation_is_counted_and_stops_the_masks(self):
        """A chain of 26 two-term rules ``x_i*y_i = x_{i+1}*y_{i+1} + w``
        recurses one level per rewrite; past the depth limit the 26th
        pair is left unnormalized, counted, and the product masks (which
        assume a normalized ``SP_i``) are no longer handed out."""
        links = 26
        w = 2 * links + 2
        rules = VanishingRuleSet()
        for i in range(links):
            rules.add_rule(2 * i, 2 * i + 1,
                           [(1, (2 * i + 2, 2 * i + 3)), (1, (w,))])
        items = [(0b11, 1)]
        assert rules.product_masks(items) is not None
        out = rules.apply(Polynomial.from_terms([(1, (0, 1))]))
        assert dict(out.terms()) == {(1 << 50) | (1 << 51): 1, 1 << w: 25}
        assert rules.stats() == {"rules": links, "removed": 0,
                                 "rewritten": 25, "truncated": 1}
        assert rules.product_masks(items) is None


class TestRulesFromBlocks:
    def test_compiles_blocks(self, mult_4x4_dadda):
        from repro.core.atomic import detect_atomic_blocks

        blocks = detect_atomic_blocks(mult_4x4_dadda)
        basic = rules_from_blocks(blocks, extended=False)
        extended = rules_from_blocks(blocks, extended=True)
        ha_count = sum(1 for b in blocks if b.kind == "HA")
        assert len(basic) == ha_count
        assert len(extended) > len(basic)
