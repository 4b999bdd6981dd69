"""Randomized differential tests: bitmask kernel vs frozenset oracle.

Every algebraic operation of the packed-integer kernel is replayed on an
independent frozenset implementation (:mod:`tests.poly.frozenset_oracle`)
over hundreds of random polynomials; the results must agree term for
term.  This is the safety net for the monomial representation change —
a single mis-shifted bit shows up here long before it would corrupt a
verification run.
"""

import random

import pytest

from repro.core.vanishing import VanishingRuleSet
from repro.poly import Polynomial, PolyArena
from tests.poly.frozenset_oracle import (
    OraclePoly,
    OracleRuleSet,
    fs_to_mask,
    mask_to_fs,
)

N_VARS = 10
N_POLYS = 240


def random_poly(rng, max_terms=8, max_degree=4, n_vars=N_VARS):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        mono = frozenset(rng.sample(range(n_vars),
                                    rng.randrange(max_degree + 1)))
        coeff = rng.randint(-8, 8)
        terms.append((coeff, mono))
    kernel = Polynomial.from_terms(terms)
    oracle = OraclePoly()
    for coeff, mono in terms:
        oracle = oracle.add(OraclePoly({mono: coeff}))
    return kernel, oracle


def assert_same(kernel, oracle, context=""):
    assert dict(kernel.terms()) == oracle.to_mask_terms(), context


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(20260806)
    return [random_poly(rng) for _ in range(N_POLYS)]


def test_roundtrip_constructors(pairs):
    for kernel, oracle in pairs:
        assert_same(kernel, oracle)


def test_add_matches_oracle(pairs):
    for (ka, oa), (kb, ob) in zip(pairs, reversed(pairs)):
        assert_same(ka + kb, oa.add(ob))


def test_sub_matches_oracle(pairs):
    for (ka, oa), (kb, ob) in zip(pairs, reversed(pairs)):
        assert_same(ka - kb, oa.sub(ob))
        assert_same(kb - ka, ob.sub(oa))


def test_rsub_and_neg_match_oracle(pairs):
    for kernel, oracle in pairs:
        assert_same(3 - kernel, OraclePoly.constant(3).sub(oracle))
        assert_same(-kernel, oracle.neg())


def test_mul_matches_oracle(pairs):
    for (ka, oa), (kb, ob) in zip(pairs[:120], pairs[120:]):
        assert_same(ka * kb, oa.mul(ob))


def test_substitute_matches_oracle(pairs):
    rng = random.Random(7)
    for kernel, oracle in pairs:
        var = rng.randrange(N_VARS)
        krep, orep = random_poly(rng, max_terms=3, max_degree=2)
        assert_same(kernel.substitute(var, krep),
                    oracle.substitute_many({var: orep}),
                    f"substitute v{var}")


def test_evaluate_matches_oracle(pairs):
    rng = random.Random(13)
    for kernel, oracle in pairs:
        assignment = {var: rng.randint(0, 1) for var in range(N_VARS)}
        assert kernel.evaluate(assignment) == oracle.evaluate(assignment)


def test_occurrence_index_matches_decoded_terms(pairs):
    for kernel, oracle in pairs:
        counts = {}
        for mono in oracle.terms:
            for var in mono:
                counts[var] = counts.get(var, 0) + 1
        assert PolyArena.from_polynomial(kernel).occurrence_index() == counts
        for var in range(N_VARS):
            assert kernel.contains_var(var) == (var in counts)


def random_rules(rng, n_vars=N_VARS):
    """A random mix of HA-product, absorption and FA-product rules."""
    rules = VanishingRuleSet()
    for _ in range(rng.randrange(1, 5)):
        var_a, var_b = rng.sample(range(n_vars), 2)
        kind = rng.randrange(3)
        try:
            if kind == 0:
                rules.add_ha_product_rule(var_a, rng.random() < 0.5,
                                          var_b, rng.random() < 0.5)
            elif kind == 1:
                rules.add_carry_absorption_rule(var_a, False,
                                                var_b, rng.random() < 0.5)
            else:
                extras = rng.sample(range(n_vars), 3)
                product = [(1, frozenset(extras))]
                rules.add_fa_product_rule(var_a, rng.random() < 0.5,
                                          var_b, rng.random() < 0.5,
                                          product)
        except ValueError:
            # a randomly drawn right-hand side may reproduce its
            # trigger pair; both implementations reject it identically
            continue
    return rules


def test_vanishing_reduce_matches_oracle():
    rng = random.Random(20260807)
    checked = 0
    for _ in range(N_POLYS):
        rules = random_rules(rng)
        if not len(rules):
            continue
        oracle_rules = OracleRuleSet(rules)
        kernel, oracle = random_poly(rng, max_terms=10, max_degree=5)
        got = rules.apply(kernel)
        want = oracle_rules.apply(oracle)
        assert dict(got.terms()) == want.to_mask_terms()
        checked += 1
    assert checked >= 200


def test_vanishing_reduce_into_matches_oracle_products():
    """The engine's bulk entry point (base | rep products) against a
    per-product oracle reduction, including zero-coefficient pruning."""
    rng = random.Random(29)
    for _ in range(220):
        rules = random_rules(rng)
        if not len(rules):
            continue
        oracle_rules = OracleRuleSet(rules)
        base = fs_to_mask(frozenset(rng.sample(range(N_VARS),
                                               rng.randrange(4))))
        kernel_rep, oracle_rep = random_poly(rng, max_terms=6, max_degree=3)
        coeff = rng.choice([-2, -1, 1, 2, 3])

        out = {}
        rules.reduce_products_into(out, base, kernel_rep._terms.items(),
                                   coeff)
        got = {m: c for m, c in out.items() if c}

        want = {}
        for rep_mono, rep_coeff in oracle_rep.terms.items():
            local = {}
            oracle_rules.reduce(mask_to_fs(base) | rep_mono, 1, local)
            for mono, factor in local.items():
                mask = fs_to_mask(mono)
                want[mask] = want.get(mask, 0) + coeff * rep_coeff * factor
        want = {m: c for m, c in want.items() if c}
        assert got == want
