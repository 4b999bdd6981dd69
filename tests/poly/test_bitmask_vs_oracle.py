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
from repro.poly.ring import EXACT, ModularRing
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
    """The reducer's entry point (base | rep products) against a
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
        rules.reduce_expansion_into(out, [(base, coeff)],
                                    kernel_rep._terms.items())
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


def layered_rules(rng, n_vars):
    """Random rules with multi-term and chaining right-hand sides.

    Every term holds only variables below the larger variable of its
    pair, so a rewrite trades that variable for smaller ones and every
    reduction ends; the terms still recreate other rules' pairs (a
    chain).  Triggers sit above or below their partner, and deletions,
    shrinking single terms and multi-term sums are mixed.
    """
    rules = VanishingRuleSet()
    for _ in range(rng.randrange(3, 11)):
        pair = rng.sample(range(1, n_vars), 2)
        below = range(max(pair))

        def term_vars():
            return frozenset(rng.sample(below, rng.randrange(
                min(3, len(below)) + 1)))

        kind = rng.randrange(3)
        if kind == 0:
            terms = []
        elif kind == 1:
            terms = [(1, term_vars())]
        else:
            terms = [(rng.choice([-1, 1, 2]), term_vars())
                     for _ in range(rng.randrange(2, 4))]
        rules.add_rule(pair[0], pair[1], terms)
    return rules


def oracle_products_into(oracle_rules, trigger, out, base, rep_items,
                         coeff_base, mod):
    """The kernel's bookkeeping over oracle normal forms: products with
    no trigger bit accumulate first and keep a zero sum, the reduced
    ones follow and drop a key whose sum cancels."""
    def fold(value):
        return value if mod is None else value % mod

    reduced = []
    for rep_mono, rep_coeff in rep_items:
        mono = base | rep_mono
        if mono & trigger:
            reduced.append((mono, coeff_base * rep_coeff))
        else:
            out[mono] = fold(out.get(mono, 0) + coeff_base * rep_coeff)
    for mono, coeff in reduced:
        local = {}
        oracle_rules.reduce(mask_to_fs(mono), 1, local)
        for mono_fs, factor in local.items():
            key = fs_to_mask(mono_fs)
            value = fold(out.get(key, 0) + coeff * factor)
            if value:
                out[key] = value
            else:
                out.pop(key, None)


@pytest.mark.parametrize("modulus", [None, 10007])
def test_vanishing_masked_products_match_unmasked_and_oracle(modulus):
    """The masked entry point (rule-normalized bases plus
    ``product_masks``) leaves ``out`` — zero entries included — and the
    rule counters exactly as the unmasked call and the oracle do, call
    after call into one accumulator."""
    ring = EXACT if modulus is None else ModularRing(modulus)
    rng = random.Random(20261017)
    n_vars = 12
    clean_with_trigger = 0
    for _ in range(300):
        rules = layered_rules(rng, n_vars)
        rules.set_ring(ring)
        oracle_rules = OracleRuleSet(rules)
        trigger = rules._trigger_mask
        _kernel, oracle_poly = random_poly(rng, max_terms=8, max_degree=6,
                                           n_vars=n_vars)
        bases = [fs_to_mask(mono)
                 for mono in oracle_rules.apply(oracle_poly).terms
                 if oracle_rules.violated(mono) is None]
        kernel_rep, _oracle_rep = random_poly(rng, max_terms=5,
                                              max_degree=4, n_vars=n_vars)
        rep_items = [(mono, coeff if modulus is None else coeff % modulus)
                     for mono, coeff in kernel_rep.terms()]
        masks = rules.product_masks(rep_items)
        masked, unmasked, want = {}, {}, {}
        for mono in bases:
            base = mono & ~(1 << rng.randrange(n_vars))
            coeff = rng.choice([-2, -1, 1, 2, 3])
            for rep_mono, _rep_coeff in rep_items:
                product = base | rep_mono
                if (product & trigger and oracle_rules.violated(
                        mask_to_fs(product)) is None):
                    clean_with_trigger += 1
            start = (rules.removed, rules.rewritten)
            rules.reduce_expansion_into(masked, [(base, coeff)], rep_items,
                                        masks)
            middle = (rules.removed, rules.rewritten)
            rules.reduce_expansion_into(unmasked, [(base, coeff)], rep_items)
            end = (rules.removed, rules.rewritten)
            oracle_start = (oracle_rules.removed, oracle_rules.rewritten)
            oracle_products_into(oracle_rules, trigger, want, base,
                                 rep_items, coeff, modulus)
            oracle_delta = (oracle_rules.removed - oracle_start[0],
                            oracle_rules.rewritten - oracle_start[1])
            assert masked == unmasked == want
            assert (middle[0] - start[0], middle[1] - start[1]) == \
                (end[0] - middle[0], end[1] - middle[1]) == oracle_delta
        assert rules.truncated == 0
    # the filter's interesting case: a clean product that carries a
    # trigger bit (the unmasked call scans it, the masked one does not)
    assert clean_with_trigger > 100


@pytest.mark.parametrize("modulus", [None, 10007])
def test_vanishing_expansion_stops_and_resumes_per_item(modulus):
    """One call over a whole substitution (touched monomials with the
    substituted bit stripped) equals one call per item, also when it is
    stopped at a size limit and resumed from the index it returns: it
    returns right after the first item that takes ``len(out)`` past the
    limit, ticks before every 64th item, and counts the same rule
    firings."""
    ring = EXACT if modulus is None else ModularRing(modulus)
    rng = random.Random(20261019)
    n_vars = 12
    stops = 0
    for _ in range(120):
        rules = layered_rules(rng, n_vars)
        rules.set_ring(ring)
        oracle_rules = OracleRuleSet(rules)
        _kernel, oracle_poly = random_poly(rng, max_terms=8, max_degree=6,
                                           n_vars=n_vars)
        strip = 1 << rng.randrange(n_vars)
        items = [(fs_to_mask(mono) | strip, rng.choice([-2, -1, 1, 2, 3]))
                 for mono in oracle_rules.apply(oracle_poly).terms
                 if oracle_rules.violated(mono) is None]
        items = (items * (1 + 130 // max(len(items), 1)))[:130]
        kernel_rep, _oracle_rep = random_poly(rng, max_terms=5,
                                              max_degree=4, n_vars=n_vars)
        rep_items = [(mono, coeff if modulus is None else coeff % modulus)
                     for mono, coeff in kernel_rep.terms()]
        masks = rules.product_masks(rep_items)

        want, sizes = {}, []
        start = (rules.removed, rules.rewritten)
        for base, coeff in items:
            rules.reduce_expansion_into(want, [(base ^ strip, coeff)],
                                        rep_items, masks)
            sizes.append(len(want))
        counted = (rules.removed - start[0], rules.rewritten - start[1])

        limit = rng.randrange(1, 12)
        got, ticks, k = {}, [], 0
        start = (rules.removed, rules.rewritten)
        while k < len(items):
            before = k
            k = rules.reduce_expansion_into(
                got, items, rep_items, masks, strip=strip, start=k,
                limit=limit, tick=lambda: ticks.append(len(got)))
            # stopped right after the first item past the limit
            past = [j for j in range(before, len(items))
                    if sizes[j] > limit]
            assert k == (past[0] + 1 if past else len(items))
            assert len(got) == sizes[k - 1]
            stops += k < len(items)
        assert got == want
        assert (rules.removed - start[0],
                rules.rewritten - start[1]) == counted
        assert ticks == [sizes[j - 1] if j else 0
                         for j in range(0, len(items), 64)]
    assert stops > 100
