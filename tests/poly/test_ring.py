"""Coefficient-ring semantics: unit tests plus a randomized
differential suite checking that reduction mod p is a ring homomorphism
through every kernel operation (add/sub/mul/substitute/vanishing-reduce
and evaluation)."""

import random

import pytest

from repro.core.vanishing import VanishingRuleSet
from repro.errors import ConfigError, PolynomialError
from repro.poly import EXACT, ModularRing, Polynomial
from repro.poly.ring import is_probable_prime, next_prime_above

P = 97


class TestPrimality:
    def test_small_numbers(self):
        primes = [2, 3, 5, 7, 11, 13, 97, 101, 2_305_843_009_213_693_951]
        for n in primes:
            assert is_probable_prime(n)
        for n in [-7, 0, 1, 4, 9, 91, 561, 2_305_843_009_213_693_953]:
            assert not is_probable_prime(n)

    def test_next_prime_above(self):
        assert next_prime_above(0) == 3
        assert next_prime_above(3) == 5
        assert next_prime_above(89) == 97
        for bits in (61, 66, 129, 977):
            prime = next_prime_above(1 << bits)
            assert prime > 1 << bits
            assert prime % 2 == 1
            assert is_probable_prime(prime)
            ModularRing(prime)  # usable as a coefficient ring modulus


class TestRingObjects:
    def test_exact_defaults(self):
        assert EXACT.modulus is None
        assert EXACT.name == "exact"
        assert EXACT.convert(-5) == -5

    def test_modular_basics(self):
        ring = ModularRing(P)
        assert ring.modulus == P
        assert ring.name == f"modular:{P}"
        assert ring.convert(-1) == P - 1
        assert ring.convert(P + 4) == 4

    def test_modular_validation(self):
        with pytest.raises(ConfigError):
            ModularRing(4)  # even
        with pytest.raises(ConfigError):
            ModularRing(2)  # 2 must be a unit
        with pytest.raises(ConfigError):
            ModularRing(91)  # 7 * 13
        with pytest.raises(ConfigError):
            ModularRing(1)
        with pytest.raises(ConfigError):
            ModularRing("97")
        with pytest.raises(ConfigError):
            ModularRing(True)

    def test_equality_and_hash(self):
        assert ModularRing(P) == ModularRing(P)
        assert ModularRing(P) != ModularRing(101)
        assert ModularRing(P) != EXACT
        assert len({ModularRing(P), ModularRing(P), EXACT}) == 2


class TestPolynomialRing:
    def test_default_is_exact(self):
        poly = Polynomial.variable(3)
        assert poly.ring is EXACT

    def test_constructor_canonicalizes(self):
        ring = ModularRing(P)
        poly = Polynomial({0: -1, 1 << 2: P + 3}, ring=ring)
        assert poly.coefficient(0) == P - 1
        assert poly.coefficient([2]) == 3

    def test_to_ring_round_trip(self):
        poly = Polynomial({0: 200, 1 << 1: -1, 1 << 2: P})
        ring = ModularRing(P)
        modp = poly.to_ring(ring)
        assert modp.ring is ring
        assert modp.coefficient(0) == 200 % P
        assert modp.coefficient([1]) == P - 1
        assert modp.coefficient([2]) == 0  # P ≡ 0 vanishes
        assert poly.to_ring(EXACT) is poly
        assert modp.to_ring(ring) is modp

    def test_mixed_ring_ops_resolve_to_modular(self):
        ring = ModularRing(P)
        exact = Polynomial.constant(100)
        modp = Polynomial.constant(100, ring=ring)
        for combined in (exact + modp, modp + exact, exact * modp):
            assert combined.ring is ring
        assert (exact + modp).coefficient(0) == 200 % P

    def test_different_moduli_refuse_to_combine(self):
        a = Polynomial.constant(1, ring=ModularRing(97))
        b = Polynomial.constant(1, ring=ModularRing(101))
        with pytest.raises(PolynomialError):
            a + b

    def test_evaluate_is_canonical(self):
        ring = ModularRing(3)
        # 2x + y at x=y=1 is 3 ≡ 0 (mod 3): int-nonzero but ring-zero
        poly = Polynomial({1 << 0: 2, 1 << 1: 1}, ring=ring)
        assert poly.evaluate({0: 1, 1: 1}) == 0
        assert poly.evaluate({0: 1, 1: 0}) == 2


def random_polynomial(rng, nvars=10, max_terms=8, coeff_bound=60,
                      ring=None):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = 0
        for var in rng.sample(range(nvars), rng.randint(0, 4)):
            mono |= 1 << var
        terms[mono] = terms.get(mono, 0) + rng.randint(-coeff_bound,
                                                       coeff_bound)
    return Polynomial(terms, ring=ring)


def build_rules(ring=None):
    """A small rule table exercising deletion, shrinking and expansion."""
    rules = VanishingRuleSet()
    rules.add_ha_product_rule(4, False, 5, False)   # delete
    rules.add_ha_product_rule(6, True, 7, False)    # shrink to v7
    rules.add_ha_product_rule(8, True, 9, True)     # expand (3 terms)
    rules.add_carry_absorption_rule(4, False, 0, False)
    if ring is not None:
        rules.set_ring(ring)
    return rules


class TestDifferential:
    """Exact vs ModularRing(p) on >= 200 random polynomials: reducing
    the exact result mod p must equal running the whole operation in
    the modular ring."""

    def test_ring_ops_differential(self):
        rng = random.Random(20260806)
        ring = ModularRing(P)
        for _ in range(120):
            a = random_polynomial(rng)
            b = random_polynomial(rng)
            am = a.to_ring(ring)
            bm = b.to_ring(ring)
            assert (a + b).to_ring(ring) == am + bm
            assert (a - b).to_ring(ring) == am - bm
            assert (a * b).to_ring(ring) == am * bm
            assert (-a).to_ring(ring) == -am
            scalar = rng.randint(-200, 200)
            assert (a * scalar).to_ring(ring) == am * scalar

    def test_substitute_differential(self):
        rng = random.Random(7)
        ring = ModularRing(P)
        for _ in range(60):
            a = random_polynomial(rng)
            replacement = random_polynomial(rng, max_terms=3)
            var = rng.randrange(10)
            exact = a.substitute(var, replacement)
            modular = a.to_ring(ring).substitute(
                var, replacement.to_ring(ring))
            assert exact.to_ring(ring) == modular

    def test_vanishing_reduce_differential(self):
        rng = random.Random(99)
        ring = ModularRing(P)
        exact_rules = build_rules()
        mod_rules = build_rules(ring)
        for _ in range(60):
            poly = random_polynomial(rng, nvars=12)
            exact = exact_rules.apply(poly)
            modular = mod_rules.apply(poly.to_ring(ring))
            assert exact.to_ring(ring) == modular

    def test_evaluate_differential(self):
        rng = random.Random(5)
        ring = ModularRing(P)
        for _ in range(60):
            poly = random_polynomial(rng)
            assignment = {v: rng.getrandbits(1) for v in range(10)}
            exact_value = poly.evaluate(assignment)
            assert poly.to_ring(ring).evaluate(assignment) == exact_value % P
