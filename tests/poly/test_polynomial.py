"""Unit tests for the polynomial algebra."""

import pytest

from repro.errors import PolynomialError
from repro.poly import Polynomial, PolyArena, parse_polynomial, VariablePool
from repro.poly.monomial import (
    CONST_MONOMIAL,
    format_monomial,
    monomial,
    monomial_degree,
    monomial_divide_by_var,
    monomial_key,
    monomial_mul,
)


class TestMonomialHelpers:
    def test_idempotent_construction(self):
        assert monomial(1, 1, 2) == monomial(1, 2)

    def test_product_is_union(self):
        assert monomial_mul(monomial(1, 2), monomial(2, 3)) == monomial(1, 2, 3)

    def test_degree(self):
        assert monomial_degree(CONST_MONOMIAL) == 0
        assert monomial_degree(monomial(4, 5)) == 2

    def test_divide(self):
        assert monomial_divide_by_var(monomial(1, 2), 1) == monomial(2)

    def test_key_orders_by_degree_then_vars(self):
        items = [monomial(3), monomial(1, 2), CONST_MONOMIAL, monomial(1)]
        ordered = sorted(items, key=monomial_key)
        assert ordered == [CONST_MONOMIAL, monomial(1), monomial(3),
                           monomial(1, 2)]

    def test_format(self):
        assert format_monomial(CONST_MONOMIAL) == "1"
        assert format_monomial(monomial(2, 1)) == "v1*v2"
        assert format_monomial(monomial(1), {1: "a"}) == "a"


class TestConstruction:
    def test_zero_and_one(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.one() == 1
        assert len(Polynomial.zero()) == 0

    def test_constant(self):
        p = Polynomial.constant(5)
        assert p.constant_term() == 5
        assert Polynomial.constant(0).is_zero()
        with pytest.raises(PolynomialError):
            Polynomial.constant(1.5)

    def test_variable(self):
        v = Polynomial.variable(3)
        assert v.coefficient({3}) == 1
        assert v.support() == {3}

    def test_literal(self):
        pos = Polynomial.literal(2, False)
        neg = Polynomial.literal(2, True)
        assert pos == Polynomial.variable(2)
        assert neg == 1 - Polynomial.variable(2)

    def test_from_terms_merges(self):
        p = Polynomial.from_terms([(2, (1,)), (3, (1,)), (1, ())])
        assert p.coefficient({1}) == 5
        assert p.constant_term() == 1

    def test_from_terms_drops_zero(self):
        p = Polynomial.from_terms([(2, (1,)), (-2, (1,))])
        assert p.is_zero()


class TestRingOperations:
    def test_addition_cancels(self):
        x = Polynomial.variable(1)
        assert (x + (-x)).is_zero()
        assert x + 0 == x

    def test_subtraction(self):
        x, y = Polynomial.variable(1), Polynomial.variable(2)
        assert x - x == Polynomial.zero()
        assert (x - y) + y == x
        assert 1 - x == Polynomial.literal(1, True)

    def test_scalar_multiplication(self):
        x = Polynomial.variable(1)
        assert (3 * x).coefficient({1}) == 3
        assert (x * 0).is_zero()

    def test_product_applies_idempotence(self):
        x = Polynomial.variable(1)
        assert x * x == x
        p = (x + 1) * (x + 1)
        # (x+1)^2 = x^2 + 2x + 1 = 3x + 1 under idempotence
        assert p.coefficient({1}) == 3
        assert p.constant_term() == 1

    def test_distributivity_example(self):
        x, y, z = (Polynomial.variable(k) for k in (1, 2, 3))
        assert x * (y + z) == x * y + x * z

    def test_equality_with_int(self):
        assert Polynomial.constant(7) == 7
        assert Polynomial.zero() == 0
        assert Polynomial.variable(1) != 1

    def test_hashable(self):
        x = Polynomial.variable(1)
        assert hash(x) == hash(Polynomial.variable(1))

    def test_coerce_rejects_junk(self):
        with pytest.raises(PolynomialError):
            Polynomial.variable(1) + "x"


class TestInspection:
    @pytest.fixture()
    def sample(self):
        poly, pool = parse_polynomial("2*a*b - 3*a + 4", VariablePool())
        return poly, pool

    def test_len_counts_monomials(self, sample):
        poly, _ = sample
        assert len(poly) == 3

    # occurrence counts of SP_i live on the rewriting engine's arena
    def test_occurrences(self, sample):
        poly, pool = sample
        occ = PolyArena.from_polynomial(poly).occurrence_index()
        assert occ.get(pool["a"], 0) == 2
        assert occ.get(pool["b"], 0) == 1
        assert occ.get(999, 0) == 0

    def test_occurrence_counts(self, sample):
        poly, pool = sample
        counts = PolyArena.from_polynomial(poly).occurrence_index()
        assert counts == {pool["a"]: 2, pool["b"]: 1}

    def test_degree(self, sample):
        poly, _ = sample
        assert poly.degree() == 2
        assert Polynomial.zero().degree() == 0

    def test_contains_var(self, sample):
        poly, pool = sample
        assert poly.contains_var(pool["a"])
        assert not poly.contains_var(999)


class TestSubstitution:
    def test_substitute_absent_var_is_identity(self):
        x = Polynomial.variable(1)
        assert x.substitute(2, Polynomial.one()) is x

    def test_substitute_constant(self):
        x, y = Polynomial.variable(1), Polynomial.variable(2)
        p = 2 * x * y + y
        assert p.substitute(1, Polynomial.one()) == 3 * y
        assert p.substitute(1, Polynomial.zero()) == y

    def test_substitute_polynomial(self):
        poly, pool = parse_polynomial("a*b", VariablePool())
        rep, pool = parse_polynomial("x + y", pool)
        result = poly.substitute(pool["a"], rep)
        expected, _ = parse_polynomial("x*b + y*b", pool)
        assert result == expected

    def test_substitute_is_division_by_node_polynomial(self):
        # dividing by (a - xy) == substituting a = xy
        poly, pool = parse_polynomial("4*a + a*z", VariablePool())
        rep, pool = parse_polynomial("x*y", pool)
        result = poly.substitute(pool["a"], rep)
        expected, _ = parse_polynomial("4*x*y + x*y*z", pool)
        assert result == expected

    def test_transform_monomials(self):
        poly, pool = parse_polynomial("a*b + a + 7", VariablePool())
        a, b = pool["a"], pool["b"]

        ab = (1 << a) | (1 << b)

        def drop_ab(mono):
            if mono & ab == ab:
                return None
            return mono

        result, deleted, rewritten = poly.transform_monomials(drop_ab)
        assert deleted == 1
        assert rewritten == 0
        assert result == Polynomial.variable(a) + 7


class TestEvaluation:
    def test_boolean_evaluation(self):
        poly, pool = parse_polynomial("2*a*b - a + 1", VariablePool())
        a, b = pool["a"], pool["b"]
        assert poly.evaluate({a: 0, b: 0}) == 1
        assert poly.evaluate({a: 1, b: 0}) == 0
        assert poly.evaluate({a: 1, b: 1}) == 2

    def test_rejects_non_boolean(self):
        poly = Polynomial.variable(1)
        with pytest.raises(PolynomialError):
            poly.evaluate({1: 2})


class TestPrinting:
    def test_zero(self):
        assert str(Polynomial.zero()) == "0"

    def test_deterministic_order(self):
        # order is by degree then variable index (a was declared first)
        poly, pool = parse_polynomial("a + b + a*b", VariablePool())
        names = pool.names()
        assert poly.to_string(names) == "a + b + a*b"
        shuffled, _ = parse_polynomial("a*b + b + a", pool)
        assert shuffled.to_string(names) == "a + b + a*b"

    def test_signs(self):
        poly, pool = parse_polynomial("-a + 2*b - 3", VariablePool())
        assert poly.to_string(pool.names()) == "-3 -a + 2*b"

    def test_repr_compacts_large(self):
        big = Polynomial.from_terms([(1, (k,)) for k in range(100)])
        assert "monomials" in repr(big)
