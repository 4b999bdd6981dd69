"""Reproductions of the paper's worked examples.

* Fig. 1 / Fig. 2 — the 2x2 multiplier and its backward rewriting to the
  zero remainder;
* Eq. (2)/(7)/(8)/(9) — HA and FA word-level relations;
* Example 3 — substituting word-level HA/FA polynomials barely grows
  ``SP_i``;
* Example 6 — the occurrence-count heuristic (k occurrences x
  k-monomial replacement can add k*(k-1) monomials);
* Example 7 — backtracking beats the pure occurrence order.
"""


from repro.core import verify_multiplier
from repro.genmul import generate_multiplier
from repro.poly import (Polynomial, VariablePool, monomial_vars,
                        parse_polynomial)


class TestFig1Fig2:
    def test_2x2_multiplier_verifies(self):
        """Fig. 2: backward rewriting of the 2x2 multiplier ends in the
        zero remainder."""
        aig = generate_multiplier("SP-AR-RC", 2)
        result = verify_multiplier(aig, 2, 2, record_trace=True)
        assert result.ok
        assert result.remainder.is_zero()

    def test_2x2_specification_shape(self):
        """SP = 8Z3 + 4Z2 + 2Z1 + Z0 - (2A1 + A0)(2B1 + B0)."""
        from repro.core.spec import multiplier_specification

        aig = generate_multiplier("SP-AR-RC", 2)
        spec = multiplier_specification(aig, 2, 2)
        # the input product part contributes exactly 4 monomials with
        # coefficients -1, -2, -2, -4 over input pairs
        input_vars = [sorted(monomial_vars(m)) for m, _c in spec.terms()]
        inputs = set(aig.inputs)
        input_part = [(vs, c)
                      for vs, (m, c) in zip(input_vars, spec.terms())
                      if m and set(vs) <= inputs]
        coeffs = sorted(c for _m, c in input_part)
        assert coeffs == [-4, -2, -2, -1]


class TestWordLevelRelations:
    def test_ha_relation_eq2(self):
        """2C + S = X + Y with C = XY and S = X + Y - 2XY."""
        pool = VariablePool()
        x, y = Polynomial.variable(pool["x"]), Polynomial.variable(pool["y"])
        carry = x * y
        total = x + y - 2 * (x * y)
        assert 2 * carry + total == x + y

    def test_fa_relations_eq7_8_9(self):
        pool = VariablePool()
        x, y, z = (Polynomial.variable(pool[n]) for n in "xyz")
        carry = x * y + x * z + y * z - 2 * (x * y * z)
        total = (x + y + z - 2 * (x * y) - 2 * (x * z) - 2 * (y * z)
                 + 4 * (x * y * z))
        assert 2 * carry + total == x + y + z          # eq. (9)
        for bits in range(8):
            assignment = {pool["x"]: bits & 1, pool["y"]: (bits >> 1) & 1,
                          pool["z"]: (bits >> 2) & 1}
            ones = sum(assignment.values())
            assert carry.evaluate(assignment) == (1 if ones >= 2 else 0)
            assert total.evaluate(assignment) == ones % 2


class TestExample3:
    def test_compact_substitution_grows_slowly(self):
        """Substituting an FA word-level polynomial adds at most one
        monomial; an HA adds none (Example 3)."""
        pool = VariablePool()
        sp, pool = parse_polynomial(
            "32*Out5 + 16*Out4 + 8*Out3 + 4*Out2 + 2*Out1 + Out0", pool)
        # F3: 2*Out5 + Out4 = W0 + W1 + W2
        w0, w1, w2 = pool["W0"], pool["W1"], pool["W2"]
        # emulate the compact step: 16*(2*Out5 + Out4) -> 16*(W0+W1+W2)
        after, _ = parse_polynomial(
            "16*W2 + 16*W1 + 16*W0 + 8*Out3 + 4*Out2 + 2*Out1 + Out0", pool)
        assert len(after) == len(sp) + 1
        # H3: 2*W0 + Out3 = W3 + W4
        after2, _ = parse_polynomial(
            "16*W2 + 16*W1 + 8*W3 + 8*W4 + 4*Out2 + 2*Out1 + Out0", pool)
        assert len(after2) == len(after) + 0


class TestExample6:
    def test_worst_case_growth(self):
        pool = VariablePool()
        p, pool = parse_polynomial("a + 4*a*b*c - 2*a*d - 2*a*d*c", pool)
        a = pool["a"]
        replacement, pool = parse_polynomial("x + y + z + x*z", pool)
        # a occurs 4 times; the replacement has 4 monomials: up to
        # k*(k-1) = 12 additional monomials -> 16 total
        grown = p.substitute(a, replacement)
        assert len(grown) == 16

    def test_low_occurrence_first_stays_small(self):
        pool = VariablePool()
        p, pool = parse_polynomial("a + 4*a*b*c - 2*a*d - 2*a*d*c", pool)
        a, b, c, d = (pool[n] for n in "abcd")
        q = p.substitute(b, parse_polynomial("x*y", pool)[0])
        assert len(q) <= 4
        q = q.substitute(c, parse_polynomial("x*z", pool)[0])
        assert len(q) <= 4
        q = q.substitute(d, parse_polynomial("x*y*z", pool)[0])
        assert q == Polynomial.variable(a)
        q = q.substitute(a, parse_polynomial("x + y + z + x*z", pool)[0])
        assert len(q) == 4


class TestExample7:
    def test_backtracking_prefers_the_cheaper_order(self):
        pool = VariablePool()
        p, pool = parse_polynomial("a*b*x + a*b*y - 2*a*b*x*y + a*b + a", pool)
        a, b = pool["a"], pool["b"]
        rep_b, pool = parse_polynomial("m + n - m*n", pool)
        rep_a, pool = parse_polynomial("x*y", pool)

        # substituting b first (4 occurrences) grows to 13 monomials
        after_b = p.substitute(b, rep_b)
        assert len(after_b) == 13
        assert len(after_b.substitute(a, rep_a)) == 4

        # substituting a first (5 occurrences) collapses to 2 monomials
        after_a = p.substitute(a, rep_a)
        assert len(after_a) == 2
        assert len(after_a.substitute(b, rep_b)) == 4

    def test_threshold_backtracking_finds_it(self):
        """Drive Algorithm 2's inner loop on Example 7 directly: with a
        10% threshold the engine must reject the b-first substitution
        and use a-first."""
        from repro.core.components import cone_component
        from repro.core.dynamic import dynamic_backward_rewriting
        from repro.core.rewriting import RewritingEngine
        from repro.core.vanishing import VanishingRuleSet

        pool = VariablePool()
        sp, pool = parse_polynomial(
            "a*b*x + a*b*y - 2*a*b*x*y + a*b + a", pool)
        a, b = pool["a"], pool["b"]
        rep_a, pool = parse_polynomial("x*y", pool)
        rep_b, pool = parse_polynomial("m + n - m*n", pool)
        comps = [
            cone_component(0, "FFC", a, sorted(rep_a.support()), rep_a, {a}),
            cone_component(1, "FFC", b, sorted(rep_b.support()), rep_b, {b}),
        ]
        engine = RewritingEngine(sp, comps, VanishingRuleSet(),
                                 record_trace=True)
        dynamic_backward_rewriting(engine, initial_threshold=0.1)
        # the peak must follow the a-first path (never 13 monomials)
        assert engine.max_size < 13
