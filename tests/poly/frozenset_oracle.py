"""Frozenset reference oracle for the packed-bitmask polynomial kernel.

The production kernel (:mod:`repro.poly`) packs monomials into Python
integers; this module is an independent, deliberately naive
reimplementation of the same algebra over ``frozenset`` monomials — the
representation the kernel replaced.  The test suite pits the two against
each other on random inputs (`test_bitmask_vs_oracle`) and end-to-end
through the verifier (`tests/integration/test_oracle_parity`): any
disagreement means the bit-twiddling broke the algebra.

The oracle follows the *documented* semantics of the kernel:

* monomials are variable sets, multiplication is set union
  (multilinearity: ``x**2 = x``);
* vanishing-rule application picks the first violated rule scanning
  variables in ascending order, rules in registration order;
* single-term coefficient-1 rewrites chain without consuming rewrite
  depth; multi-term expansions recurse with a depth cap of 24.
"""

from __future__ import annotations

from repro.poly.monomial import monomial_vars

_MAX_REWRITE_DEPTH = 24


def mask_to_fs(mask):
    """Packed bitmask monomial -> frozenset of variables."""
    return frozenset(monomial_vars(mask))


def fs_to_mask(mono):
    """Frozenset monomial -> packed bitmask."""
    mask = 0
    for var in mono:
        mask |= 1 << var
    return mask


EMPTY = frozenset()


class OraclePoly:
    """A polynomial as ``{frozenset-of-vars: coefficient}``."""

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def from_polynomial(cls, poly):
        return cls({mask_to_fs(m): c for m, c in poly.terms()})

    def to_mask_terms(self):
        """``{bitmask: coefficient}`` for comparison with the kernel."""
        return {fs_to_mask(m): c for m, c in self.terms.items()}

    @classmethod
    def constant(cls, value):
        return cls({EMPTY: value})

    @classmethod
    def variable(cls, var):
        return cls({frozenset((var,)): 1})

    def add(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return OraclePoly(out)

    def neg(self):
        return OraclePoly({m: -c for m, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        out = {}
        for mono_a, coeff_a in self.terms.items():
            for mono_b, coeff_b in other.terms.items():
                mono = mono_a | mono_b
                out[mono] = out.get(mono, 0) + coeff_a * coeff_b
        return OraclePoly(out)

    def scale(self, value):
        return OraclePoly({m: c * value for m, c in self.terms.items()})

    def substitute_many(self, mapping):
        """Simultaneously replace every mapped variable by its oracle
        polynomial (multilinear product of the replacements)."""
        out = OraclePoly()
        for mono, coeff in self.terms.items():
            product = OraclePoly({frozenset(mono - set(mapping)): coeff})
            for var in sorted(mono & set(mapping)):
                product = product.mul(mapping[var])
            out = out.add(product)
        return out

    def evaluate(self, assignment):
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for var in mono:
                value *= assignment[var]
            total += value
        return total


class OracleRuleSet:
    """Frozenset reimplementation of vanishing pair-rule application.

    Built from a compiled :class:`repro.core.vanishing.VanishingRuleSet`
    so rule *compilation* stays shared and only *application* is
    independently reimplemented.
    """

    def __init__(self, rules):
        # rule firings, counted like the kernel's ``removed``/``rewritten``
        self.removed = 0
        self.rewritten = 0
        self.by_var = {}
        for var, entries in rules._by_var.items():
            self.by_var[var] = [
                (partner_bit.bit_length() - 1,
                 [(coeff, mask_to_fs(extra)) for coeff, extra in terms])
                for partner_bit, _pair_mask, terms in entries]

    def violated(self, mono):
        for var in sorted(mono):
            for partner, terms in self.by_var.get(var, ()):
                if partner in mono:
                    return var, partner, terms
        return None

    def reduce(self, mono, coeff, out, depth=0):
        """Accumulate the normal form of ``coeff * mono`` into ``out``
        (a ``{frozenset: factor}`` dict; zero factors are kept)."""
        while True:
            rule = None if depth > _MAX_REWRITE_DEPTH else self.violated(mono)
            if rule is None:
                out[mono] = out.get(mono, 0) + coeff
                return
            var, partner, terms = rule
            base = mono - {var, partner}
            if not terms:
                self.removed += 1
                return
            self.rewritten += 1
            if len(terms) == 1 and terms[0][0] == 1:
                mono = base | terms[0][1]
                continue
            for term_coeff, extra in terms:
                self.reduce(base | extra, coeff * term_coeff, out, depth + 1)
            return

    def apply(self, poly):
        """Normalize an :class:`OraclePoly` against all rules."""
        out = {}
        for mono, coeff in poly.terms.items():
            local = {}
            self.reduce(mono, 1, local)
            for result_mono, factor in local.items():
                out[result_mono] = out.get(result_mono, 0) + coeff * factor
        return OraclePoly(out)
