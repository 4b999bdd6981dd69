"""Components: the substitution units of backward rewriting.

Definition 1 of the paper: atomic blocks, converging gate cones (CGCs)
and fanout-free cones (FFCs) are *components*.  A CGC/FFC has a single
output; an atomic block has several (carry and sum).  Every component
carries

* per-output replacement polynomials over its input variables
  (eq. (4)/(5)), and
* for atomic blocks, the compact word-level relation
  ``G(outputs) = F(inputs)`` (eq. (6)) — e.g. ``2C + S = X + Y + Z`` for
  a full adder — through which substitution barely grows ``SP_i``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.poly.polynomial import Polynomial


@dataclass
class Component:
    """One substitution unit.

    ``substitutions`` maps each output variable to its replacement
    polynomial over the component's inputs.  ``compact`` is ``None`` or a
    pair ``(g_coeffs, f_poly)`` with ``g_coeffs`` a dict
    ``{output_var: coefficient}`` such that
    ``sum(coeff * var) = f_poly`` holds on every consistent assignment.
    """

    index: int
    kind: str                    # "HA" | "FA" | "CGC" | "FFC"
    output_vars: tuple
    input_vars: tuple
    substitutions: dict
    compact: object = None
    internal: frozenset = field(default_factory=frozenset)

    @property
    def is_atomic(self):
        return self.kind in ("HA", "FA")

    def describe(self):
        outs = ",".join(f"v{v}" for v in self.output_vars)
        ins = ",".join(f"v{v}" for v in self.input_vars)
        return f"{self.kind}#{self.index}({ins} -> {outs})"


#: Placeholder variables of a block template: inputs 0..2, carry 3.
_CARRY_SLOT = 3


@functools.cache
def _block_template(kind, negations, carry_negated, sum_negated):
    """The sum and carry replacements and the compact right-hand side
    of a block, over placeholder variables, as ``(monomial, coeff)``
    tuples in term order.

    Substituting distinct variables for the placeholders maps equal
    monomials to equal monomials, so an instance has the same terms in
    the same order as the arithmetic below run on the real variables.
    """
    literals = [Polynomial.literal(slot, neg)
                for slot, neg in enumerate(negations)]
    x, y = literals[0], literals[1]
    if kind == "HA":
        carry_true = x * y
        rhs = x + y
    else:
        z = literals[2]
        xy, xz, yz = x * y, x * z, y * z
        carry_true = xy + xz + yz - 2 * (xy * z)
        rhs = x + y + z

    # Per-output replacement for the AIG variables (eq. (5)).  The sum is
    # NOT replaced by its degree-3 parity polynomial: the block's own
    # word-level relation gives the linear form
    #     S = (X' + Y' [+ Z']) - 2*C
    # in terms of the *carry variable*, which keeps the fallback
    # substitution (when the compact pattern is absent from SP_i) from
    # blowing up SP_i with parity products.  The engine substitutes the
    # sum first, then eliminates the carry variable it introduced.
    carry_sub = (1 - carry_true) if carry_negated else carry_true
    sum_linear = rhs - 2 * Polynomial.literal(_CARRY_SLOT, carry_negated)
    sum_sub = (1 - sum_linear) if sum_negated else sum_linear

    # Compact relation 2C + S = rhs (eq. (6)), polarity folded:
    #   C = vc or (1 - vc);  S = vs or (1 - vs)
    f_poly = rhs
    if carry_negated:
        f_poly = f_poly - 2
    if sum_negated:
        f_poly = f_poly - 1
    return tuple(tuple(poly.terms()) for poly in (sum_sub, carry_sub, f_poly))


def atomic_block_component(index, block):
    """Build the component of a detected HA/FA.

    Handles polarity on both sides: negated inputs enter the word-level
    relation as ``X' = 1 - x`` and a negated output means the AIG
    variable carries the complement of the true carry/sum.  The
    polynomials are instances of the block's polarity template.
    """
    negations = getattr(block, "input_negations", None)
    if negations is None:
        negations = (False,) * len(block.inputs)
    sum_terms, carry_terms, f_terms = _block_template(
        block.kind, tuple(negations), block.carry_negated,
        block.sum_negated)
    bits = [1 << var for var in block.inputs]
    bits += [0] * (_CARRY_SLOT - len(bits)) + [1 << block.carry_var]
    masks = [0]
    for slot_mask in range(1, 1 << len(bits)):
        low = slot_mask & -slot_mask
        masks.append(masks[slot_mask ^ low] | bits[low.bit_length() - 1])

    def instance(terms):
        return Polynomial({masks[mono]: coeff for mono, coeff in terms},
                          _trusted=True)

    g_coeffs = {block.carry_var: -2 if block.carry_negated else 2,
                block.sum_var: -1 if block.sum_negated else 1}

    # Substitution order matters: the sum's linear form references the
    # carry variable, so the sum must be eliminated first (the engine
    # follows the insertion order of this mapping).
    return Component(
        index=index,
        kind=block.kind,
        output_vars=(block.carry_var, block.sum_var),
        input_vars=tuple(block.inputs),
        substitutions={block.sum_var: instance(sum_terms),
                       block.carry_var: instance(carry_terms)},
        compact=(g_coeffs, instance(f_terms)),
        internal=block.internal,
    )


def cone_component(index, kind, root_var, input_vars, poly, internal):
    """Build a single-output component (CGC or FFC, eq. (4))."""
    return Component(
        index=index,
        kind=kind,
        output_vars=(root_var,),
        input_vars=tuple(sorted(input_vars)),
        substitutions={root_var: poly},
        compact=None,
        internal=frozenset(internal),
    )
