"""Specification polynomials (Section II-B of the paper).

The specification polynomial ``SP`` encodes the multiplier's intended
function over its input and output *bits*:

    SP = sum_k 2**k * Z_k  -  (sum_i 2**i * A_i) * (sum_j 2**j * B_j)

for an unsigned ``n x m`` multiplier (signed operands use two's-
complement weights, ``-2**(n-1)`` on the top bit).  The circuit is
correct iff every signal assignment consistent with the AIG evaluates
``SP`` to zero — equivalently, iff backward rewriting reduces ``SP`` to
the zero remainder.

Output literals may be complemented in the AIG; the complement is folded
in here via ``Z_k = 1 - z_k``, so the rewriting engine only ever deals
with positive node variables.

The same construction with ``A + B`` in place of ``A * B`` specifies an
adder (:data:`ADDER`); :class:`~repro.core.pipeline.VerifyConfig`'s
``spec`` field selects between the two.
"""

from __future__ import annotations

import dataclasses

from repro.errors import VerificationError
from repro.poly.polynomial import Polynomial


def operand_word_polynomial(variables, signed=False):
    """Word-level polynomial of an operand: ``sum 2**i * v_i`` with a
    negative weight on the sign bit when ``signed``."""
    terms = []
    top = len(variables) - 1
    for i, var in enumerate(variables):
        weight = 1 << i
        if signed and i == top:
            weight = -weight
        terms.append((weight, (var,)))
    return Polynomial.from_terms(terms)


def output_word_polynomial(aig, signed=False):
    """Word-level polynomial of the output vector, complements folded."""
    from repro.core.gatepoly import literal_polynomial

    total = Polynomial.zero()
    top = aig.num_outputs - 1
    for k, out in enumerate(aig.outputs):
        weight = 1 << k
        if signed and k == top:
            weight = -weight
        total = total + literal_polynomial(out) * weight
    return total


@dataclasses.dataclass(frozen=True)
class Specification:
    """What a design is claimed to compute from its two operand words.

    ``combine`` maps the operand word polynomials ``(A, B)`` to the
    claimed output word; ``outputs`` gives the number of output bits a
    ``wa x wb`` design must expose.  A specification with ``wraps`` set
    claims the output word only modulo ``2**W`` (``W`` the design's
    output count): its remainder is decided by divisibility, see
    :meth:`modulus`.  ``operator`` and ``word`` only word messages.
    """

    name: str
    combine: object
    outputs: object
    wraps: bool
    operator: str
    word: str

    def missing_outputs(self, num_outputs, width_a, width_b):
        """The message for a design with too few outputs; None if it
        has enough."""
        needed = self.outputs(width_a, width_b)
        if num_outputs >= needed:
            return None
        return (f"a {width_a}{self.operator}{width_b} {self.name} must "
                f"expose all {needed} {self.word} bits; design has "
                f"{num_outputs} outputs")

    def polynomial(self, aig, width_a, width_b=None, signed=False):
        """The specification polynomial ``Z - combine(A, B)`` of ``aig``.

        Inputs are assumed to be declared operand A first (LSB first)
        then operand B — the layout produced by
        :func:`repro.genmul.generate_multiplier`.
        """
        if width_b is None:
            width_b = aig.num_inputs - width_a
        if width_a < 1 or width_b < 1 or width_a + width_b != aig.num_inputs:
            raise VerificationError(
                f"operand widths {width_a}+{width_b} do not match "
                f"{aig.num_inputs} inputs")
        message = self.missing_outputs(aig.num_outputs, width_a, width_b)
        if message is not None:
            raise VerificationError(message)
        inputs = aig.inputs
        a_word = operand_word_polynomial(inputs[:width_a], signed)
        b_word = operand_word_polynomial(inputs[width_a:], signed)
        return output_word_polynomial(aig, signed) - self.combine(a_word,
                                                                  b_word)

    def modulus(self, aig):
        """``2**W`` when the claim wraps, else None.

        A wrapping design is correct iff every coefficient of its
        remainder is divisible by ``2**W``: a multilinear integer
        polynomial takes only multiples of ``M`` on the Boolean cube iff
        all its coefficients are multiples of ``M`` (DESIGN.md, "The
        adder specification").
        """
        return 1 << aig.num_outputs if self.wraps else None


MULTIPLIER = Specification("multiplier", lambda a, b: a * b,
                           lambda wa, wb: wa + wb, wraps=False,
                           operator="x", word="product")

#: Every generated final-stage adder computes ``(A + B) mod 2**W`` and
#: discards the carry out; a design that exposes the carry is an exact
#: adder, which the same divisibility rule decides exactly (its correct
#: remainder is zero, a buggy one lies in ``(-2**W, 2**W)``).
ADDER = Specification("adder", lambda a, b: a + b,
                      lambda wa, wb: max(wa, wb), wraps=True,
                      operator="+", word="sum")

SPECIFICATIONS = {spec.name: spec for spec in (MULTIPLIER, ADDER)}


def multiplier_specification(aig, width_a, width_b=None, signed=False):
    """The specification polynomial of a multiplier AIG."""
    return MULTIPLIER.polynomial(aig, width_a, width_b, signed)
