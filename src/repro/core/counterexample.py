"""Counterexample extraction from a non-zero remainder.

After full backward rewriting the remainder is a multilinear polynomial
over the primary inputs only.  A non-zero multilinear polynomial always
has a Boolean point where it evaluates non-zero; this module finds one by
cofactor descent:

    P = v * A + B;   P1 = A + B (v=1),  P0 = B (v=0)

If both cofactors were the zero polynomial, ``P`` would be zero — so at
least one branch preserves non-zeroness and the descent always succeeds.
The witness is the concrete input vector on which the buggy multiplier
returns a wrong product.

The same descent works with coefficients reduced mod ``M``: if both
cofactors vanish mod ``M`` then so does ``P``.  A wrapping specification
(an adder, correct iff its remainder is divisible by ``2**W``) descends
mod ``2**W``, so its witness is a point where the remainder is not a
multiple of ``2**W`` — a wrong sum, never a correct wrap-around.
"""

from __future__ import annotations

from repro.errors import VerificationError
from repro.poly.polynomial import Polynomial


def reduce_mod(poly, modulus):
    """``poly`` with every coefficient reduced into ``[0, modulus)``."""
    terms = {}
    for mono, coeff in poly.terms():
        coeff %= modulus
        if coeff:
            terms[mono] = coeff
    return Polynomial(terms, _trusted=True)


def find_nonzero_assignment(poly, default=0, modulus=None):
    """An assignment (var -> 0/1) on which ``poly`` evaluates non-zero
    (non-zero mod ``modulus`` when one is given).

    Variables outside the support are set to ``default``.  Raises
    :class:`VerificationError` when the polynomial is zero.
    """
    if modulus is not None:
        poly = reduce_mod(poly, modulus)
    if poly.is_zero():
        raise VerificationError("the zero polynomial has no non-zero point")
    assignment = {}
    current = poly
    while True:
        support = current.support()
        if not support:
            break
        var = min(support)
        cofactor1 = current.substitute(var, Polynomial.one())
        if modulus is not None:
            cofactor1 = reduce_mod(cofactor1, modulus)
        if not cofactor1.is_zero():
            assignment[var] = 1
            current = cofactor1
        else:
            assignment[var] = 0
            current = current.substitute(var, Polynomial.zero())
        if current.is_zero():
            raise VerificationError(
                "cofactor descent lost non-zeroness (internal error)")
    return assignment


def counterexample_for(aig, remainder, width_a, modulus=None):
    """Package a remainder witness as operand input words.

    Returns ``(assignment, a_value, b_value)`` where the assignment maps
    every primary-input variable to a bit.
    """
    assignment = find_nonzero_assignment(remainder, modulus=modulus)
    full = {}
    for var in aig.inputs:
        full[var] = assignment.get(var, 0)
    a_value = 0
    b_value = 0
    for k, var in enumerate(aig.inputs[:width_a]):
        a_value |= full[var] << k
    for k, var in enumerate(aig.inputs[width_a:]):
        b_value |= full[var] << k
    return full, a_value, b_value
