"""Irredundant sum-of-products via the Minato-Morreale ISOP algorithm.

Operates on truth tables represented as integers (see
:mod:`repro.aig.truth`).  The ISOP is the re-synthesis engine of the
refactor/rewrite passes and of the cell decomposer in technology
mapping: a cut function is collapsed to a truth table and rebuilt as a
(usually smaller) AND/OR network.

A cube is a tuple of ``(variable_position, polarity)`` pairs; polarity 1
means the positive literal.  The empty cube is the tautology.
"""

from __future__ import annotations

from repro.aig.truth import cofactor, tt_mask, var_pattern, var_patterns
from repro.errors import ReproError


def isop(on_set, num_vars, upper=None):
    """Compute an irredundant SOP covering ``on_set``.

    ``upper`` is the don't-care upper bound (defaults to ``on_set``: no
    don't cares).  Returns a list of cubes.  The classic invariant
    ``on_set <= cover <= upper`` holds on return.
    """
    if upper is None:
        upper = on_set
    mask = tt_mask(num_vars)
    on_set &= mask
    upper &= mask
    if on_set & ~upper & mask:
        raise ReproError("ISOP lower bound exceeds upper bound")
    cubes, _cover = _isop(on_set, upper, num_vars, num_vars)
    return cubes


def _isop(lower, upper, num_vars, var_count):
    mask = tt_mask(num_vars)
    if lower == 0:
        return [], 0
    if upper == mask:
        return [()], mask
    # Split on the highest variable in the support of (lower, upper):
    # a function depends on ``pos`` when some minterm with that bit clear
    # differs from its partner ``block`` bits up.
    patterns = var_patterns(num_vars)
    var = None
    for pos in range(var_count - 1, -1, -1):
        block = 1 << pos
        if (((lower ^ (lower >> block)) | (upper ^ (upper >> block)))
                & (patterns[pos] ^ mask)):
            var = pos
            break
    if var is None:
        # Constant-insensitive: lower nonzero means cover with tautology.
        return [()], mask

    l0 = cofactor(lower, var, num_vars, 0)
    l1 = cofactor(lower, var, num_vars, 1)
    u0 = cofactor(upper, var, num_vars, 0)
    u1 = cofactor(upper, var, num_vars, 1)

    cubes0, cover0 = _isop(l0 & ~u1 & mask, u0, num_vars, var)
    cubes1, cover1 = _isop(l1 & ~u0 & mask, u1, num_vars, var)
    l_rest = (l0 & ~cover0 & mask) | (l1 & ~cover1 & mask)
    cubes_star, cover_star = _isop(l_rest, u0 & u1, num_vars, var)

    pattern = patterns[var]
    cover = ((cover0 & ~pattern) | (cover1 & pattern)
             | cover_star) & mask
    result = ([cube + ((var, 0),) for cube in cubes0]
              + [cube + ((var, 1),) for cube in cubes1]
              + cubes_star)
    return result, cover


def cubes_to_tt(cubes, num_vars):
    """Truth table covered by a cube list (for validation)."""
    mask = tt_mask(num_vars)
    total = 0
    for cube in cubes:
        value = mask
        for pos, polarity in cube:
            pattern = var_pattern(pos, num_vars)
            value &= pattern if polarity else (pattern ^ mask)
        total |= value
    return total


def build_sop(aig, cubes, leaf_literals):
    """Materialize a cube cover as balanced AND-OR logic in ``aig``.

    ``leaf_literals[pos]`` is the literal for input position ``pos``.
    Returns the output literal.
    """
    products = []
    for cube in cubes:
        literals = []
        for pos, polarity in cube:
            leaf = leaf_literals[pos]
            literals.append(leaf if polarity else aig.not_(leaf))
        products.append(aig.and_many(literals))
    return aig.or_many(products)


def synthesize_tt(aig, tt, leaf_literals, allow_complement=True):
    """Build logic computing ``tt`` over the leaves; tries the ISOP of
    both polarities and keeps the cheaper cover."""
    num_vars = len(leaf_literals)
    mask = tt_mask(num_vars)
    cubes = isop(tt & mask, num_vars)
    if allow_complement:
        cubes_neg = isop((~tt) & mask, num_vars)
        if _cover_cost(cubes_neg) < _cover_cost(cubes):
            return aig.not_(build_sop(aig, cubes_neg, leaf_literals))
    return build_sop(aig, cubes, leaf_literals)


def _cover_cost(cubes):
    """Rough AND/OR node count of a cube cover."""
    and_nodes = sum(max(len(cube) - 1, 0) for cube in cubes)
    or_nodes = max(len(cubes) - 1, 0)
    return and_nodes + or_nodes
