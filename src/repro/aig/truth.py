"""Truth-table computation for small cones and standard function tables.

Truth tables are plain integers with ``2**k`` significant bits; bit ``m``
is the function value for the input minterm ``m`` (leaf 0 is the least
significant input of the minterm index).
"""

from __future__ import annotations

from repro.errors import AigError


def _computed_pattern(position, num_vars):
    width = 1 << num_vars
    block = 1 << position
    pattern = 0
    bit = block
    chunk = (1 << block) - 1
    while bit < width:
        pattern |= chunk << bit
        bit += 2 * block
    return pattern


# Up to the largest cut any pass uses (``refactor`` with k=8), patterns
# and masks are table lookups: the cofactor helpers below ask for them
# hundreds of thousands of times per optimization script.
_MAX_TABLE_VARS = 8
_PATTERNS = [tuple(_computed_pattern(pos, k) for pos in range(k))
             for k in range(_MAX_TABLE_VARS + 1)]
_MASKS = [(1 << (1 << k)) - 1 for k in range(_MAX_TABLE_VARS + 1)]


def var_pattern(position, num_vars):
    """Truth table of input variable ``position`` among ``num_vars``."""
    if 0 <= position < num_vars <= _MAX_TABLE_VARS:
        return _PATTERNS[num_vars][position]
    return _computed_pattern(position, num_vars)


def var_patterns(num_vars):
    """``var_pattern(pos, num_vars)`` for every position, as a tuple."""
    if 0 <= num_vars <= _MAX_TABLE_VARS:
        return _PATTERNS[num_vars]
    return tuple(_computed_pattern(pos, num_vars) for pos in range(num_vars))


def tt_mask(num_vars):
    if 0 <= num_vars <= _MAX_TABLE_VARS:
        return _MASKS[num_vars]
    return (1 << (1 << num_vars)) - 1


def cone_truth_table(aig, root_var, leaves):
    """Truth table of ``root_var`` as a function of the ordered ``leaves``.

    Every path from the root must terminate at a leaf (or the constant);
    otherwise an :class:`AigError` is raised.

    Single-pass iterative DFS over the raw fan-in arrays; techmap and
    refactor call it for the cuts they pick.
    """
    k = len(leaves)
    mask = tt_mask(k)
    values = {0: 0}
    values.update(zip(leaves, var_patterns(k)))
    root = root_var
    cached = values.get(root)
    if cached is not None:
        return cached & mask
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    first_and = len(aig._inputs) + 1
    get = values.get
    if root >= first_and:
        # depth-1 fast path: half-adder carries and many matcher probes
        # are a single AND over the leaves — skip the DFS bookkeeping
        f0 = fanin0[root]
        f1 = fanin1[root]
        a = get(f0 >> 1)
        b = get(f1 >> 1)
        if a is not None and b is not None:
            if f0 & 1:
                a ^= mask
            if f1 & 1:
                b ^= mask
            return a & b & mask
    stack = [root]
    push = stack.append
    while stack:
        v = stack[-1]
        if v in values:
            stack.pop()
            continue
        if v < first_and:
            raise AigError(f"cone of {root} escapes the given leaves at {v}")
        f0 = fanin0[v]
        f1 = fanin1[v]
        a = get(f0 >> 1)
        b = get(f1 >> 1)
        if a is None or b is None:
            if a is None:
                push(f0 >> 1)
            if b is None:
                push(f1 >> 1)
            continue
        stack.pop()
        if f0 & 1:
            a ^= mask
        if f1 & 1:
            b ^= mask
        values[v] = a & b
    return values[root] & mask


# ----------------------------------------------------------------------
# Canonical tables for atomic-block matching (Section IV of the paper)
# ----------------------------------------------------------------------

AND2 = 0b1000          # x & y over (y x)
XOR2 = 0b0110
XNOR2 = 0b1001
NAND2 = 0b0111
OR2 = 0b1110
NOR2 = 0b0001

XOR3 = 0b10010110      # parity of three inputs
XNOR3 = 0b01101001
MAJ3 = 0b11101000      # majority (full-adder carry)
MIN3 = 0b00010111      # complement of majority


def negate_tt(tt, num_vars):
    return tt ^ tt_mask(num_vars)


def tt_support(tt, num_vars):
    """Positions of variables the function actually depends on."""
    support = []
    for pos in range(num_vars):
        if _cofactor(tt, pos, num_vars, 1) != _cofactor(tt, pos, num_vars, 0):
            support.append(pos)
    return support


def _cofactor(tt, pos, num_vars, value):
    """Cofactor truth table (still over ``num_vars`` inputs)."""
    pattern = var_pattern(pos, num_vars)
    mask = tt_mask(num_vars)
    block = 1 << pos
    if value:
        kept = tt & pattern
        return (kept | (kept >> block)) & mask
    kept = tt & (pattern ^ mask)
    return (kept | (kept << block)) & mask


def cofactor(tt, pos, num_vars, value):
    """Public wrapper of the cofactor computation."""
    return _cofactor(tt, pos, num_vars, value)


def cofactors(tt, num_vars):
    """``[(negative, positive), ...]``: both cofactors of ``tt`` on
    every position, as :func:`cofactor` gives them one at a time."""
    mask = tt_mask(num_vars)
    pairs = []
    for pos, pattern in enumerate(var_patterns(num_vars)):
        block = 1 << pos
        kept = tt & pattern
        positive = (kept | (kept >> block)) & mask
        kept = tt & (pattern ^ mask)
        pairs.append(((kept | (kept << block)) & mask, positive))
    return pairs
