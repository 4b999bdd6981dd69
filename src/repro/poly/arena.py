"""Flat columnar arena: the rewriting engine's representation of ``SP_i``.

A dict of monomial->coefficient (the
:class:`~repro.poly.polynomial.Polynomial` value type) pays an O(n)
full scan + dict rebuild on *every* substitution attempt: partitioning
``SP_i`` into touched/untouched monomials walks all n entries in Python
bytecode and the merged result is a freshly grown hash table.  Backward
rewriting makes most of that work unnecessary:

* monomials are packed bitmasks, and every monomial containing variable
  ``v`` is an integer ``>= 2**v`` — in columns *sorted by monomial* the
  candidates for a substitution of ``v`` live entirely in the tail
  ``[bisect_left(monos, 1 << v):]``.  Backward rewriting substitutes
  from the outputs (high variables) towards the inputs, so that tail is
  typically a small suffix of ``SP_i`` while the untouched prefix is
  bulk-copied at C speed (one slice), never walked;
* the occurrence index bounds the tail walk further: once ``occ(v)``
  hits have been found the rest of the tail is untouched by
  construction and is bulk-copied too;
* the freshly created products of one substitution are few (touched
  monomials x replacement terms, after vanishing-rule normalization), so
  merging them into the sorted untouched columns is a handful of
  bisects and slice copies — O(k log n) instead of an O(n) dict rebuild.

The occurrence index is carried through the kernels *adaptively*.  When
a substitution's churn (removed + appeared monomials) is small next to
the polynomial — the common backward-rewriting regime — :meth:`rebuild`
updates the index by decoding only the delta, which is far cheaper than
re-deriving it and keeps the partition early-exit armed mid-chain.  But
a component substitutes several variables in sequence (the sum's tail
references the carry, which the next step eliminates again), so on
high-churn workloads per-step deltas pay for work that cancels
end-to-end — and attempts that exceed the growth threshold pay for an
index that is then thrown away.  Above the churn threshold the kernel
therefore drops the index, and nothing re-derives it: the only reader
left is the dynamic order's candidate sort, which counts just the
current candidates' outputs on demand (:meth:`PolyArena.count_vars`,
a decode of those bits over the tail of ``SP_i`` they can occur in).
Either way only the variables of the arena's ``tracked`` mask are
decoded: the engine passes the union of the component outputs — the
only variables it ever looks up — so the primary-input bits that make
up most of a late monomial are never visited, and every derived arena
inherits the mask.  Without a mask every variable is counted.  The
carried index is measured to pay on low-churn runs: always counting on
demand instead (no carried ``occ``, no delta updates, no partition early
exit) made the in-process rewrite of the ``wide-clean`` ledger pool
about 10% slower (0.82-0.84 s -> 0.91-0.95 s summed over five
alternations) and left ``blowup`` unchanged.

An arena is a pair of parallel columns (``monos`` strictly ascending,
``coeffs`` canonical non-zero coefficients in ``ring``) plus a lazily
built occurrence column.  Like :class:`Polynomial`, arenas are immutable
by convention: every kernel returns a new arena and shares the unchanged
column segments via slices, which is what keeps the dynamic engine's
snapshot/backtrack a reference copy.

The arena belongs to :class:`~repro.core.rewriting.RewritingEngine`
alone; everything else speaks :class:`Polynomial`.  The engine converts
twice per run: :meth:`from_polynomial` for ``SP_0`` and
:meth:`to_polynomial` for the remainder.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.poly.polynomial import Polynomial
from repro.poly.ring import EXACT


def _occ_delta(occ, removed, cancelled, added, tracked=-1):
    """New occurrence index from ``occ`` after the monomials in
    ``removed``/``cancelled`` left the polynomial and those in ``added``
    entered it, counting only the variables in the ``tracked`` mask.

    The accounting is multiset-exact even when the same monomial value
    appears on both sides (a replacement product recreating a removed
    monomial decrements and then increments — net zero, as it must be).
    """
    counts = dict(occ)
    for group in (removed, cancelled):
        for mono in group:
            mono &= tracked
            while mono:
                low = mono & -mono
                var = low.bit_length() - 1
                left = counts[var] - 1
                if left:
                    counts[var] = left
                else:
                    del counts[var]
                mono ^= low
    get = counts.get
    for mono in added:
        mono &= tracked
        while mono:
            low = mono & -mono
            var = low.bit_length() - 1
            counts[var] = get(var, 0) + 1
            mono ^= low
    return counts


def merge_sorted_columns(base_m, base_c, fresh, mod):
    """Merge the ``{monomial: coefficient}`` accumulator ``fresh`` into
    sorted columns ``(base_m, base_c)``.

    Returns ``(monos, coeffs, added, cancelled)``: the merged columns
    (still sorted, zero coefficients dropped), the fresh monomials that
    were not present in the base, and the base monomials whose
    coefficient cancelled to zero.  Segments of the base between
    insertion points are copied with slices (C memcpy), so the Python
    work is O(len(fresh) * log n), not O(n).

    Base coefficients must be canonical in the ring; ``fresh`` values
    under a modular ring must be canonical too (the vanishing reducer
    guarantees this), which reduces the collision fold to one
    conditional subtract.
    """
    added = []
    cancelled = []
    if not fresh:
        return base_m, base_c, added, cancelled
    res_m = []
    res_c = []
    blen = len(base_m)
    prev = 0
    for mono in sorted(fresh):
        coeff = fresh[mono]
        if not coeff:
            continue
        j = bisect_left(base_m, mono, prev)
        if j > prev:
            res_m += base_m[prev:j]
            res_c += base_c[prev:j]
        if j < blen and base_m[j] == mono:
            total = base_c[j] + coeff
            if mod is not None and total >= mod:
                total -= mod
            if total:
                res_m.append(mono)
                res_c.append(total)
            else:
                cancelled.append(mono)
            prev = j + 1
        else:
            res_m.append(mono)
            res_c.append(coeff)
            added.append(mono)
            prev = j
    if prev < blen:
        res_m += base_m[prev:]
        res_c += base_c[prev:]
    return res_m, res_c, added, cancelled


class PolyArena:
    """Sorted parallel columns of one multilinear polynomial.

    ``monos`` is strictly ascending (packed-bitmask order), ``coeffs``
    holds the matching non-zero canonical coefficients, ``occ`` is the
    lazily built variable->occurrence-count column (``None`` until
    requested or after a high-churn :meth:`rebuild`, carried through a
    low-churn one).  ``tracked`` is the bitmask of the variables ``occ``
    counts (``-1``, the default, counts every variable); arenas derived
    by the kernels inherit it.  The raw constructor trusts its
    arguments.
    """

    __slots__ = ("monos", "coeffs", "ring", "occ", "tracked")

    def __init__(self, monos, coeffs, ring=None, occ=None, tracked=-1):
        self.monos = monos
        self.coeffs = coeffs
        self.ring = EXACT if ring is None else ring
        self.occ = occ
        self.tracked = tracked

    # ------------------------------------------------------------------
    # Converters (Polynomial is the value type everywhere else)
    # ------------------------------------------------------------------

    @classmethod
    def from_polynomial(cls, poly, tracked=-1):
        """The sorted columns of ``poly`` (one sort)."""
        terms = poly._terms
        monos = sorted(terms)
        return cls(monos, [terms[m] for m in monos], ring=poly.ring,
                   tracked=tracked)

    def to_polynomial(self):
        return Polynomial(dict(zip(self.monos, self.coeffs)), _trusted=True,
                          ring=self.ring)

    def __len__(self):
        return len(self.monos)

    # ------------------------------------------------------------------
    # Occurrence column
    # ------------------------------------------------------------------

    def occurrence_index(self):
        """Tracked variable -> number of monomials containing it (cached;
        the returned dict is the live cache — callers must not mutate
        it)."""
        if self.occ is None:
            self.occ = self.count_vars(self.tracked)
        return self.occ

    def count_vars(self, mask):
        """Variable -> number of monomials containing it, for the
        variables of ``mask`` only (not cached).

        A monomial below ``2**v`` for the lowest ``v`` of ``mask``
        contains none of them, so only the tail from there is decoded,
        and only its ``mask`` bits.
        """
        counts = {}
        if not mask:
            return counts
        get = counts.get
        monos = self.monos
        for mono in monos[bisect_left(monos, mask & -mask):]:
            mono &= mask
            while mono:
                low = mono & -mono
                var = low.bit_length() - 1
                counts[var] = get(var, 0) + 1
                mono ^= low
        return counts

    # ------------------------------------------------------------------
    # Partition kernels
    # ------------------------------------------------------------------

    def partition_var(self, var):
        """Split off the monomials containing ``var``.

        Returns ``(keep_m, keep_c, touched)`` where ``touched`` is a
        list of ``(monomial, coefficient)`` pairs and the keep columns
        stay sorted.  Monomials below ``2**var`` cannot contain the
        variable, so the prefix is slice-copied and only the tail is
        walked; with an occurrence column that tracks ``var`` the walk
        stops after the last hit and bulk-copies the rest.
        """
        bit = 1 << var
        monos = self.monos
        coeffs = self.coeffs
        n = len(monos)
        start = bisect_left(monos, bit)
        if start == n:
            return monos, coeffs, []
        keep_m = monos[:start]
        keep_c = coeffs[:start]
        touched = []
        occ = self.occ
        remaining = (occ.get(var, 0)
                     if occ is not None and self.tracked >> var & 1
                     else None)
        if remaining == 0:
            return monos, coeffs, []
        i = start
        while i < n:
            mono = monos[i]
            if mono & bit:
                touched.append((mono, coeffs[i]))
                if remaining is not None:
                    remaining -= 1
                    if not remaining:
                        i += 1
                        break
            else:
                keep_m.append(mono)
                keep_c.append(coeffs[i])
            i += 1
        if i < n:
            keep_m += monos[i:]
            keep_c += coeffs[i:]
        return keep_m, keep_c, touched

    def partition_pair(self, var_a, var_b):
        """Split off the monomials containing ``var_a`` or ``var_b``
        (the G-part of a compact word-level substitution).

        Returns ``(keep_m, keep_c, part_a, part_b)`` where
        ``part_a``/``part_b`` map the monomial *without* the output
        variable to its coefficient, or ``None`` as soon as a monomial
        contains both variables (rule 1 does not apply then).
        """
        bit_a = 1 << var_a
        bit_b = 1 << var_b
        monos = self.monos
        coeffs = self.coeffs
        n = len(monos)
        start = bisect_left(monos, min(bit_a, bit_b))
        keep_m = monos[:start]
        keep_c = coeffs[:start]
        part_a = {}
        part_b = {}
        occ = self.occ
        tracked = self.tracked
        remaining = (occ.get(var_a, 0) + occ.get(var_b, 0)
                     if occ is not None and tracked >> var_a & 1
                     and tracked >> var_b & 1 else None)
        if remaining == 0:
            return monos, coeffs, part_a, part_b
        i = start
        while i < n:
            mono = monos[i]
            in_a = mono & bit_a
            in_b = mono & bit_b
            if in_a:
                if in_b:
                    return None
                part_a[mono ^ bit_a] = coeffs[i]
            elif in_b:
                part_b[mono ^ bit_b] = coeffs[i]
            else:
                keep_m.append(mono)
                keep_c.append(coeffs[i])
                i += 1
                continue
            if remaining is not None:
                remaining -= 1
                if not remaining:
                    i += 1
                    break
            i += 1
        if i < n:
            keep_m += monos[i:]
            keep_c += coeffs[i:]
        return keep_m, keep_c, part_a, part_b

    # ------------------------------------------------------------------
    # Rebuild after a substitution
    # ------------------------------------------------------------------

    def rebuild(self, keep_m, keep_c, fresh, removed=None):
        """New arena from untouched columns + the ``fresh`` accumulator.

        ``removed`` lists the monomials the caller partitioned out.  When
        this arena carries an occurrence column and the total churn is
        small next to the result, the column is carried forward by
        decoding only the delta; above the threshold (or with no
        ``removed`` information) the result carries no column (see the
        module docstring for why both regimes exist).

        When ``fresh`` rivals the untouched columns in size the per-key
        bisect merge has no segment-copy advantage left, so the columns
        are rebuilt flat: one dict fold plus one C-level sort.
        """
        mod = self.ring.modulus
        if len(fresh) >= len(keep_m):
            terms = dict(zip(keep_m, keep_c))
            get = terms.get
            for mono, coeff in fresh.items():
                if not coeff:
                    continue
                total = get(mono, 0) + coeff
                if mod is not None and total >= mod:
                    total -= mod
                if total:
                    terms[mono] = total
                else:
                    del terms[mono]
            monos = sorted(terms)
            return PolyArena(monos, [terms[m] for m in monos],
                             ring=self.ring, tracked=self.tracked)
        monos, coeffs, added, cancelled = merge_sorted_columns(
            keep_m, keep_c, fresh, mod)
        occ = self.occ
        if occ is not None and removed is not None:
            churn = len(removed) + len(added) + 2 * len(cancelled)
            if churn * 4 <= len(monos):
                return PolyArena(monos, coeffs, ring=self.ring,
                                 occ=_occ_delta(occ, removed, cancelled,
                                                added, self.tracked),
                                 tracked=self.tracked)
        return PolyArena(monos, coeffs, ring=self.ring, tracked=self.tracked)
