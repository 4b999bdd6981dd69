"""Multilinear polynomials over Boolean variables with a pluggable
coefficient ring.

This is the algebra in which all of backward rewriting happens.  A
polynomial is a finite sum ``c_1*M_1 + ... + c_j*M_j`` with coefficients
from a :class:`~repro.poly.ring.CoefficientRing` and multilinear
monomials (Section II-B).  The default ring is the exact integers
(Python's arbitrary precision makes the large coefficients of wide
specification polynomials — ``2**255`` for a 128x128 multiplier —
exact); :class:`~repro.poly.ring.ModularRing` swaps in ``Z/pZ``
arithmetic for a modular run.

Terms are stored in one dict: packed bitmask monomial -> non-zero
canonical coefficient (see :mod:`repro.poly.monomial`).  Monomial
product is ``|``, membership a shift-and-test, and dict probes hash a
machine int.  This is the value type of everything outside the
rewriting hot loop: construction, algebra, evaluation, printing, the
certificate checker and counterexample extraction.  The rewriting
engine keeps its ``SP_i`` in the sorted columns of
:class:`~repro.poly.arena.PolyArena` instead and converts exactly twice
(``SP_0`` in, the remainder out).

Ring threading is branch-hoisted: every operation reads
``ring.modulus`` once into a local and reduces coefficients only when it
is not ``None``, so the exact path pays a single pointer test per
accumulation — never a per-coefficient method call.

Instances are immutable: every operation returns a new polynomial.
"""

from __future__ import annotations

from repro.errors import PolynomialError
from repro.poly.monomial import (
    CONST_MONOMIAL,
    format_monomial,
    monomial_from_iterable,
    monomial_key,
    monomial_vars,
)
from repro.poly.ring import EXACT


def _as_mask(monomial):
    """Coerce a monomial argument: ints are already packed bitmasks,
    anything else is an iterable of variable indices."""
    if isinstance(monomial, int):
        return monomial
    return monomial_from_iterable(monomial)


class Polynomial:
    """An immutable multilinear polynomial over a coefficient ring.

    Use the classmethod constructors; the raw-dict constructor trusts
    its argument when ``_trusted`` is set (no zero-coefficient or type
    checks, keys must already be bitmasks, coefficients already
    canonical in the ring) and is intended for internal hot paths.

    ``ring`` defaults to the shared :data:`~repro.poly.ring.EXACT`
    integers.  Binary operations resolve mixed rings towards the modular
    operand (exact coefficients embed canonically); combining two
    *different* modular rings is an error.  Equality compares the term
    dicts only — ring-tagged views of the same canonical terms compare
    equal, which keeps the exact-path semantics bit-identical to the
    historical integer-only kernel.
    """

    __slots__ = ("_terms", "_ring")

    def __init__(self, terms=None, _trusted=False, ring=None):
        self._ring = EXACT if ring is None else ring
        if terms is None:
            self._terms = {}
        elif _trusted:
            self._terms = terms
        else:
            mod = self._ring.modulus
            clean = {}
            for mono, coeff in dict(terms).items():
                if not isinstance(coeff, int):
                    raise PolynomialError(f"non-integer coefficient {coeff!r}")
                mono = _as_mask(mono)
                if mod is not None:
                    coeff %= mod
                if coeff:
                    total = clean.get(mono, 0) + coeff
                    if mod is not None:
                        total %= mod
                    if total:
                        clean[mono] = total
                    else:
                        clean.pop(mono, None)
            self._terms = clean

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, ring=None):
        return cls({}, _trusted=True, ring=ring)

    @classmethod
    def one(cls, ring=None):
        return cls.constant(1, ring=ring)

    @classmethod
    def constant(cls, value, ring=None):
        if not isinstance(value, int):
            raise PolynomialError(f"non-integer constant {value!r}")
        ring = EXACT if ring is None else ring
        value = ring.convert(value)
        if value == 0:
            return cls.zero(ring=ring)
        return cls({CONST_MONOMIAL: value}, _trusted=True, ring=ring)

    @classmethod
    def variable(cls, var, ring=None):
        return cls({1 << var: 1}, _trusted=True, ring=ring)

    @classmethod
    def from_terms(cls, terms, ring=None):
        """Build from ``(coefficient, monomial)`` pairs; a monomial is a
        variable iterable or an already-packed bitmask."""
        ring = EXACT if ring is None else ring
        mod = ring.modulus
        acc = {}
        for coeff, variables in terms:
            mono = _as_mask(variables)
            total = acc.get(mono, 0) + coeff
            if mod is not None:
                total %= mod
            acc[mono] = total
        return cls({m: c for m, c in acc.items() if c}, _trusted=True,
                   ring=ring)

    @classmethod
    def literal(cls, var, negated, ring=None):
        """The polynomial of an AIG literal: ``x`` or ``1 - x`` (eq. (1))."""
        ring = EXACT if ring is None else ring
        if negated:
            return cls({CONST_MONOMIAL: 1, 1 << var: ring.convert(-1)},
                       _trusted=True, ring=ring)
        return cls.variable(var, ring=ring)

    # ------------------------------------------------------------------
    # Ring plumbing
    # ------------------------------------------------------------------

    @property
    def ring(self):
        """The coefficient ring this polynomial's terms live in."""
        return self._ring

    def to_ring(self, ring):
        """This polynomial with coefficients converted into ``ring``.

        Exact -> modular reduces every coefficient mod ``p``; the
        reverse direction lifts the canonical representatives as-is.
        Returns ``self`` when the ring already matches.
        """
        if ring is self._ring or ring == self._ring:
            return self
        mod = ring.modulus
        if mod is None:
            return Polynomial(dict(self._terms), _trusted=True, ring=ring)
        terms = {}
        for mono, coeff in self._terms.items():
            coeff %= mod
            if coeff:
                terms[mono] = coeff
        return Polynomial(terms, _trusted=True, ring=ring)

    def _resolve_ring(self, other):
        """Common ring of a binary operation, converting the *exact*
        operand when the other is modular.  Returns ``(ring, a, b)``."""
        ra = self._ring
        rb = other._ring
        if ra is rb:
            return ra, self, other
        ma = ra.modulus
        mb = rb.modulus
        if ma is None and mb is None:
            return ra, self, other
        if ma is None:
            return rb, self.to_ring(rb), other
        if mb is None:
            return ra, self, other.to_ring(ra)
        if ma == mb:
            return ra, self, other
        raise PolynomialError(
            f"cannot combine polynomials over different moduli "
            f"({ma} and {mb})")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def is_zero(self):
        return not self

    def __len__(self):
        """Number of monomials — the paper's ``size(SP_i)`` measure."""
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def terms(self):
        """Iterate ``(monomial, coefficient)`` pairs (arbitrary order).

        Monomials are packed bitmasks; decode with
        :func:`repro.poly.monomial.monomial_vars` when variable indices
        are needed.
        """
        return self._terms.items()

    def coefficient(self, monomial):
        """Coefficient of a monomial (0 when absent); accepts a variable
        iterable or a packed bitmask."""
        return self._terms.get(_as_mask(monomial), 0)

    def constant_term(self):
        return self._terms.get(CONST_MONOMIAL, 0)

    def support(self):
        """Set of variables occurring in the polynomial."""
        union = 0
        for mono in self._terms:
            union |= mono
        return set(monomial_vars(union))

    def degree(self):
        if not self:
            return 0
        return max(m.bit_count() for m in self._terms)

    def contains_var(self, var):
        bit = 1 << var
        return any(m & bit for m in self._terms)

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        ring, left, right = self._resolve_ring(other)
        mod = ring.modulus
        if len(left._terms) < len(right._terms):
            small, big = left._terms, right._terms
        else:
            small, big = right._terms, left._terms
        result = dict(big)
        for mono, coeff in small.items():
            total = result.get(mono, 0) + coeff
            if mod is not None:
                total %= mod
            if total:
                result[mono] = total
            else:
                result.pop(mono, None)
        return Polynomial(result, _trusted=True, ring=ring)

    __radd__ = __add__

    def __neg__(self):
        mod = self._ring.modulus
        if mod is None:
            terms = {m: -c for m, c in self._terms.items()}
        else:
            terms = {m: mod - c for m, c in self._terms.items()}
        return Polynomial(terms, _trusted=True, ring=self._ring)

    def __sub__(self, other):
        # single merge pass — no intermediate negated polynomial
        other = self._coerce(other)
        ring, left, right = self._resolve_ring(other)
        mod = ring.modulus
        result = dict(left._terms)
        for mono, coeff in right._terms.items():
            total = result.get(mono, 0) - coeff
            if mod is not None:
                total %= mod
            if total:
                result[mono] = total
            else:
                result.pop(mono, None)
        return Polynomial(result, _trusted=True, ring=ring)

    def __rsub__(self, other):
        other = self._coerce(other)
        ring, left, right = self._resolve_ring(other)
        mod = ring.modulus
        result = dict(right._terms)
        for mono, coeff in left._terms.items():
            total = result.get(mono, 0) - coeff
            if mod is not None:
                total %= mod
            if total:
                result[mono] = total
            else:
                result.pop(mono, None)
        return Polynomial(result, _trusted=True, ring=ring)

    def __mul__(self, other):
        ring = self._ring
        if isinstance(other, int):
            mod = ring.modulus
            if mod is not None:
                other %= mod
            if other == 0:
                return Polynomial.zero(ring=ring)
            if mod is None:
                terms = {m: c * other for m, c in self._terms.items()}
            else:
                terms = {}
                for m, c in self._terms.items():
                    c = c * other % mod
                    if c:
                        terms[m] = c
            return Polynomial(terms, _trusted=True, ring=ring)
        other = self._coerce(other)
        ring, left, right = self._resolve_ring(other)
        mod = ring.modulus
        result = {}
        for ma, ca in left._terms.items():
            for mb, cb in right._terms.items():
                mono = ma | mb
                total = result.get(mono, 0) + ca * cb
                if mod is not None:
                    total %= mod
                if total:
                    result[mono] = total
                else:
                    result.pop(mono, None)
        return Polynomial(result, _trusted=True, ring=ring)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.constant(other, ring=self._ring)
        raise PolynomialError(f"cannot combine polynomial with {other!r}")

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._ring.convert(other)
            return self._terms == ({} if other == 0
                                   else {CONST_MONOMIAL: other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # Substitution — the backward-rewriting primitive
    # ------------------------------------------------------------------

    def substitute(self, var, replacement):
        """Replace every occurrence of ``var`` by ``replacement``.

        This is a single backward-rewriting step: dividing ``SP_i`` by the
        node polynomial ``x - tail`` is equivalent to substituting ``x``
        with ``tail`` (Section II-B).  Idempotence (``x**2 = x``) is
        applied automatically through the bitwise-or monomial product.
        """
        if not isinstance(replacement, Polynomial):
            replacement = self._coerce(replacement)
        ring, this, replacement = self._resolve_ring(replacement)
        if this is not self:
            # rare mixed-ring call: canonicalize self first so the
            # accumulation below only ever sees canonical coefficients
            return this.substitute(var, replacement)
        bit = 1 << var
        touched = []
        result = {}
        for mono, coeff in self._terms.items():
            if mono & bit:
                touched.append((mono, coeff))
            else:
                result[mono] = coeff
        if not touched:
            return self
        mod = ring.modulus
        rep_terms = replacement._terms
        if mod is None:
            for mono, coeff in touched:
                rest = mono ^ bit
                for rm, rc in rep_terms.items():
                    new_mono = rest | rm
                    total = result.get(new_mono, 0) + coeff * rc
                    if total:
                        result[new_mono] = total
                    else:
                        result.pop(new_mono, None)
            return Polynomial(result, _trusted=True, ring=ring)
        # Modular fast path: AIG tails are dominated by coefficients
        # 1 and -1 (canonically ``mod - 1``).  Specializing them turns
        # the 3-digit multiply + division per accumulation into an
        # add/subtract with a single conditional fold back into
        # ``[0, mod)`` — the increment magnitude is below ``mod``, so one
        # correction always suffices.
        neg_one = mod - 1
        for mono, coeff in touched:
            rest = mono ^ bit
            for rm, rc in rep_terms.items():
                new_mono = rest | rm
                if rc == 1:
                    total = result.get(new_mono, 0) + coeff
                    if total >= mod:
                        total -= mod
                elif rc == neg_one:
                    total = result.get(new_mono, 0) - coeff
                    if total < 0:
                        total += mod
                else:
                    total = (result.get(new_mono, 0) + coeff * rc) % mod
                if total:
                    result[new_mono] = total
                else:
                    result.pop(new_mono, None)
        return Polynomial(result, _trusted=True, ring=ring)

    def transform_monomials(self, fn):
        """Apply ``fn(monomial) -> monomial | None`` to every monomial.

        ``None`` deletes the monomial.  Returns ``(polynomial,
        deleted_count, rewritten_count)``; used by vanishing-monomial
        removal.
        """
        mod = self._ring.modulus
        result = {}
        deleted = 0
        rewritten = 0
        for mono, coeff in self._terms.items():
            image = fn(mono)
            if image is None:
                deleted += 1
                continue
            if image != mono:
                rewritten += 1
            total = result.get(image, 0) + coeff
            if mod is not None:
                total %= mod
            if total:
                result[image] = total
            else:
                result.pop(image, None)
        return (Polynomial(result, _trusted=True, ring=self._ring),
                deleted, rewritten)

    # ------------------------------------------------------------------
    # Evaluation & printing
    # ------------------------------------------------------------------

    def evaluate(self, assignment):
        """Evaluate under a Boolean assignment (variable -> 0/1).

        Multilinearity means this is only meaningful for 0/1 values; other
        integers would silently disagree with the ``x**2 = x`` reduction,
        so they are rejected.  The result is canonical in the ring —
        under a modular ring a value of 0 only proves the exact value
        divisible by ``p``.
        """
        total = 0
        for mono, coeff in self._terms.items():
            value = coeff
            while mono:
                low = mono & -mono
                bit = assignment[low.bit_length() - 1]
                if bit not in (0, 1):
                    raise PolynomialError(
                        f"non-Boolean value {bit!r} for v{low.bit_length() - 1}")
                if not bit:
                    value = 0
                    break
                mono ^= low
            total += value
        mod = self._ring.modulus
        if mod is not None:
            total %= mod
        return total

    def sorted_terms(self):
        """Terms in the deterministic print order (degree, then variable
        tuple — the historical frozenset order, so printed polynomials
        are unchanged)."""
        return sorted(self._terms.items(),
                      key=lambda item: monomial_key(item[0]))

    def to_string(self, names=None):
        if not self:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            body = format_monomial(mono, names)
            if mono:
                if coeff == 1:
                    text = body
                elif coeff == -1:
                    text = f"-{body}"
                else:
                    text = f"{coeff}*{body}"
            else:
                text = str(coeff)
            if parts and not text.startswith("-"):
                parts.append("+")
                parts.append(text)
            else:
                parts.append(text)
        return " ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        text = self.to_string()
        if len(text) > 120:
            text = f"<{len(self)} monomials>"
        return f"Polynomial({text})"
