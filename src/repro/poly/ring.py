"""Coefficient rings for the polynomial kernel.

Backward rewriting is ring-agnostic: every identity it applies — node
tail substitution, the compact word-level relation ``G(outs) = F(ins)``,
the vanishing pair rules — holds with *integer* coefficients on every
circuit-consistent assignment, and therefore also holds modulo any
prime.  This module makes the coefficient domain an explicit, swappable
object:

* :class:`ExactIntRing` (the :data:`EXACT` singleton) — Python big-int
  arithmetic, today's semantics and the zero-overhead default;
* :class:`ModularRing` — arithmetic in ``Z/pZ`` for an odd prime ``p``,
  with coefficients kept canonical in ``[0, p)``.

The modular ring comes from "Avoiding Big Integers: Parallel
Multimodular Algebraic Verification of Arithmetic Circuits", run here
with one prime rather than a multimodular schedule.  Soundness is
one-directional by design — a remainder that is *non-zero* mod ``p`` proves the exact
remainder non-zero (the mod-``p`` reduction is a ring homomorphism and
the multilinear normal form is unique over any ring), while a *zero*
remainder mod ``p`` only proves divisibility by ``p``.  So the pipeline
picks one prime above the design's CRT coefficient bound
(:meth:`repro.core.pipeline.Pipeline.coefficient_ring`), where
divisibility by ``p`` forces every coefficient to zero; this module only
provides the arithmetic.

Hot loops do not call the ring per coefficient: they hoist
``ring.modulus`` into a local and branch on ``mod is not None``, so the
exact path pays one pointer test per accumulation and nothing else.
"""

from __future__ import annotations

from repro.errors import ConfigError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n):
    """Deterministic Miller-Rabin for every ``n < 3.3 * 10**24`` (and a
    strong probabilistic test beyond); used to validate moduli."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoefficientRing:
    """Coefficient domain of a :class:`~repro.poly.polynomial.Polynomial`.

    ``modulus`` is ``None`` for the exact integers and an odd prime for
    ``Z/pZ``; hot loops branch on it directly.
    """

    __slots__ = ()

    modulus = None
    name = "exact"

    def convert(self, value):
        """Canonical representative of an integer in this ring."""
        raise NotImplementedError

    def convert_poly(self, poly):
        """``poly`` with every coefficient converted into this ring."""
        return poly.to_ring(self)


class ExactIntRing(CoefficientRing):
    """Arbitrary-precision integer coefficients (the default)."""

    __slots__ = ()

    def convert(self, value):
        return value

    def convert_poly(self, poly):
        return poly

    def __repr__(self):
        return "ExactIntRing()"

    def __eq__(self, other):
        return isinstance(other, ExactIntRing)

    def __hash__(self):
        return hash(ExactIntRing)


class ModularRing(CoefficientRing):
    """Coefficients in ``Z/pZ`` for an odd prime ``p``.

    ``p`` must be an odd prime: the specification polynomial and the
    compact word-level relations divide by 2, so 2 must be a unit, and
    primality makes every non-zero coefficient invertible.
    """

    __slots__ = ("modulus", "name")

    def __init__(self, modulus):
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise ConfigError(
                f"modular ring needs an integer modulus, got {modulus!r}",
                modulus=repr(modulus))
        if modulus < 3 or modulus % 2 == 0:
            raise ConfigError(
                f"modular ring needs an odd prime modulus >= 3, got "
                f"{modulus}", modulus=modulus)
        if not is_probable_prime(modulus):
            raise ConfigError(
                f"modular ring modulus {modulus} is not prime",
                modulus=modulus)
        self.modulus = modulus
        self.name = f"modular:{modulus}"

    def convert(self, value):
        return value % self.modulus

    def __repr__(self):
        return f"ModularRing({self.modulus})"

    def __eq__(self, other):
        return (isinstance(other, ModularRing)
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash((ModularRing, self.modulus))


def next_prime_above(n):
    """Smallest odd (probable) prime strictly greater than ``n``.

    The pipeline uses this to pick a *bound-covering* prime: one prime
    above a design's ``2*B`` decides it in one modular run.  The prime
    gap near ``n`` is ~``ln(n)``, so the scan is a handful of
    Miller-Rabin tests even for thousand-bit bounds.
    """
    candidate = max(3, n + 1) | 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


#: The shared exact ring; identity-compared on hot paths.
EXACT = ExactIntRing()
