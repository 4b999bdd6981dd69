"""Vanishing-monomial removal and block-implied rewrite rules
(Algorithm 1, line 7).

For a half adder with true outputs ``C = X'*Y'`` and ``S = X' + Y' -
2*X'*Y'`` the product ``C*S`` is identically zero on every consistent
assignment — monomials containing both outputs are *vanishing monomials*
([10]).  Beyond the classic HA rule this module compiles the whole family
of block-implied pair identities used by the RevSCA line of tools [13]:

* HA product:     ``C * S = 0``
* HA absorption:  ``C * X' = C``       (the carry implies its inputs)
* FA product:     ``C * S = X'*Y'*Z'`` (both set only when all three are)
* FA absorption:  ``C * X'*Y' = X'*Y'`` (two set inputs imply the carry)

Each identity is compiled to a *pair rule*: a pair of variables that,
when both occur in a monomial, is replaced by a short polynomial.  Output
and input polarities are folded in at compilation time, so application is
a single pass over the monomials regardless of how many rules exist.

Removing vanishing monomials *early* — inside cone polynomials and after
every global substitution — is what keeps backward rewriting from
exploding on non-trivial multipliers.

The reducer skips rule scans whose outcome is already known, without
changing which rules fire or in what order:

* *product filter* — ``SP_i`` is kept rule-normalized, so the base of a
  substitution product (a touched monomial minus the substituted
  variable) violates no rule, and ``base | rep`` violates one iff it
  meets the *partner mask* of ``rep`` (:meth:`VanishingRuleSet.
  product_masks`, computed once per substitution);
* *resumed scan* — when a rule fires at trigger bit ``a`` with
  right-hand term ``E``, no trigger bit below ``a`` had a partner in the
  monomial, so the next scan covers only the bits from ``a`` up, ``E``
  and the triggers with a partner in ``E``.
"""

from __future__ import annotations

import logging
import sys
from itertools import repeat

from repro.errors import RuleError
from repro.poly.monomial import monomial_from_iterable
from repro.poly.polynomial import Polynomial
from repro.poly.ring import EXACT

log = logging.getLogger("repro.core.vanishing")

_MAX_REWRITE_DEPTH = 24
_NO_LIMIT = sys.maxsize


def _extra_mask(extra):
    """Rule right-hand sides accept variable iterables or packed masks."""
    if isinstance(extra, int):
        return extra
    return monomial_from_iterable(extra)


class VanishingRuleSet:
    """Compiled pair rules with removal counters.

    A rule for the pair ``(a, b)`` is a list of ``(coeff, extra_vars)``
    terms: every monomial ``m ⊇ {a, b}`` is replaced by
    ``sum(coeff * (m - {a, b}) | extra_vars)``.  The empty list deletes
    the monomial (the classic vanishing case).

    Everything is compiled to bitmasks: whether *any* rule can fire on a
    monomial is one ``&`` against the trigger mask, and firing a rule is
    two more bitwise ops — this check runs on every monomial the
    rewriting engine ever creates.  The scan tables are built once,
    lazily, after the last rule is added (:meth:`_compile`).
    """

    def __init__(self, pairs=()):
        # var -> list of (partner_bit, pair_mask, terms); terms are
        # (coeff, extra_mask) pairs
        self._by_var = {}
        self._trigger_mask = 0
        self._count = 0
        # scan tables, None until the first reduction (see _compile)
        self._by_low = None
        self._union_by_low = None
        self._rescan_of = None
        self._scan_terms_of = None
        self.removed = 0
        self.rewritten = 0
        # monomials left unnormalized past _MAX_REWRITE_DEPTH
        self.truncated = 0
        # optional heartbeat (repro.obs.live): called every
        # ``_pulse_every`` reduced items so a watchdog keeps breathing
        # through one giant normalization; None costs one check per item
        self._pulse = None
        self._pulse_every = 0
        self._pulse_acc = 0
        # coefficient ring the reducers accumulate in; rules themselves
        # are integer identities and stay ring-free
        self.ring = EXACT
        for carry_var, carry_neg, sum_var, sum_neg in pairs:
            self.add_ha_product_rule(carry_var, carry_neg, sum_var, sum_neg)

    def __len__(self):
        return self._count

    # ------------------------------------------------------------------
    # Rule compilation
    # ------------------------------------------------------------------

    def add_rule(self, var_a, var_b, terms):
        """Register ``var_a * var_b = sum(coeff * extra_vars)`` (with the
        pair removed from the monomial before the extras are added).
        ``extra_vars`` entries may be variable iterables or packed
        bitmasks."""
        if var_a == var_b:
            raise RuleError("pair rules need two distinct variables",
                            var=var_a)
        pair_mask = (1 << var_a) | (1 << var_b)
        terms = [(coeff, _extra_mask(extra)) for coeff, extra in terms
                 if coeff]
        for coeff, extra in terms:
            if extra & pair_mask == pair_mask:
                raise RuleError(
                    "rule right-hand side reproduces its trigger",
                    var_a=var_a, var_b=var_b)
        self._by_var.setdefault(var_a, []).append(
            (1 << var_b, pair_mask, terms))
        self._trigger_mask |= 1 << var_a
        self._count += 1
        self._by_low = self._union_by_low = None
        self._rescan_of = self._scan_terms_of = None

    def add_ha_product_rule(self, carry_var, carry_neg, sum_var, sum_neg):
        """``C_true * S_true = 0`` with polarities folded into var terms."""
        # vc*vs expressed through C,S: vc = C or 1-C, vs = S or 1-S.
        # Using C*S = 0:
        #   (+,+): vc*vs = 0
        #   (+,-): vc*vs = C(1-S) = C = vc
        #   (-,+): vc*vs = S = vs
        #   (-,-): vc*vs = 1 - C - S = vc + vs - 1
        if not carry_neg and not sum_neg:
            terms = []
        elif not carry_neg and sum_neg:
            terms = [(1, {carry_var})]
        elif carry_neg and not sum_neg:
            terms = [(1, {sum_var})]
        else:
            terms = [(1, {carry_var}), (1, {sum_var}), (-1, ())]
        self.add_rule(carry_var, sum_var, terms)

    def add_fa_product_rule(self, carry_var, carry_neg, sum_var, sum_neg,
                            input_literal_terms):
        """``C_true * S_true = X'*Y'*Z'`` for a full adder.

        ``input_literal_terms`` is the expansion of the input-literal
        product as ``(coeff, var-set)`` pairs (input polarities already
        folded in by the caller).
        """
        product = list(input_literal_terms)
        if not carry_neg and not sum_neg:
            terms = product
        elif not carry_neg and sum_neg:
            # vc*vs = C - C*S = vc - P
            terms = [(1, {carry_var})] + [(-c, m) for c, m in product]
        elif carry_neg and not sum_neg:
            terms = [(1, {sum_var})] + [(-c, m) for c, m in product]
        else:
            terms = ([(1, {carry_var}), (1, {sum_var}), (-1, ())]
                     + list(product))
        self.add_rule(carry_var, sum_var, terms)

    def add_carry_absorption_rule(self, carry_var, carry_neg,
                                  input_var, input_neg):
        """``C_true * X' = C_true``: an *HA* carry implies its inputs
        (``C = X'*Y'``; not valid for majority carries).

        Only the polarity combinations that yield a *shrinking* or
        vanishing rewrite are registered; the expanding combinations are
        skipped (they would trade one monomial for three).
        """
        if not carry_neg and not input_neg:
            # vc*x = C*X' = C = vc  ->  drop x
            self.add_rule(carry_var, input_var, [(1, {carry_var})])
        elif not carry_neg and input_neg:
            # vc*x = C*(1-X') = C - C = 0
            self.add_rule(carry_var, input_var, [])
        # negated-carry combinations expand; intentionally skipped

    def set_ring(self, ring):
        """Switch the coefficient ring the reducers accumulate in.

        The pair rules are integer identities, so they are valid in any
        ring; only the accumulation arithmetic changes.
        """
        self.ring = ring

    def set_pulse(self, fn, every=20_000):
        """Install a heartbeat: ``fn(every)`` fires after each batch of
        ``every`` normalized items (``None`` uninstalls)."""
        self._pulse = fn
        self._pulse_every = every
        self._pulse_acc = 0

    # ------------------------------------------------------------------
    # Scan tables
    # ------------------------------------------------------------------

    def _compile(self):
        """Build the scan tables from the final rule set.

        * ``_by_low``: trigger bit -> that variable's rule entries (the
          ``_by_var`` lists), so the hot loop never needs ``bit_length``
          to index them;
        * ``_union_by_low``: trigger bit -> union of its partner bits, so
          a scan skips the entry list with one ``&``;
        * ``_rescan_of``: var -> tuple of the trigger vars that have it
          as a partner (the reverse partner index);
        * ``_scan_terms_of``: ``id(entry)`` -> the entry's terms with
          their rescan masks (:meth:`_scan_terms`), filled when a rule
          first fires — most rules never do, and the masks are as wide
          as the variable numbering.

        Adding a rule drops the tables; the next reduction rebuilds them.
        """
        reverse = {}
        by_low = {}
        union_by_low = {}
        for var, entries in self._by_var.items():
            union = 0
            for partner_bit, _pair_mask, _terms in entries:
                union |= partner_bit
                reverse.setdefault(partner_bit.bit_length() - 1,
                                   set()).add(var)
            bit = 1 << var
            union_by_low[bit] = union
            by_low[bit] = entries
        self._scan_terms_of = {}
        self._rescan_of = {var: tuple(sorted(triggers))
                           for var, triggers in reverse.items()}
        self._union_by_low = union_by_low
        self._by_low = by_low

    def _scan_terms(self, entry):
        """``entry``'s right-hand terms as ``(coeff, extra, rescan)``,
        built on the rule's first firing and kept for the next."""
        self._scan_terms_of[id(entry)] = scan_terms = tuple(
            (coeff, extra, self._rescan(extra)) for coeff, extra in entry[2])
        return scan_terms

    def _rescan(self, mono):
        """Trigger bits a scan must revisit once ``mono``'s variables
        enter a monomial: the triggers in ``mono`` and those with a
        partner in it."""
        bits = mono & self._trigger_mask
        get = self._rescan_of.get
        while mono:
            low = mono & -mono
            for var in get(low.bit_length() - 1, ()):
                bits |= 1 << var
            mono ^= low
        return bits

    def product_masks(self, rep_items):
        """Filter and scan masks for the products ``base | rep_mono`` of
        a rule-normalized ``base`` (a subset of a monomial of the
        normalized ``SP_i``), one ``(mask, scan)`` pair per
        ``(rep_mono, rep_coeff)`` of ``rep_items``.

        ``mask`` is the union of the partners of ``rep_mono``'s
        variables in both directions: since ``base`` violates no rule,
        ``base | rep_mono`` violates one iff it meets ``mask``.  ``scan``
        holds the only trigger bits whose rules can fire on it.  Pass
        the list to :meth:`reduce_expansion_into`.

        Returns ``None`` once a reduction has been truncated: ``SP_i``
        may then hold an unnormalized monomial, so no base is known to
        be clean any more.
        """
        if self.truncated:
            return None
        if self._by_low is None:
            self._compile()
        union_by_low = self._union_by_low
        rescan = self._rescan
        masks = []
        for rep_mono, _rep_coeff in rep_items:
            # the triggers with a partner in rep_mono; one inside
            # rep_mono itself only matters if rep_mono violates a rule
            # alone, which the forward partners below catch
            scan = rescan(rep_mono)
            mask = scan & ~rep_mono
            own = rep_mono & self._trigger_mask
            while own:
                low = own & -own
                mask |= union_by_low[low]
                own ^= low
            masks.append((mask, scan))
        return masks

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def _violates(self, mono):
        union_by_low = self._union_by_low
        hits = mono & self._trigger_mask
        while hits:
            low = hits & -hits
            if mono & union_by_low[low]:
                return True
            hits ^= low
        return False

    def apply(self, poly):
        """Normalize a polynomial against all rules (single pass)."""
        if not self._count or not poly:
            return poly
        if self._by_low is None:
            self._compile()
        if not any(self._violates(m) for m in poly._terms):
            return poly
        out = {}
        self.reduce_expansion_into(out, [(0, 1)], poly._terms.items())
        return Polynomial({m: c for m, c in out.items() if c}, _trusted=True,
                          ring=self.ring)

    def reduce_expansion_into(self, out, items, rep_items, masks=None,
                              strip=0, start=0, limit=None, tick=None):
        """Accumulate the normal forms of ``coeff * rep_coeff * (base ^
        strip | rep_mono)`` into ``out`` for every ``(base, coeff)`` of
        ``items[start:]`` and every ``(rep_mono, rep_coeff)`` of
        ``rep_items``.

        The single entry point of the reducer: one call normalizes every
        product of a whole substitution (``items`` are the touched
        monomials, ``strip`` the substituted variable's bit), without
        re-scanning ``SP_i``.  Implemented as one explicit-stack loop
        with the rule scan inlined: this runs on every monomial the
        engine ever creates, and profiling shows normal forms almost
        never recur (fresh products differ in some variable), so a memo
        would be pure overhead — raw per-monomial cost is everything
        here.

        ``masks`` is :meth:`product_masks` of ``rep_items``, valid only
        for rule-normalized bases: a product that meets no partner is
        accumulated without a scan.  Without masks every product
        carrying a trigger bit is scanned.  Either way the same rules
        fire in the same order and ``out`` ends equal: products reduced
        through the stack drop a key whose sum cancels, products with no
        trigger bit keep it (so both count toward the attempt size the
        same way).

        After each item ``len(out)`` is checked against ``limit``; past
        it the call stops.  Returns the index of the next item to reduce
        (``len(items)`` once done), so a caller can pause there and
        resume with ``start``.  ``tick`` (the engine's clock check) runs
        before every 64th item, counted from the start of ``items``; the
        pulse counts items.
        """
        if self._by_low is None:
            self._compile()
        trigger = self._trigger_mask
        by_low = self._by_low
        union_by_low = self._union_by_low
        scan_terms_of = self._scan_terms_of
        out_get = out.get
        mod = self.ring.modulus
        removed = 0
        rewritten = 0
        truncated = 0
        stack = []
        push = stack.append
        neg_one = None if mod is None else mod - 1
        if masks is None:
            masks = repeat((trigger, trigger))
        pulse = self._pulse
        if limit is None:
            limit = _NO_LIMIT
        n = len(items)
        k = start
        try:
            while k < n:
                if tick is not None and not k & 63:
                    tick()
                base, coeff_base = items[k]
                k += 1
                base ^= strip
                if mod is not None:
                    coeff_base %= mod  # the ±1 folds below need it canonical
                for (rep_mono, rep_coeff), (mask, scan) in zip(rep_items,
                                                               masks):
                    mono = base | rep_mono
                    if mono & mask:
                        push((mono, coeff_base * rep_coeff, 0, scan))
                    elif mono & trigger:
                        # clean, though it carries a trigger bit:
                        # accumulate as the stack does, dropping a key
                        # that cancels
                        value = out_get(mono, 0) + coeff_base * rep_coeff
                        if mod is not None and (value >= mod or value < 0):
                            value %= mod
                        if value:
                            out[mono] = value
                        else:
                            out.pop(mono, None)
                    elif mod is None:
                        out[mono] = out_get(mono, 0) + coeff_base * rep_coeff
                    elif rep_coeff == 1:
                        # replacement coefficients are overwhelmingly 1
                        # and -1 (canonically ``mod - 1``): folding with
                        # one conditional subtract/add avoids a big-int
                        # multiply + division per accumulation on the
                        # modular path
                        total = out_get(mono, 0) + coeff_base
                        out[mono] = total - mod if total >= mod else total
                    elif rep_coeff == neg_one:
                        total = out_get(mono, 0) - coeff_base
                        out[mono] = total + mod if total < 0 else total
                    else:
                        out[mono] = (out_get(mono, 0)
                                     + coeff_base * rep_coeff) % mod
                while stack:
                    mono, coeff, depth, scan = stack.pop()
                    while True:
                        # first violated rule, visiting the trigger bits
                        # of ``scan`` low-to-high (same order as rule
                        # compilation relies on); the bits outside
                        # ``scan`` are known to have no partner in
                        # ``mono``
                        rule = None
                        hits = mono & scan
                        while hits:
                            low = hits & -hits
                            if mono & union_by_low[low]:
                                # the union guarantees one entry matches
                                for rule in by_low[low]:
                                    if mono & rule[0]:
                                        break
                                break
                            hits ^= low
                        if rule is None or depth > _MAX_REWRITE_DEPTH:
                            if rule is not None:
                                truncated += 1
                            value = out_get(mono, 0) + coeff
                            if mod is not None and (value >= mod
                                                    or value < 0):
                                value %= mod
                            if value:
                                out[mono] = value
                            else:
                                out.pop(mono, None)
                            break
                        terms = scan_terms_of.get(id(rule))
                        if terms is None:
                            terms = self._scan_terms(rule)
                        if not terms:
                            removed += 1
                            break
                        rewritten += 1
                        rest = mono & ~rule[1]
                        # the bits below ``low`` had no partner in
                        # ``mono``, so only a right-hand term can give
                        # them one
                        scan &= -low
                        if len(terms) == 1 and terms[0][0] == 1:
                            # shrinking chain: iterate in place (depth
                            # unchanged, matching the classic
                            # single-rewrite semantics)
                            _one, extra, rescan = terms[0]
                            mono = rest | extra
                            scan |= rescan
                            continue
                        depth += 1
                        for term_coeff, extra, rescan in terms:
                            push((rest | extra, coeff * term_coeff, depth,
                                  scan | rescan))
                        break
                if pulse is not None:
                    self._pulse_acc += 1
                    if self._pulse_acc >= self._pulse_every:
                        self._pulse_acc = 0
                        pulse(self._pulse_every)
                if len(out) > limit:
                    break
        finally:
            self.removed += removed
            self.rewritten += rewritten
            self.truncated += truncated
        return k

    def stats(self):
        return {"rules": self._count,
                "removed": self.removed,
                "rewritten": self.rewritten,
                "truncated": self.truncated}

    @property
    def total_removed(self):
        """Total vanishing monomials eliminated (deleted + rewritten) —
        the paper's *Vanishing Monomials* column."""
        return self.removed + self.rewritten


def literal_product_terms(input_vars, input_negations):
    """Expansion of ``X'*Y'*...`` as ``(coeff, monomial-mask)`` pairs."""
    product = Polynomial.one()
    for var, neg in zip(input_vars, input_negations):
        product = product * Polynomial.literal(var, neg)
    return [(coeff, mono) for mono, coeff in product.terms()]


def rules_from_blocks(blocks, extended=True):
    """Compile the rule set implied by a list of detected atomic blocks.

    The classic HA product rule is always included; ``extended`` adds the
    FA product rule and the carry absorption rules.
    """
    rules = VanishingRuleSet()
    for blk in blocks:
        negations = getattr(blk, "input_negations", None)
        if negations is None:
            negations = (False,) * len(blk.inputs)
        if blk.kind == "HA":
            rules.add_ha_product_rule(blk.carry_var, blk.carry_negated,
                                      blk.sum_var, blk.sum_negated)
            if extended:
                for var, neg in zip(blk.inputs, negations):
                    rules.add_carry_absorption_rule(
                        blk.carry_var, blk.carry_negated, var, neg)
        elif blk.kind == "FA" and extended:
            rules.add_fa_product_rule(
                blk.carry_var, blk.carry_negated,
                blk.sum_var, blk.sum_negated,
                literal_product_terms(blk.inputs, negations))
    log.debug("compiled %d pair rules from %d blocks (extended=%s)",
              len(rules), len(blocks), extended)
    return rules
