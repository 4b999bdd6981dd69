"""Global backward rewriting over components.

The engine tracks the component DAG and enforces the paper's
substitution rule 2: a component may be substituted only after every
component consuming one of its outputs has been substituted (so each
component is substituted exactly once).

Two orders are built on top of the shared machinery:

* :meth:`RewritingEngine.run_static` — the fixed reverse-topological
  order used by all prior SCA verifiers;
* :func:`repro.core.dynamic.dynamic_backward_rewriting` — the paper's
  Algorithm 2 (occurrence-sorted candidates, growth threshold,
  backtracking).

Substituting an atomic block first attempts the compact word-level
relation ``G(outs) = F(ins)`` (rule 1); when ``SP_i`` does not contain
``G`` in the required form, it falls back to per-output substitution.
A substitution attempt (:class:`Attempt`) can pause once its partial
size passes a bound and resume later where it stopped, so the dynamic
order never builds in full a candidate it is going to reject.

The engine holds ``SP_i`` as a :class:`~repro.poly.arena.PolyArena`
(sorted columns; every substitution is a bisect-bounded partition plus
a segment-copy merge).  It converts from
:class:`~repro.poly.polynomial.Polynomial` once when it builds ``SP_0``
and back once for the remainder (:meth:`RewritingEngine.remainder`);
an attached invariant monitor is the only per-commit conversion.
"""

from __future__ import annotations

import time

from repro.core.result import Trace, TraceStep
from repro.errors import BudgetExceeded, VerificationError
from repro.obs.recorder import NULL
from repro.poly.arena import PolyArena
from repro.poly.ring import EXACT


class AttemptTooLarge(Exception):
    """Internal: a substitution attempt exceeded the hard monomial cap.

    Raised *during* polynomial construction so that a runaway attempt is
    abandoned early instead of materializing millions of monomials; the
    dynamic engine treats it as an infinitely-growing candidate, the
    static engine as budget exhaustion.
    """


class Attempt:
    """One substitution attempt of a candidate component, as a
    computation that can pause at a size bound and resume later.

    :meth:`advance` runs the substitution until it finishes, returning
    the ``SP_i`` arena it would produce, or until the partial size
    passes ``bound``, when it pauses and returns ``None``.  A paused
    attempt keeps its place — the touched monomial it stopped at,
    inside whichever output variable it was substituting — so a later
    ``advance`` with a larger bound continues from there instead of
    starting over.  ``engine.sp`` is never modified.

    Each attempt emits one ``attempt`` event: when it finishes, when it
    exceeds the hard cap (``too_large``), or, still paused, when it is
    closed (``paused`` with its partial ``size`` and last ``bound``).
    """

    __slots__ = ("engine", "index", "before", "bound", "size", "result",
                 "compact", "paused", "too_large", "_body")

    def __init__(self, engine, index):
        self.engine = engine
        self.index = index
        self.before = len(engine.sp)
        self.bound = None
        self.size = None  # partial size at the last pause, final once done
        self.result = None
        self.compact = False
        self.paused = False
        self.too_large = False
        self._body = engine._attempt_body(self)

    def advance(self, bound=None):
        """Continue until done (returns the arena) or until the partial
        size passes ``bound`` (returns ``None``; ``None`` never pauses).
        Raises :class:`AttemptTooLarge` past the engine's hard cap, and
        again on every later call."""
        if self.result is not None:
            return self.result
        if self.too_large:
            raise AttemptTooLarge(self.size)
        self.bound = bound
        obs = self.engine.obs
        try:
            self.size = next(self._body)
        except StopIteration as done:
            self.result = done.value
        except AttemptTooLarge as exc:
            self.paused = False
            self.too_large = True
            self.size = exc.args[0]
            if obs.enabled:
                obs.count("rewrite.attempts_too_large")
                self._record(too_large=True)
            raise
        else:
            self.paused = True
            return None
        self.paused = False
        self.size = size = len(self.result)
        if obs.enabled:
            obs.observe("rewrite.attempt_size", size)
            self._record(size=size, compact=self.compact,
                         growth=round((size - self.before)
                                      / max(self.before, 1), 4))
        return self.result

    def close(self):
        """Abandon a paused attempt (its step committed another
        candidate) and record it; a no-op otherwise."""
        if not self.paused:
            return
        self.paused = False
        self._body.close()
        if self.engine.obs.enabled:
            self._record(size=self.size, bound=round(self.bound, 1),
                         paused=True)

    def _record(self, **fields):
        """Emit this attempt's one ``attempt`` event."""
        engine = self.engine
        engine.obs.count("rewrite.attempts")
        engine.obs.event("attempt", comp=self.index,
                         kind=engine.components[self.index].kind,
                         before=self.before, **fields)


class RewritingEngine:
    """Shared state of one backward-rewriting run."""

    def __init__(self, spec, components, vanishing, monomial_budget=None,
                 time_budget=None, record_trace=False,
                 record_certificate=False, recorder=None, monitor=None,
                 ring=EXACT):
        self.ring = ring
        self.vanishing = vanishing
        vanishing.set_ring(ring)
        self.spec = spec
        # SP_0 as sorted columns; seed the occurrence index so low-churn
        # kernels carry it forward by delta updates (a high-churn one
        # drops it for good).  Only component outputs are ever looked up
        # in it, so only those are counted.
        tracked = 0
        for comp in components:
            for var in comp.output_vars:
                tracked |= 1 << var
        self.sp = PolyArena.from_polynomial(
            vanishing.apply(ring.convert_poly(spec)), tracked=tracked)
        self.sp.occurrence_index()
        self.record_certificate = record_certificate
        self.certificate_steps = [] if record_certificate else None
        self.components = {comp.index: comp for comp in components}
        self.monomial_budget = monomial_budget
        # A substitution attempt is abandoned once it exceeds this many
        # monomials (runaway attempts would otherwise stall the run
        # before the budgets can trip).
        self.hard_cap = 4 * monomial_budget if monomial_budget else None
        self.time_budget = time_budget
        self.record_trace = record_trace
        self.trace = Trace()
        self.obs = recorder if recorder is not None else NULL
        # Optional repro.analysis.invariants.InvariantMonitor: checks
        # substitution-order legality and SP_i signatures at each commit.
        self.monitor = monitor
        self.steps = 0
        self.attempt_count = 0
        self.backtracks = 0
        self.threshold_doublings = 0
        self.last_threshold = None
        self.compact_hits = 0
        self.compact_misses = 0
        self.max_size = len(self.sp)
        self._deadline = (time.monotonic() + time_budget
                          if time_budget else None)

        # Component DAG: producer -> consumers.
        var_owner = {}
        for comp in components:
            for var in comp.output_vars:
                if var in var_owner:
                    raise VerificationError(
                        f"variable v{var} produced by two components")
                var_owner[var] = comp.index
        self._var_owner = var_owner
        self._producers_of = {}
        consumers = {comp.index: set() for comp in components}
        for comp in components:
            producer_ids = set()
            for var in comp.input_vars:
                owner = var_owner.get(var)
                if owner is not None and owner != comp.index:
                    producer_ids.add(owner)
            self._producers_of[comp.index] = producer_ids
            for producer in producer_ids:
                consumers[producer].add(comp.index)
        self._pending_consumers = {idx: len(cons)
                                   for idx, cons in consumers.items()}
        self._done = set()
        self._candidates = {idx for idx, count in self._pending_consumers.items()
                            if count == 0}
        if self.obs.enabled:
            # anchor of one rewrite run for the attribution layer: the
            # SP_0 size the growth deltas start from, and the timestamp
            # the first commit's wall-time window opens at
            self.obs.event("rewrite_begin", size=len(self.sp),
                           components=len(self.components), ring=ring.name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def remaining(self):
        return len(self.components) - len(self._done)

    def candidates(self):
        """Eligible components (rule 2), as a sorted list of indices."""
        return sorted(self._candidates)

    def finished(self):
        return not self._candidates and self.remaining == 0

    def remainder(self):
        """The current ``SP_i`` as a :class:`Polynomial` (the remainder
        once the run is finished)."""
        return self.sp.to_polynomial()

    def occurrence_counts(self):
        """Occurrences of every candidate's outputs in ``SP_i``
        (Algorithm 2, lines 4-5).

        Reads the arena's occurrence index while low-churn kernels still
        carry it (built once on ``SP_0``), at O(candidates).  Once a
        high-churn kernel has dropped it, only the candidates' output
        bits are decoded, over the tail of ``SP_i`` they can occur in.
        """
        counts = self.sp.occ
        if counts is None:
            wanted = 0
            for idx in self._candidates:
                for var in self.components[idx].output_vars:
                    wanted |= 1 << var
            counts = self.sp.count_vars(wanted)
        result = {}
        for idx in self._candidates:
            comp = self.components[idx]
            result[idx] = sum(counts.get(var, 0) for var in comp.output_vars)
        return result

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------

    def start(self, index):
        """Begin a substitution attempt of component ``index``: an
        :class:`Attempt` that computes, without committing, the ``SP_i``
        arena the substitution would produce."""
        if index not in self._candidates:
            raise VerificationError(f"component {index} is not a candidate")
        self.attempt_count += 1
        return Attempt(self, index)

    def attempt(self, index):
        """Compute the ``SP_i`` arena that substituting component
        ``index`` would produce, without committing (an unbounded
        :meth:`start`)."""
        return self.start(index).advance(None)

    def _attempt_body(self, attempt):
        """The computation behind an :class:`Attempt`: a generator that
        yields the partial size whenever it passes ``attempt.bound``
        and returns the new arena."""
        comp = self.components[attempt.index]
        if comp.compact is not None:
            new_sp = self._try_compact(comp)
            if new_sp is not None:
                self.compact_hits += 1
                attempt.compact = True
                return new_sp
            self.compact_misses += 1
        new_sp = self.sp
        # Follow the insertion order of the substitution map: atomic
        # blocks eliminate the sum (whose linear form references the
        # carry variable) before the carry.
        for var, replacement in comp.substitutions.items():
            new_sp = yield from self._substitute_normalized(
                new_sp, var, replacement, attempt)
        return new_sp

    def _substitute_normalized(self, sp, var, replacement, attempt):
        """Substitute ``var`` and normalize only the freshly created
        monomials against the vanishing rules (a generator; see
        :meth:`_attempt_body`).

        ``SP_i`` is kept rule-normalized as an invariant (established on
        the initial specification polynomial), so untouched monomials are
        copied through without re-checking — this is what makes vanishing
        removal cheap enough to run after *every* substitution.  A
        bisect-bounded partition splits the touched monomials off the
        sorted columns (the untouched prefix is never walked), the
        products accumulate into a small fresh dict, and one
        segment-copy merge puts them back.

        The vanishing reducer walks the touched monomials in one call.
        After each one the partial size (untouched plus accumulated
        monomials) is checked against the hard cap and the attempt's
        bound; past the bound the reducer returns and the generator
        pauses at that monomial until the bound reaches the partial
        size.
        """
        keep_m, keep_c, touched = sp.partition_var(var)
        if not touched:
            return sp
        bit = 1 << var
        rep_items = list(replacement.terms())
        # every touched monomial minus ``var`` is rule-normalized
        masks = self.vanishing.product_masks(rep_items)
        cap = self.hard_cap
        tick = self.check_time if self._deadline is not None else None
        bound = attempt.bound
        reduce_expansion = self.vanishing.reduce_expansion_into
        # High churn: the segment-copy merge has no edge left.
        # Accumulate straight into the untouched terms (one pass instead
        # of fresh-dict + merge) and pay a single flat sort for the
        # columns.
        flat = len(touched) * len(rep_items) >= len(keep_m)
        if flat:
            out = dict(zip(keep_m, keep_c))
            base_len = 0
        else:
            out = {}
            base_len = len(keep_m)
        k = 0
        while k < len(touched):
            # the reducer stops after the monomial that passes the lower
            # of the cap and the bound
            limit = cap if bound is None or (
                cap is not None and cap < bound) else bound
            k = reduce_expansion(out, touched, rep_items, masks, bit, k,
                                 None if limit is None else limit - base_len,
                                 tick)
            size = base_len + len(out)
            if cap is not None and size > cap:
                raise AttemptTooLarge(size)
            while bound is not None and size > bound:
                yield size
                bound = attempt.bound
        if flat:
            out = {m: c for m, c in out.items() if c}
            monos = sorted(out)
            return PolyArena(monos, [out[m] for m in monos], ring=self.ring,
                             tracked=sp.tracked)
        return sp.rebuild(keep_m, keep_c, out,
                          removed=[m for m, _ in touched])

    def commit(self, index, new_sp, threshold=None):
        """Install the result of :meth:`attempt` and retire the component.

        ``threshold`` is the dynamic growth threshold in force when the
        substitution was accepted (``None`` under the static order).
        """
        if self.monitor is not None:
            self.monitor.on_commit(index, self.components[index],
                                   new_sp.to_polynomial())
        if self.record_certificate:
            comp = self.components[index]
            for var, replacement in comp.substitutions.items():
                self.certificate_steps.append((var, replacement))
        self.sp = new_sp
        self.steps += 1
        size = len(new_sp)
        if size > self.max_size:
            self.max_size = size
        if self.record_trace:
            self.trace.append(TraceStep(
                step=self.steps, component=index,
                kind=self.components[index].kind, size=size,
                threshold=threshold))
        self._candidates.discard(index)
        self._done.add(index)
        for producer in self._producers_of[index]:
            self._pending_consumers[producer] -= 1
            if self._pending_consumers[producer] == 0 and producer not in self._done:
                self._candidates.add(producer)
        if self.obs.enabled:
            # after the DAG update, so the candidate pool is current
            self.obs.count("rewrite.commits")
            self.obs.observe("rewrite.sp_size", size)
            self.obs.event("step", i=self.steps, comp=index,
                           kind=self.components[index].kind, size=size,
                           threshold=threshold,
                           candidates=len(self._candidates),
                           remaining=self.remaining)
        self._check_budget()

    def substitute(self, index):
        """Attempt + commit in one step (static rewriting)."""
        try:
            new_sp = self.attempt(index)
        except AttemptTooLarge as exc:
            raise BudgetExceeded(
                f"substitution attempt exceeded the hard cap "
                f"({exc.args[0]} monomials)", kind="monomials",
                steps_done=self.steps, max_size=self.max_size) from None
        # Budget guard also applies to the uncommitted polynomial.
        if self.monomial_budget is not None and len(new_sp) > self.monomial_budget:
            self.max_size = max(self.max_size, len(new_sp))
            raise BudgetExceeded(
                f"SP_i reached {len(new_sp)} monomials (budget "
                f"{self.monomial_budget})", kind="monomials",
                steps_done=self.steps, max_size=self.max_size)
        self.commit(index, new_sp)

    def _try_compact(self, comp):
        """Rule 1: substitute through ``G(outs) = F(ins)`` when ``SP_i``
        contains ``G`` exactly; returns None when the pattern is absent.

        One bisect-bounded partition splits the G-part off the sorted
        columns; the fresh ``Q*F`` products are normalized into a dict
        and merged back with segment copies.
        """
        g_coeffs, f_poly = comp.compact
        (var_a, coeff_a), (var_b, coeff_b) = sorted(g_coeffs.items())
        sp = self.sp
        parts = sp.partition_pair(var_a, var_b)
        if parts is None:
            return None  # some monomial contains both outputs
        keep_m, keep_c, part_a, part_b = parts
        if not part_a and not part_b:
            return sp  # outputs do not occur; substitution is a no-op
        if part_a.keys() != part_b.keys():
            return None
        q_items = []
        mod = self.ring.modulus
        if mod is None:
            for mono, coeff in part_a.items():
                quotient, remainder_c = divmod(coeff, coeff_a)
                if remainder_c:
                    return None
                if part_b[mono] != coeff_b * quotient:
                    return None
                q_items.append((mono, quotient))
        else:
            # the divisor is the same for every monomial of the G-part,
            # so hoist the (extended-gcd) modular inverse out of the loop
            try:
                inv_a = pow(coeff_a % mod, -1, mod)
            except ValueError:
                return None  # coeff_a ≡ 0 mod p: not a unit
            for mono, coeff in part_a.items():
                quotient = coeff * inv_a % mod
                if (part_b[mono] - coeff_b * quotient) % mod:
                    return None
                q_items.append((mono, quotient))
        # the keep columns are already rule-normalized (SP_i invariant);
        # only the fresh Q*F products need normalization, and every Q
        # monomial, a monomial of SP_i minus an output, is normalized.
        fresh = {}
        f_items = list(f_poly.terms())
        self.vanishing.reduce_expansion_into(
            fresh, q_items, f_items, self.vanishing.product_masks(f_items))
        bit_a = 1 << var_a
        bit_b = 1 << var_b
        removed = [m | bit_a for m in part_a]
        removed += [m | bit_b for m in part_b]
        return sp.rebuild(keep_m, keep_c, fresh, removed=removed)

    def _check_budget(self):
        if self.monomial_budget is not None and len(self.sp) > self.monomial_budget:
            raise BudgetExceeded(
                f"SP_i reached {len(self.sp)} monomials (budget "
                f"{self.monomial_budget})", kind="monomials",
                steps_done=self.steps, max_size=self.max_size)
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(
                f"time budget of {self.time_budget}s exhausted",
                kind="time", steps_done=self.steps, max_size=self.max_size)

    # ------------------------------------------------------------------
    # Algorithm 2 bookkeeping (called by the dynamic order)
    # ------------------------------------------------------------------

    def note_backtrack(self, index, growth=None, threshold=None):
        """Record a restore-from-snapshot: a substitution attempt was
        rejected and ``SP_i`` rolled back (Algorithm 2, Example 7)."""
        self.backtracks += 1
        if self.obs.enabled:
            self.obs.count("rewrite.backtracks")
            self.obs.event("backtrack", comp=index, growth=growth,
                           threshold=threshold)

    def note_threshold(self, value):
        """Record a threshold doubling after a fully rejected scan."""
        self.threshold_doublings += 1
        self.last_threshold = value
        if self.obs.enabled:
            self.obs.count("rewrite.threshold_doublings")
            self.obs.event("threshold", value=value)

    def check_time(self):
        """Wall-clock check, run between candidates and every 64
        touched monomials inside an attempt."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(
                f"time budget of {self.time_budget}s exhausted",
                kind="time", steps_done=self.steps, max_size=self.max_size)

    # ------------------------------------------------------------------
    # Static order (the state of the art before the paper)
    # ------------------------------------------------------------------

    def run_static(self):
        """Backward rewriting in reverse topological order: among the
        eligible candidates, always the one whose deepest output variable
        is largest (i.e. closest to the primary outputs).  Returns the
        remainder :class:`Polynomial`."""
        while not self.finished():
            if not self._candidates:
                raise VerificationError("component DAG has a dependency cycle")
            index = max(self._candidates,
                        key=lambda idx: (max(self.components[idx].output_vars), idx))
            self.substitute(index)
        return self.remainder()
