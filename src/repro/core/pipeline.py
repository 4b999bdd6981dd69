"""Staged verification pipeline — Algorithm 1 as explicit stages.

The historical ``verify_multiplier`` monolith threaded seventeen keyword
arguments through one 200-line function.  This module splits it into

* :class:`VerifyConfig` — a frozen, validated, picklable description of
  *what* to verify (specification, method, ring, budgets, ablation
  switches).  Invalid
  configurations raise :class:`~repro.errors.ConfigError` at
  construction time, before any pipeline work;
* :class:`Pipeline` — the *how*: named stages ``preflight → spec →
  atomic → vanishing → components → implications → rewrite → decide``
  with per-stage artifacts (:class:`Artifacts`), each timed as an obs
  span under the same names the monolith used.

The rewrite stage runs in one coefficient ring: the exact integers, or
``Z/pZ`` for one prime ``p`` above the design's CRT coefficient bound
(see DESIGN.md).  The modular run is sound in both directions:

* backward rewriting applies integer polynomial identities, so the
  run's final remainder in ``Z/pZ`` equals the exact remainder reduced
  mod ``p`` (the multilinear normal form is unique over any ring);
* a **non-zero** remainder mod ``p`` therefore proves the design buggy;
* a **zero** remainder mod ``p > 2*B`` proves every exact coefficient
  zero, since each lies in ``(-B, B)``.

The CRT bound: after full substitution the remainder is multilinear in
the ``n = wa + wb`` primary inputs.  On Boolean points its value is a
difference of two ``max(W, wa+wb)``-bit words, so ``|R(x)| <
2**(max(W, wa+wb) + 1)``; by Moebius inversion each coefficient is a
``±1`` sum of at most ``2**n`` point values, giving ``|coeff| < B`` with
``B = 2**(n + max(W, wa+wb) + 1)``.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import numbers
import time

from repro.aig.ops import cleanup, fanout_map
from repro.core.atomic import detect_atomic_blocks
from repro.core.cones import build_components
from repro.core.counterexample import counterexample_for, reduce_mod
from repro.core.dynamic import (INITIAL_THRESHOLD, PAPER_THRESHOLD,
                                dynamic_backward_rewriting)
from repro.core.result import Trace, VerificationResult
from repro.core.rewriting import RewritingEngine
from repro.core.spec import SPECIFICATIONS
from repro.core.vanishing import VanishingRuleSet, rules_from_blocks
from repro.errors import (BudgetExceeded, ConfigError, DesignLintError,
                          VerificationError)
from repro.obs.recorder import NULL
from repro.poly.ring import EXACT, ModularRing, next_prime_above

DEFAULT_MONOMIAL_BUDGET = 5_000_000

_METHODS = ("dyposub", "static")
_RINGS = ("exact", "modular")

#: The least modulus of a modular run, the Mersenne prime ``2**61 - 1``;
#: it covers the CRT bound of every multiplier up to 14x14.
_WORD_PRIME = 2**61 - 1

log = logging.getLogger("repro.core.pipeline")


@dataclasses.dataclass(frozen=True)
class VerifyConfig:
    """Frozen, validated description of one verification task.

    Everything here is plain data; runtime objects like the recorder are
    passed to :meth:`Pipeline.run` instead.  Validation happens in
    ``__post_init__`` so a bad ``method``/``ring``/``spec`` raises
    :class:`~repro.errors.ConfigError` *before* any pipeline work.

    ``method`` is ``"dyposub"`` (dynamic backward rewriting) or
    ``"static"`` (the prior-art reverse-topological order on the same
    component machinery); the ``use_*`` switches exist for ablation
    studies, DyPoSub is all of them enabled.  ``monomial_budget``
    defaults to a generous safety ceiling (a buggy circuit's residue
    never cancels); ``None`` runs unbounded, a small value emulates the
    paper's time-out column.  ``preflight`` lints the design before any
    polynomial work; ``check_invariants`` additionally checks component
    coverage, the vanishing table, substitution-order legality and
    ``SP_i`` signatures at every commit.  ``initial_threshold`` is
    Algorithm 2's starting growth threshold ``τ``, a finite positive
    number (:data:`~repro.core.dynamic.INITIAL_THRESHOLD` by default).

    ``ring`` selects the coefficient ring of the rewrite stage:
    ``"exact"`` (default, big-integer coefficients) or ``"modular"``
    (one run modulo a prime above the design's CRT bound, chosen by
    :meth:`Pipeline.coefficient_ring`).

    ``spec`` names the claimed function (:data:`~repro.core.spec.
    SPECIFICATIONS`): ``"multiplier"`` (the paper's use case) or
    ``"adder"``, ``(A + B) mod 2**W`` over the design's ``W`` outputs.
    An adder is decided by the divisibility of its exact remainder, so
    it runs in the exact ring only.
    """

    width_a: int | None = None
    width_b: int | None = None
    signed: bool = False
    method: str = "dyposub"
    monomial_budget: int | None = DEFAULT_MONOMIAL_BUDGET
    time_budget: float | None = None
    record_trace: bool = False
    want_counterexample: bool = True
    initial_threshold: float = INITIAL_THRESHOLD
    use_atomic_blocks: bool = True
    use_vanishing: bool = True
    use_compact: bool = True
    extended_rules: bool = True
    use_implications: bool = True
    record_certificate: bool = False
    preflight: bool = True
    check_invariants: bool = False
    ring: str = "exact"
    spec: str = "multiplier"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(
                f"unknown method {self.method!r} (know 'dyposub', "
                f"'static')", method=repr(self.method))
        if self.ring not in _RINGS:
            raise ConfigError(
                f"unknown coefficient ring {self.ring!r} (know 'exact', "
                f"'modular')", ring=repr(self.ring))
        if self.spec not in SPECIFICATIONS:
            raise ConfigError(
                f"unknown spec {self.spec!r} (know "
                f"{', '.join(map(repr, SPECIFICATIONS))})",
                spec=repr(self.spec))
        if SPECIFICATIONS[self.spec].wraps and self.ring != "exact":
            # a remainder non-zero mod p may still be a multiple of 2**W
            raise ConfigError(
                f"spec {self.spec!r} needs the exact ring, got "
                f"{self.ring!r}", spec=self.spec, ring=repr(self.ring))
        threshold = self.initial_threshold
        if (not isinstance(threshold, numbers.Real)
                or isinstance(threshold, bool)
                or not 0 < threshold < math.inf):
            raise ConfigError(
                f"initial_threshold must be a finite positive number, "
                f"got {threshold!r}", initial_threshold=repr(threshold))

    @classmethod
    def from_args(cls, args):
        """Build a config from the ``verify`` CLI namespace (the single
        place argparse attributes map to pipeline options)."""
        kwargs = {
            "width_a": args.width_a,
            "signed": args.signed,
            "method": args.method,
            "time_budget": args.time_budget,
            "check_invariants": args.check_invariants,
            "preflight": not args.no_preflight,
            "ring": getattr(args, "ring", "exact"),
        }
        if args.budget is not None:
            kwargs["monomial_budget"] = args.budget
        if args.threshold is not None:
            kwargs["initial_threshold"] = args.threshold
        return cls(**kwargs)


@dataclasses.dataclass
class Artifacts:
    """Per-stage outputs shared by every rewrite run of one pipeline.

    Everything except the vanishing counters is immutable once built, so
    the threshold fallback re-runs the rewrite stage on the same
    artifacts instead of re-deriving them: the spec stays exact (each
    engine converts it into its ring), components carry exact
    replacement polynomials (reduction mod ``p`` is a homomorphism, so
    a modular engine consumes them as-is).  ``arch`` is the run's
    :class:`~repro.analysis.structure.ArchitectureReport`; it is built
    only for a traced run, whose ``stage_map`` event renders it, and is
    None otherwise.
    """

    aig: object
    width_a: int
    width_b: int
    spec: object
    blocks: list
    vanishing: VanishingRuleSet
    components: list
    implication_rules: int
    stats: dict
    arch: object = None


class Pipeline:
    """Runs :class:`VerifyConfig` against a design, stage by stage."""

    def __init__(self, config):
        self.config = config

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def stage_preflight(self, aig, width_a, rec, spec):
        """O(nodes) structural + interface lint before polynomial work;
        ``spec`` (a :class:`~repro.core.spec.Specification`) sets the
        output count the interface must expose."""
        from repro.analysis.lint import preflight as run_preflight

        with rec.span("preflight"):
            report = run_preflight(aig, width_a, recorder=rec, spec=spec)
        if report.errors:
            raise DesignLintError(
                f"design failed pre-flight lint with "
                f"{len(report.errors)} error(s): "
                f"{report.errors[0].message}", report=report)

    def stage_prepare(self, aig, width_a, width_b, rec):
        """Spec → atomic → vanishing → components → implications.

        Returns the :class:`Artifacts`.  A traced run also builds the
        architecture report here, once, from the cleaned AIG and the
        atomic blocks detected here.
        """
        config = self.config
        aig = cleanup(aig)
        with rec.span("spec"):
            spec = SPECIFICATIONS[config.spec].polynomial(
                aig, width_a, width_b, signed=config.signed)
        uses_blocks = config.use_atomic_blocks or config.use_vanishing
        with rec.span("atomic"):
            fanout = fanout_map(aig)
            blocks = (detect_atomic_blocks(aig, fanout=fanout)
                      if uses_blocks else [])
        arch = None
        if rec.enabled:
            from repro.analysis.structure import analyze_aig

            with rec.span("stage_map"):
                arch = analyze_aig(aig, blocks if uses_blocks else
                                   detect_atomic_blocks(aig, fanout=fanout),
                                   width_a=width_a)
        with rec.span("vanishing"):
            if config.use_vanishing:
                vanishing = rules_from_blocks(blocks,
                                              extended=config.extended_rules)
            else:
                vanishing = VanishingRuleSet()
        component_blocks = blocks if config.use_atomic_blocks else []
        with rec.span("components"):
            components, vanishing = build_components(aig, component_blocks,
                                                     vanishing, fanout)
        if not config.use_compact:
            for comp in components:
                comp.compact = None
        implication_rules = 0
        if config.use_vanishing and config.use_implications:
            from repro.core.implications import add_implication_rules

            with rec.span("implications"):
                implication_rules = add_implication_rules(
                    vanishing, aig, blocks, components)
        stats = {
            "nodes": aig.num_ands,
            "width_a": width_a,
            "width_b": width_b,
            "signed": config.signed,
            "components": len(components),
            "atomic_blocks": sum(1 for c in components if c.is_atomic),
            "full_adders": sum(1 for c in components if c.kind == "FA"),
            "half_adders": sum(1 for c in components if c.kind == "HA"),
            "cgc": sum(1 for c in components if c.kind == "CGC"),
            "ffc": sum(1 for c in components if c.kind == "FFC"),
            "implication_rules": implication_rules,
        }
        art = Artifacts(aig=aig, width_a=width_a, width_b=width_b,
                        spec=spec, blocks=blocks, vanishing=vanishing,
                        components=components,
                        implication_rules=implication_rules, stats=stats,
                        arch=arch)
        return art

    def _emit_stage_map(self, art, rec):
        """Commit -> stage-region provenance for the attribution layer.

        One ``stage_map`` event rendering the run's architecture report
        (``art.arch``, built by :meth:`stage_prepare` from the prepared
        AIG and its atomic blocks): the static architecture label, the
        blow-up risk prediction, and every component's stage region —
        so a recorded trace is self-contained: ``repro explain`` maps
        each ``step`` event's component onto PPG/PPA/FSA without
        re-reading the AIG.  Traced runs only — the NULL recorder never
        gets here.
        """
        from repro.analysis.structure import component_stage_map

        arch = art.arch
        with rec.span("stage_map"):
            stages = component_stage_map(arch, art.components)
        rec.event(
            "stage_map",
            architecture=arch.architecture,
            risk_factor=arch.risk["factor"],
            risk_score=arch.risk["score"],
            regions={name: len(vars_)
                     for name, vars_ in sorted(arch.regions.items())},
            components={str(index): stage
                        for index, stage in sorted(stages.items())})

    def stage_invariants(self, art, ring, rec):
        """One-time machinery checks + the first run's commit monitor."""
        from repro.analysis.invariants import (InvariantMonitor,
                                               check_component_coverage,
                                               check_vanishing_rules)
        from repro.core.atomic import block_coverage

        with rec.span("invariants"):
            blocks_cov = block_coverage(art.aig, art.blocks)
            covered = check_component_coverage(art.aig, art.components)
            rule_count = check_vanishing_rules(art.vanishing)
            monitor = InvariantMonitor(art.aig, art.spec, art.components,
                                       recorder=rec, ring=ring)
        if rec.enabled:
            rec.event("invariants_checked", covered_nodes=covered,
                      rules=rule_count,
                      block_fraction=blocks_cov["fraction"])
        return monitor

    def _fresh_monitor(self, art, ring, rec):
        """Commit monitor for a threshold-fallback re-run: the
        substitution-order bookkeeping starts over."""
        from repro.analysis.invariants import InvariantMonitor

        return InvariantMonitor(art.aig, art.spec, art.components,
                                recorder=rec, ring=ring)

    def stage_rewrite(self, art, ring, rec, monitor=None, deadline=None,
                      threshold=None):
        """One backward-rewriting run in ``ring``; Algorithm 2 starts at
        ``threshold``, the config's ``initial_threshold`` by default.

        Returns ``(engine, remainder)``; raises
        :class:`~repro.errors.BudgetExceeded` on budget exhaustion.  The
        deadline is shared with a threshold-fallback re-run: each engine
        gets only the wall-clock time still remaining.
        """
        config = self.config
        if threshold is None:
            threshold = config.initial_threshold
        time_budget = config.time_budget
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BudgetExceeded(
                    f"time budget of {time_budget}s exhausted",
                    kind="time", steps_done=0, max_size=0)
            time_budget = remaining
        engine = RewritingEngine(art.spec, art.components, art.vanishing,
                                 monomial_budget=config.monomial_budget,
                                 time_budget=time_budget,
                                 record_trace=config.record_trace,
                                 record_certificate=config.record_certificate,
                                 recorder=rec, monitor=monitor, ring=ring)
        try:
            with rec.span("rewrite"):
                if config.method == "dyposub":
                    remainder = dynamic_backward_rewriting(
                        engine, initial_threshold=threshold)
                else:
                    remainder = engine.run_static()
        except BudgetExceeded as exc:
            exc.engine = engine  # the decide stage reports its counters
            raise
        return engine, remainder

    def _rewrite(self, art, ring, rec, monitor, deadline):
        """:meth:`stage_rewrite` with the paper's threshold as fallback.

        A larger initial threshold commits growth sooner, which is
        faster on most blow-up designs, but on a few it walks into a
        blow-up the paper's 10% steers round (EXPERIMENTS.md, "Growth
        threshold").  So a DyPoSub run that exhausts the monomial budget
        from above :data:`~repro.core.dynamic.PAPER_THRESHOLD` runs once
        more from it, with a fresh monitor and what is left of the
        deadline; a ``rewrite_retry`` event tells the recorder and the
        trace readers to drop the abandoned run.  Returns ``(engine,
        remainder, monitor)``.
        """
        config = self.config
        vanishing = art.vanishing
        counts = vanishing.removed, vanishing.rewritten, vanishing.truncated
        try:
            engine, remainder = self.stage_rewrite(
                art, ring, rec, monitor=monitor, deadline=deadline)
        except BudgetExceeded as exc:
            if (config.method != "dyposub" or exc.kind != "monomials"
                    or config.initial_threshold <= PAPER_THRESHOLD):
                raise
            log.info("ring %s: monomial budget exhausted from threshold "
                     "%g — re-running from %g", ring.name,
                     config.initial_threshold, PAPER_THRESHOLD)
            # the abandoned run counts nowhere: the verdict, the
            # recorder's counters and the trace's readers report the run
            # it comes from
            vanishing.removed, vanishing.rewritten, vanishing.truncated = \
                counts
            if rec.enabled:
                rec.event("rewrite_retry", budget_kind=exc.kind,
                          threshold=PAPER_THRESHOLD)
            if monitor is not None:
                monitor = self._fresh_monitor(art, ring, rec)
            engine, remainder = self.stage_rewrite(
                art, ring, rec, monitor=monitor, deadline=deadline,
                threshold=PAPER_THRESHOLD)
        return engine, remainder, monitor

    # ------------------------------------------------------------------
    # Coefficient ring
    # ------------------------------------------------------------------

    def coefficient_ring(self, aig):
        """The rewrite stage's ring for the prepared ``aig``.

        A modular config gets one prime ``p > 2*B`` (:meth:`crt_bound`),
        and never less than the word-size prime ``2**61 - 1``: a
        non-zero remainder mod ``p`` proves the design buggy, a zero one
        proves it correct, so one run decides every design.
        """
        if self.config.ring == "exact":
            return EXACT
        return ModularRing(next_prime_above(
            max(2 * self.crt_bound(aig), _WORD_PRIME - 1)))

    @staticmethod
    def crt_bound(aig):
        """``B`` with every remainder coefficient in ``(-B, B)``."""
        n = aig.num_inputs
        out_bits = max(len(aig.outputs), n)
        return 1 << (n + out_bits + 1)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self, aig, recorder=None, *, store=None, design=None,
            use_cache=True):
        """Execute every stage and decide; the monolith's contract:
        returns a :class:`VerificationResult`, never raises on budget
        exhaustion (``status="timeout"``).

        Reentrant: all per-run state is local, so one :class:`Pipeline`
        can serve the CLI, batch verify and overlapping service jobs.
        The runtime collaborators are injectable — ``recorder`` receives
        the obs event stream and ``store`` (a
        :class:`repro.obs.store.RunStore`) plugs in the certificate
        cache: with a store attached, the design's canonical
        fingerprint is looked up *before any stage runs* and a cached
        verdict is replayed in O(hash) (``stats["cache_hit"]`` True, a
        ``cache_hit`` obs event, no rewrite phase), while fresh final
        verdicts are persisted for the next submission.  ``use_cache``
        False forces a full run (the verdict is still persisted);
        ``design`` labels the cache row.
        """
        config = self.config
        start = time.monotonic()
        rec = recorder if recorder is not None else NULL
        width_a = config.width_a
        width_b = config.width_b
        if width_a is None:
            if aig.num_inputs % 2:
                raise VerificationError(
                    "cannot infer operand widths from an odd input count",
                    code="RA030", context={"inputs": aig.num_inputs})
            width_a = aig.num_inputs // 2
        if width_b is None:
            width_b = aig.num_inputs - width_a

        if rec.enabled:
            rec.event("run_begin", method=config.method, nodes=aig.num_ands,
                      width_a=width_a, width_b=width_b, signed=config.signed)
        fingerprint = None
        if store is not None:
            from repro.service.fingerprint import config_fingerprint

            fingerprint = config_fingerprint(aig, config)
            if use_cache:
                cached = self._cache_stage(store, fingerprint, rec, start)
                if cached is not None:
                    return cached
        if config.preflight:
            self.stage_preflight(aig, width_a, rec,
                                 SPECIFICATIONS[config.spec])
        art = self.stage_prepare(aig, width_a, width_b, rec)
        if rec.enabled:
            self._emit_stage_map(art, rec)
        ring = self.coefficient_ring(art.aig)
        monitor = None
        if config.check_invariants:
            monitor = self.stage_invariants(art, ring, rec)
        log.debug("%s: %d nodes, %d blocks, %d components, %d rules",
                  config.method, art.aig.num_ands, len(art.blocks),
                  len(art.components), len(art.vanishing))
        # Live watchdogs (repro.obs.live.LiveMonitor) expose a ``pulse``
        # heartbeat; thread it into the vanishing reducer so stalls are
        # caught even inside one long normalization.
        pulse = getattr(rec, "pulse", None)
        if pulse is not None:
            art.vanishing.set_pulse(pulse)

        deadline = (start + config.time_budget
                    if config.time_budget is not None else None)
        if rec.enabled:
            rec.event("ring", name=ring.name, modulus=ring.modulus, run=1)
        try:
            engine, remainder, monitor = self._rewrite(
                art, ring, rec, monitor, deadline)
        except BudgetExceeded as exc:
            return self._timeout_result(art, exc, rec, start, ring)
        result = self.stage_decide(art, engine, remainder, ring, rec, start,
                                   monitor=monitor)
        if fingerprint is not None:
            result.stats["fingerprint"] = fingerprint
            result.stats["cache_hit"] = False
            self._persist_verdict(store, fingerprint, result, rec, design)
        return result

    # ------------------------------------------------------------------
    # Certificate cache
    # ------------------------------------------------------------------

    def _cache_stage(self, store, fingerprint, rec, start):
        """Replay a cached verdict; None on a miss.

        The O(hash) fast path: no preflight, no polynomial work, no
        rewrite phase — the replayed :class:`VerificationResult` carries
        the originally recorded verdict/stats/trace plus the cache
        metadata (``stats["cache_hit"]``/``fingerprint``/``cached_at``/
        ``cache_hits``).
        """
        from repro.service.persistence import (cache_lookup,
                                               result_from_record)

        record = cache_lookup(store, fingerprint)
        if record is None:
            if rec.enabled:
                rec.event("cache_miss", fingerprint=fingerprint)
            return None
        result = result_from_record(record)
        seconds = time.monotonic() - start
        if rec.enabled:
            rec.event("cache_hit", fingerprint=fingerprint,
                      status=result.status, hits=record.get("cache_hits"),
                      cached_at=record.get("cached_at"))
            rec.event("run_end", status=result.status,
                      seconds=round(seconds, 6), cache_hit=True,
                      steps=result.stats.get("steps"),
                      max_poly_size=result.stats.get("max_poly_size"))
        log.info("%s: cache hit (%s, fingerprint %s…) in %.4fs",
                 result.method, result.status, fingerprint[:12], seconds)
        return result

    def _persist_verdict(self, store, fingerprint, result, rec, design):
        """Cache a fresh final verdict (best effort — cache maintenance
        must never turn a finished verification into a failure)."""
        from repro.service.persistence import cache_store, verdict_record

        try:
            record = verdict_record(result, rec, fingerprint=fingerprint)
            stored = cache_store(store, fingerprint, record, design=design)
        except Exception as exc:  # noqa: BLE001 - cache is an optimization
            log.warning("could not cache verdict for %s…: %s",
                        fingerprint[:12], exc)
            return
        if stored and rec.enabled:
            rec.event("cache_store", fingerprint=fingerprint,
                      status=result.status)

    # ------------------------------------------------------------------
    # Decide
    # ------------------------------------------------------------------

    def _timeout_result(self, art, exc, rec, start, ring):
        config = self.config
        seconds = time.monotonic() - start
        stats = dict(art.stats)
        engine = getattr(exc, "engine", None)
        if engine is not None:
            stats.update(engine_stats(engine))
            if engine.last_threshold is not None:
                stats["threshold"] = engine.last_threshold
            trace = engine.trace
            steps = engine.steps
            max_size = engine.max_size
        else:
            # the deadline expired before a rewrite run started its
            # engine, so only the exception's fields exist
            stats.update({"steps": exc.steps_done,
                          "max_poly_size": exc.max_size})
            trace = Trace()
            steps = exc.steps_done
            max_size = exc.max_size
        stats["budget_kind"] = exc.kind
        stats["ring"] = ring.name
        if rec.enabled:
            rec.event("run_end", status="timeout",
                      seconds=round(seconds, 6), budget_kind=exc.kind,
                      steps=steps, max_poly_size=max_size)
        log.info("%s: timeout (%s) after %.2fs, %d steps, peak %d",
                 config.method, exc.kind, seconds, steps, max_size)
        return VerificationResult(status="timeout", method=config.method,
                                  seconds=seconds, stats=stats, trace=trace)

    def stage_decide(self, art, engine, remainder, ring, rec, start,
                     monitor=None):
        """Map the final remainder to a verdict + result record.

        The design is correct iff the remainder vanishes — modulo
        ``2**W`` for a wrapping specification, whose counterexample
        descent then runs mod ``2**W`` as well."""
        config = self.config
        seconds = time.monotonic() - start
        stats = dict(art.stats)
        stats.update(engine_stats(engine))
        stats["ring"] = ring.name
        if config.record_certificate:
            from repro.core.certificate import Certificate

            stats["certificate"] = Certificate(
                spec=art.spec, steps=list(engine.certificate_steps),
                remainder=remainder,
                meta={"method": config.method, "nodes": art.aig.num_ands})
        leftover = remainder.support() - set(art.aig.inputs)
        if leftover:
            raise VerificationError(
                f"remainder still references internal variables "
                f"{sorted(leftover)[:5]}",
                code="RP005", context={"variables": sorted(leftover)[:8]})
        if monitor is not None:
            stats["invariants"] = monitor.summary()
        modulus = SPECIFICATIONS[config.spec].modulus(art.aig)
        residue = remainder if modulus is None else reduce_mod(remainder,
                                                               modulus)
        status = "correct" if residue.is_zero() else "buggy"
        if rec.enabled:
            rec.event("run_end", status=status, seconds=round(seconds, 6),
                      steps=engine.steps, max_poly_size=engine.max_size)
        log.info("%s: %s in %.2fs (%d steps, peak %d monomials, "
                 "%d backtracks)", config.method, status, seconds,
                 engine.steps, engine.max_size, engine.backtracks)
        if residue.is_zero():
            return VerificationResult(status="correct", method=config.method,
                                      remainder=remainder, seconds=seconds,
                                      stats=stats, trace=engine.trace)
        counterexample = None
        if config.want_counterexample:
            # sound under a modular ring too: the witness point has
            # remainder value non-zero mod p, so the exact remainder —
            # and with it the circuit/spec mismatch — is non-zero there
            counterexample, a_value, b_value = counterexample_for(
                art.aig, remainder, art.width_a, modulus=modulus)
            stats["counterexample_a"] = a_value
            stats["counterexample_b"] = b_value
        return VerificationResult(status="buggy", method=config.method,
                                  remainder=remainder,
                                  counterexample=counterexample,
                                  seconds=seconds, stats=stats,
                                  trace=engine.trace)


def engine_stats(engine):
    """Flatten one rewriting engine's counters into result stats."""
    return {
        "steps": engine.steps,
        "attempts": engine.attempt_count,
        "backtracks": engine.backtracks,
        "threshold_doublings": engine.threshold_doublings,
        "max_poly_size": engine.max_size,
        "vanishing_removed": engine.vanishing.total_removed,
        "vanishing_rules": len(engine.vanishing),
        "compact_hits": engine.compact_hits,
        "compact_misses": engine.compact_misses,
    }
