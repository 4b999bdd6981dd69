"""Tests for the rewriting engine: candidacy rule, substitution,
compact matching, resumable attempts, budgets, and both orders."""

from types import SimpleNamespace

import pytest

from repro.aig.ops import cleanup
from repro.core import dynamic, rewriting, verify_multiplier
from repro.core.atomic import detect_atomic_blocks
from repro.core.cones import build_components
from repro.core.dynamic import dynamic_backward_rewriting
from repro.core.rewriting import AttemptTooLarge, RewritingEngine
from repro.core.spec import multiplier_specification
from repro.core.vanishing import VanishingRuleSet
from repro.errors import BudgetExceeded, VerificationError
from repro.genmul import generate_multiplier
from repro.opt.scripts import optimize
from repro.poly import Polynomial


def make_engine(arch="SP-AR-RC", width=4, blocks=True, **kwargs):
    aig = cleanup(generate_multiplier(arch, width))
    detected = detect_atomic_blocks(aig) if blocks else []
    components, vanishing = build_components(aig, detected)
    spec = multiplier_specification(aig, width, width)
    return RewritingEngine(spec, components, vanishing, **kwargs)


class TestCandidacy:
    def test_initial_candidates_have_no_pending_consumers(self):
        engine = make_engine()
        for index in engine.candidates():
            comp = engine.components[index]
            for other in engine.components.values():
                if other.index == index:
                    continue
                overlap = set(comp.output_vars) & set(other.input_vars)
                assert not overlap, \
                    f"{comp.describe()} feeds {other.describe()}"

    def test_non_candidate_rejected(self):
        engine = make_engine()
        non_candidates = (set(engine.components) - set(engine.candidates()))
        if not non_candidates:
            pytest.skip("all components are initial candidates")
        with pytest.raises(VerificationError):
            engine.attempt(min(non_candidates))

    def test_each_component_substituted_exactly_once(self):
        engine = make_engine()
        total = len(engine.components)
        engine.run_static()
        assert engine.steps == total
        assert engine.finished()


class TestStaticOrder:
    def test_static_reaches_zero_remainder(self):
        engine = make_engine()
        remainder = engine.run_static()
        assert remainder.is_zero()

    def test_static_on_dadda(self):
        engine = make_engine("SP-DT-LF")
        assert engine.run_static().is_zero()

    def test_trace_recording(self):
        engine = make_engine(record_trace=True)
        engine.run_static()
        assert len(engine.trace) == engine.steps
        assert max(engine.trace.sizes()) <= engine.max_size
        # structured records carry the committed component and step index
        assert [record.step for record in engine.trace] == list(
            range(1, engine.steps + 1))
        assert all(record.threshold is None for record in engine.trace)


class TestDynamicOrder:
    def test_dynamic_reaches_zero_remainder(self):
        engine = make_engine()
        assert dynamic_backward_rewriting(engine).is_zero()

    def test_dynamic_peak_not_worse_than_static(self):
        static_engine = make_engine("SP-DT-LF")
        static_engine.run_static()
        dynamic_engine = make_engine("SP-DT-LF")
        dynamic_backward_rewriting(dynamic_engine)
        assert dynamic_engine.max_size <= static_engine.max_size

    def test_threshold_must_be_positive(self):
        engine = make_engine()
        with pytest.raises(VerificationError):
            dynamic_backward_rewriting(engine, initial_threshold=0)

    def test_occurrence_counts_match_polynomial(self):
        engine = make_engine()
        counts = engine.occurrence_counts()
        for index, total in counts.items():
            comp = engine.components[index]
            direct = sum(1 for mono in engine.sp.monos
                         for v in comp.output_vars if mono >> v & 1)
            assert total == direct

    @pytest.mark.parametrize("arch, width", [
        ("SP-DT-LF", 8),    # low churn: the index is carried for 26 steps
        ("BP-AR-RC", 4),    # high churn: dropped after 4
    ])
    def test_occurrence_counts_match_recount_at_every_step(self, arch, width):
        """Algorithm 2's candidate sort reads the carried occurrence
        index or, once a high-churn kernel dropped it, counts the
        candidate outputs on demand; either way each count equals a
        brute-force recount over ``SP_i``, and both runs read both."""
        engine = make_engine(arch, width)
        counts_of = engine.occurrence_counts
        seen = set()

        def checked():
            counts = counts_of()
            seen.add(engine.sp.occ is not None)
            monos = engine.sp.monos
            assert counts == {
                idx: sum(1 for mono in monos
                         for var in engine.components[idx].output_vars
                         if mono >> var & 1)
                for idx in engine.candidates()}
            return counts

        engine.occurrence_counts = checked
        assert dynamic_backward_rewriting(engine).is_zero()
        assert seen == {True, False}


class TestCompactSubstitution:
    def test_compact_preserves_remainder(self):
        """With and without compact matching the final remainder must be
        identical (zero) — rule 1 is an optimization, not a semantic
        change."""
        engine = make_engine("SP-AR-RC")
        assert dynamic_backward_rewriting(engine).is_zero()
        assert engine.compact_hits > 0

        engine2 = make_engine("SP-AR-RC")
        for comp in engine2.components.values():
            comp.compact = None
        assert dynamic_backward_rewriting(engine2).is_zero()

    def test_compact_hit_shrinks_or_keeps_size(self):
        engine = make_engine("SP-AR-RC")
        # run until the first compact hit and check the growth there
        while not engine.finished():
            before_hits = engine.compact_hits
            counts = engine.occurrence_counts()
            index = min(counts, key=lambda i: (counts[i], i))
            old_size = len(engine.sp)
            new_sp = engine.attempt(index)
            engine.commit(index, new_sp)
            if engine.compact_hits > before_hits:
                assert len(new_sp) <= old_size + 2
                return
        pytest.skip("no compact hit occurred")


def check_resumed_attempts(engine, factors=(0.5, 1, 1.5, 2, 4, 8)):
    """Attempt every candidate twice, once unbounded and once paused at
    bounds ``factor * |SP_i|`` before it finishes; the results must
    agree and ``SP_i`` must stay untouched.  Returns the pause count."""
    sp = engine.sp
    monos, coeffs = list(sp.monos), list(sp.coeffs)
    pauses = 0
    for index in engine.candidates():
        try:
            expected = engine.attempt(index)
        except AttemptTooLarge:
            expected = None
        attempt = engine.start(index)
        try:
            for factor in factors:
                bound = factor * len(sp)
                result = attempt.advance(bound)
                if result is not None:
                    break
                assert attempt.paused and attempt.size > bound
                pauses += 1
            else:
                result = attempt.advance(None)
        except AttemptTooLarge:
            assert expected is None, index
            continue
        assert expected is not None, index
        assert result.monos == expected.monos, index
        assert result.coeffs == expected.coeffs, index
        assert engine.sp is sp
        assert sp.monos == monos and sp.coeffs == coeffs
    return pauses


class TestResumableAttempts:
    @pytest.mark.parametrize("arch,width,every", [
        ("SP-WT-CL", 8, 8),
        ("BP-AR-RC", 4, 5),
    ])
    def test_resumed_attempt_equals_unbounded_attempt(self, arch, width,
                                                      every):
        # the hard cap keeps the blow-up candidates cheap to reject
        engine = make_engine(arch, width, monomial_budget=20_000)
        commit = engine.commit
        pauses = []

        def checked_commit(index, new_sp, threshold=None):
            if engine.steps % every == 0:
                pauses.append(check_resumed_attempts(engine))
            commit(index, new_sp, threshold=threshold)

        engine.commit = checked_commit
        assert dynamic_backward_rewriting(engine).is_zero()
        assert len(pauses) > 3
        assert sum(pauses) > 0

    def test_budget_fallback_finishes_paused_attempts(self, monkeypatch):
        """With a vanishing slack every attempt pauses at once, so each
        step ends in the monomial-budget fallback, which must finish the
        least-occurrence candidate before committing it."""
        monkeypatch.setattr(dynamic, "SLACK", 1e-12)
        engine = make_engine("SP-DT-LF", blocks=False, monomial_budget=1000,
                             record_trace=True)
        assert dynamic_backward_rewriting(engine,
                                          initial_threshold=0.1).is_zero()
        thresholds = {step.threshold for step in engine.trace
                      if step.threshold is not None}
        assert thresholds == {0.1 * 2 ** 14}

    def test_finished_attempt_is_returned_again(self):
        engine = make_engine()
        index = engine.candidates()[0]
        attempt = engine.start(index)
        first = attempt.advance(None)
        assert attempt.advance(0) is first
        assert not attempt.paused

    def test_paused_attempt_holds_below_its_size(self):
        engine = make_engine("SP-DT-LF", blocks=False)
        counts = engine.occurrence_counts()
        index = max(counts, key=lambda i: (counts[i], i))
        attempt = engine.start(index)
        assert attempt.advance(0) is None
        paused_at = attempt.size
        assert attempt.advance(paused_at - 1) is None
        assert attempt.size == paused_at and attempt.bound == paused_at - 1
        assert attempt.advance(None) is not None
        attempt.close()  # no-op once finished
        assert not attempt.paused

    def test_work_guard_on_wallace_carry_lookahead(self):
        """Rejected blow-up attempts pause instead of being built in
        full; the commit order and the peak are unchanged."""
        result = verify_multiplier(generate_multiplier("SP-WT-CL", 8))
        assert result.status == "correct"
        assert result.stats["steps"] == 137
        assert result.stats["max_poly_size"] == 2392
        assert result.stats["vanishing_removed"] <= 150_000


def check_masked_attempts(engine):
    """Attempt every candidate with the kernel's product masks and
    without them; the arenas and the rule counters must agree.  Returns
    the number of candidates compared."""
    vanishing = engine.vanishing
    for index in engine.candidates():
        outcomes = []
        for masked in (True, False):
            if not masked:
                vanishing.product_masks = lambda rep_items: None
            removed, rewritten = vanishing.removed, vanishing.rewritten
            try:
                result = engine.attempt(index)
                arena = (result.monos, result.coeffs)
            except AttemptTooLarge:
                arena = None
            finally:
                vars(vanishing).pop("product_masks", None)
            outcomes.append((arena, vanishing.removed - removed,
                             vanishing.rewritten - rewritten))
        assert outcomes[0] == outcomes[1], index
    return len(engine.candidates())


class TestMaskedReduction:
    @pytest.mark.parametrize("arch,width,every", [
        ("SP-WT-CL", 8, 8),
        ("BP-AR-RC", 4, 5),
    ])
    def test_masked_attempt_equals_unmasked_attempt(self, arch, width,
                                                    every):
        engine = make_engine(arch, width, monomial_budget=20_000)
        commit = engine.commit
        compared = []

        def checked_commit(index, new_sp, threshold=None):
            if engine.steps % every == 0:
                compared.append(check_masked_attempts(engine))
            commit(index, new_sp, threshold=threshold)

        engine.commit = checked_commit
        assert dynamic_backward_rewriting(engine).is_zero()
        assert len(compared) > 3 and sum(compared) > 20
        assert engine.vanishing.truncated == 0

    def test_rule_work_on_wallace_carry_lookahead_is_unchanged(self):
        result = verify_multiplier(generate_multiplier("SP-WT-CL", 8),
                                   initial_threshold=0.1)
        assert result.stats["steps"] == 137
        assert result.stats["vanishing_removed"] == 75_800


class TestBudgets:
    def test_monomial_budget_trips(self):
        engine = make_engine("SP-DT-LF", monomial_budget=10)
        with pytest.raises(BudgetExceeded) as info:
            engine.run_static()
        assert info.value.kind == "monomials"

    def test_time_budget_trips(self):
        engine = make_engine("SP-DT-LF", width=6, time_budget=1e-9)
        with pytest.raises(BudgetExceeded) as info:
            dynamic_backward_rewriting(engine)
        assert info.value.kind == "time"

    def test_time_budget_trips_inside_an_attempt(self, monkeypatch):
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(rewriting, "time",
                            SimpleNamespace(monotonic=lambda: clock.now))
        engine = make_engine("SP-DT-LF", width=8, blocks=False,
                             time_budget=60)
        counts = engine.occurrence_counts()
        index = max(counts, key=lambda i: (counts[i], i))
        clock.now = 61.0
        with pytest.raises(BudgetExceeded) as info:
            engine.attempt(index)
        assert info.value.kind == "time"
        assert engine.steps == 0

    def test_timeout_reports_the_threshold_in_force(self, monkeypatch):
        """A timeout in a step after a threshold doubling reports the
        step's own threshold, not the doubled one of the step before."""
        doubled_at = []
        note_threshold = RewritingEngine.note_threshold

        def spy(engine, value):
            doubled_at.append(engine.steps)
            note_threshold(engine, value)

        def check_time(engine):
            if doubled_at and engine.steps > doubled_at[-1]:
                raise BudgetExceeded("time budget exhausted", kind="time",
                                     steps_done=engine.steps,
                                     max_size=engine.max_size)

        monkeypatch.setattr(RewritingEngine, "note_threshold", spy)
        monkeypatch.setattr(RewritingEngine, "check_time", check_time)
        aig = optimize(generate_multiplier("SP-DT-LF", 8), "map3")
        result = verify_multiplier(aig, initial_threshold=0.1)
        assert result.status == "timeout"
        assert result.stats["threshold_doublings"] >= 1
        assert result.stats["threshold"] == 0.1
        assert "threshold=0.1)" in result.summary()

    def test_budget_error_carries_progress(self):
        engine = make_engine("SP-DT-LF", monomial_budget=10)
        try:
            engine.run_static()
        except BudgetExceeded as exc:
            assert exc.max_size > 10
            assert exc.steps_done >= 0


class TestInvariants:
    def test_duplicate_output_vars_rejected(self):
        from repro.core.components import cone_component

        poly = Polynomial.variable(1)
        comps = [cone_component(0, "FFC", 5, (1,), poly, {5}),
                 cone_component(1, "FFC", 5, (1,), poly, {5})]
        with pytest.raises(VerificationError):
            RewritingEngine(Polynomial.zero(), comps, VanishingRuleSet())

    def test_remainder_support_is_inputs_only(self):
        engine = make_engine("SP-WT-CL")
        remainder = dynamic_backward_rewriting(engine)
        assert remainder.is_zero()
        # also check mid-run invariant: sp support never contains retired vars
        engine2 = make_engine("SP-AR-RC")
        retired = set()
        while not engine2.finished():
            counts = engine2.occurrence_counts()
            index = min(counts, key=lambda i: (counts[i], i))
            comp = engine2.components[index]
            engine2.commit(index, engine2.attempt(index))
            retired.update(comp.output_vars)
            assert not (engine2.remainder().support() & retired)
