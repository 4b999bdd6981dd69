"""Tests for the rewriting engine: candidacy rule, substitution,
compact matching, budgets, and both orders."""

import pytest

from repro.aig.ops import cleanup
from repro.core.atomic import detect_atomic_blocks
from repro.core.cones import build_components
from repro.core.dynamic import dynamic_backward_rewriting
from repro.core.rewriting import RewritingEngine
from repro.core.spec import multiplier_specification
from repro.core.vanishing import VanishingRuleSet
from repro.errors import BudgetExceeded, VerificationError
from repro.genmul import generate_multiplier
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
