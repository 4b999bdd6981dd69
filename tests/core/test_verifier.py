"""End-to-end tests of Algorithm 1 (verify_multiplier)."""

import pytest

from repro.core import verify_multiplier
from repro.core.counterexample import find_nonzero_assignment
from repro.errors import ConfigError, VerificationError
from repro.genmul import (
    MultiplierSpec,
    generate_multiplier,
    inject_visible_fault,
    multiply_reference,
)
from repro.opt.scripts import optimize
from repro.poly import Polynomial


class TestCorrectDesigns:
    @pytest.mark.parametrize("arch", [
        "SP-AR-RC", "SP-DT-LF", "SP-WT-CL", "SP-BD-KS", "SP-OS-CU",
        "SP-AR-CK", "SP-WT-BK",
    ])
    def test_simple_ppg_4x4(self, arch):
        result = verify_multiplier(generate_multiplier(arch, 4))
        assert result.ok, (arch, result.status)
        assert result.remainder.is_zero()

    @pytest.mark.parametrize("arch", ["BP-AR-RC", "BP-WT-RC"])
    def test_booth_4x4(self, arch):
        result = verify_multiplier(generate_multiplier(arch, 4),
                                   monomial_budget=500_000, time_budget=120)
        assert result.ok, (arch, result.status)

    def test_rectangular(self):
        aig = generate_multiplier("SP-DT-KS", 5, 3)
        result = verify_multiplier(aig, width_a=5, width_b=3)
        assert result.ok

    def test_signed(self):
        aig = generate_multiplier("SPS-AR-RC", 4)
        result = verify_multiplier(aig, 4, 4, signed=True)
        assert result.ok

    def test_both_methods_agree(self, mult_4x4_dadda):
        dynamic = verify_multiplier(mult_4x4_dadda, method="dyposub")
        static = verify_multiplier(mult_4x4_dadda, method="static")
        assert dynamic.ok and static.ok

    def test_wallace_carry_lookahead_resyn3_at_the_default_threshold(self):
        """Table I's SP-WT-CL 8x8 resyn3 under the small-scale budget
        (50,000 monomials, 60 s).  From the paper's 10% its committed
        peak is 48,760 monomials, just under the budget; the default
        threshold keeps it below 5,000."""
        aig = optimize(generate_multiplier("SP-WT-CL", 8), "resyn3")
        result = verify_multiplier(aig, monomial_budget=50_000,
                                   time_budget=60)
        assert result.status == "correct"
        assert result.stats["max_poly_size"] < 5_000

    def test_stats_populated(self, mult_4x4_dadda):
        result = verify_multiplier(mult_4x4_dadda, record_trace=True)
        stats = result.stats
        for key in ("nodes", "components", "atomic_blocks", "max_poly_size",
                    "steps", "vanishing_removed", "compact_hits"):
            assert key in stats
        assert stats["steps"] == stats["components"]
        assert len(result.trace) == stats["steps"]
        assert "correct" in result.summary()


class TestBuggyDesigns:
    @pytest.mark.parametrize("kind", ["gate-type", "input-negation",
                                      "output-negation", "wrong-wire"])
    def test_fault_rejected_with_counterexample(self, kind, mult_4x4_dadda):
        buggy = inject_visible_fault(mult_4x4_dadda, kind=kind, seed=23)
        result = verify_multiplier(buggy)
        assert result.status == "buggy"
        assert result.counterexample is not None
        # the counterexample must actually expose the bug in simulation
        spec = MultiplierSpec.from_name("SP-DT-LF", 4, 4)
        a = result.stats["counterexample_a"]
        b = result.stats["counterexample_b"]
        from repro.aig.simulate import outputs_as_int, simulate_words

        a_lits = [2 * v for v in buggy.inputs[:4]]
        b_lits = [2 * v for v in buggy.inputs[4:]]
        got = outputs_as_int(simulate_words(buggy, [(a, a_lits), (b, b_lits)]))
        assert got != multiply_reference(spec, a, b)

    def test_static_also_rejects(self, mult_4x4_array):
        buggy = inject_visible_fault(mult_4x4_array, seed=3)
        result = verify_multiplier(buggy, method="static")
        assert result.status == "buggy"

    def test_counterexample_optional(self, mult_4x4_array):
        buggy = inject_visible_fault(mult_4x4_array, seed=3)
        result = verify_multiplier(buggy, want_counterexample=False)
        assert result.status == "buggy"
        assert result.counterexample is None


class TestBudgetsAndOptions:
    def test_timeout_reported_not_raised(self, mult_8x8_dadda):
        result = verify_multiplier(mult_8x8_dadda, monomial_budget=5)
        assert result.timed_out
        assert result.stats["budget_kind"] == "monomials"

    def test_unknown_method_rejected(self, mult_4x4_array):
        # validated at config time, before any pipeline work
        with pytest.raises(ConfigError):
            verify_multiplier(mult_4x4_array, method="bdd")

    def test_unknown_ring_rejected(self, mult_4x4_array):
        with pytest.raises(ConfigError):
            verify_multiplier(mult_4x4_array, ring="float")
        with pytest.raises(ConfigError):
            verify_multiplier(mult_4x4_array, ring="modular:4")

    def test_odd_inputs_need_explicit_widths(self):
        aig = generate_multiplier("SP-AR-RC", 3, 2)
        with pytest.raises(VerificationError):
            verify_multiplier(aig)
        assert verify_multiplier(aig, width_a=3, width_b=2).ok

    def test_ablation_switches(self, mult_4x4_dadda):
        for kwargs in ({"use_atomic_blocks": False},
                       {"use_vanishing": False},
                       {"use_compact": False},
                       {"extended_rules": False}):
            result = verify_multiplier(mult_4x4_dadda,
                                       monomial_budget=500_000, **kwargs)
            assert result.ok, kwargs


class TestCounterexampleExtraction:
    def test_nonzero_point_found(self):
        poly = Polynomial.from_terms([(1, (1, 2)), (-1, (3,))])
        assignment = find_nonzero_assignment(poly)
        full = {v: assignment.get(v, 0) for v in (1, 2, 3)}
        assert poly.evaluate(full) != 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(VerificationError):
            find_nonzero_assignment(Polynomial.zero())

    def test_constant_polynomial(self):
        assignment = find_nonzero_assignment(Polynomial.constant(5))
        assert assignment == {}

    def test_cancellation_heavy_polynomial(self):
        # p = x*y - x: zero unless x=1, y=0
        poly = Polynomial.from_terms([(1, (1, 2)), (-1, (1,))])
        assignment = find_nonzero_assignment(poly)
        full = {v: assignment.get(v, 0) for v in (1, 2)}
        assert poly.evaluate(full) != 0
