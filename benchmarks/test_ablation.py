"""Ablation benchmarks for the design choices listed in DESIGN.md.

Each ablation switches off one ingredient of DyPoSub and measures the
effect on the intermediate-polynomial peak:

1. candidate order (ascending occurrences — the paper's heuristic);
2. growth threshold / backtracking (Algorithm 2 lines 7-17);
3. compact word-level substitution (rule 1, eq. (6));
4. vanishing-monomial removal;
5. atomic-block detection (reverse engineering).
"""

import pytest

from conftest import one_shot
from repro.bench.harness import benchmark_multiplier
from repro.core import verify_multiplier
from repro.core.dynamic import INITIAL_THRESHOLD

BUDGET = 400_000
TIME = 180


@pytest.fixture(scope="module")
def optimized_8x8():
    return benchmark_multiplier("SP-DT-LF", 8, "resyn3")


@pytest.fixture(scope="module")
def mapped_8x8():
    return benchmark_multiplier("SP-DT-LF", 8, "map3")


def peak(result):
    return result.stats["max_poly_size"]


class TestOrderAblation:
    def test_dynamic_beats_static_order(self, benchmark, optimized_8x8):
        dynamic = one_shot(benchmark, verify_multiplier, optimized_8x8,
                           monomial_budget=BUDGET, time_budget=TIME)
        static = verify_multiplier(optimized_8x8, method="static",
                                   monomial_budget=BUDGET, time_budget=TIME)
        assert dynamic.ok
        assert peak(dynamic) < peak(static)


class TestThresholdAblation:
    @pytest.mark.parametrize("threshold", [0.02, 0.1, 0.5, 2.0])
    def test_threshold_sweep_all_verify(self, benchmark, optimized_8x8,
                                        threshold):
        result = one_shot(benchmark, verify_multiplier, optimized_8x8,
                          monomial_budget=BUDGET, time_budget=TIME,
                          initial_threshold=threshold)
        assert result.ok, threshold

    def test_paper_threshold_is_competitive(self, benchmark, optimized_8x8):
        """The paper's 10% and the default initial threshold must each
        be within 4x of the best peak in the sweep (neither need win
        outright)."""
        def sweep():
            peaks = {}
            for threshold in sorted({0.02, 0.1, INITIAL_THRESHOLD, 2.0}):
                result = verify_multiplier(optimized_8x8,
                                           monomial_budget=BUDGET,
                                           time_budget=TIME,
                                           initial_threshold=threshold)
                peaks[threshold] = peak(result)
            return peaks
        peaks = one_shot(benchmark, sweep)
        assert peaks[0.1] <= 4 * min(peaks.values())
        assert peaks[INITIAL_THRESHOLD] <= 4 * min(peaks.values())


class TestCompactAblation:
    def test_compact_reduces_peak(self, benchmark, optimized_8x8):
        with_compact = one_shot(benchmark, verify_multiplier, optimized_8x8,
                                monomial_budget=BUDGET, time_budget=TIME)
        without = verify_multiplier(optimized_8x8, monomial_budget=BUDGET,
                                    time_budget=TIME, use_compact=False)
        assert with_compact.ok and without.ok
        assert peak(with_compact) <= peak(without)
        assert with_compact.stats["compact_hits"] > 0
        assert without.stats["compact_hits"] == 0


class TestVanishingAblation:
    def test_rules_reduce_peak_on_mapped(self, mapped_8x8, benchmark):
        with_rules = one_shot(benchmark, verify_multiplier, mapped_8x8,
                              monomial_budget=BUDGET, time_budget=TIME)
        assert with_rules.ok
        without = verify_multiplier(mapped_8x8, monomial_budget=peak(with_rules),
                                    time_budget=TIME, use_vanishing=False)
        # without vanishing removal the same budget must not do better
        assert without.timed_out or peak(without) >= peak(with_rules) // 4

    def test_extended_rules_help_or_are_neutral(self, benchmark, mapped_8x8):
        extended = one_shot(benchmark, verify_multiplier, mapped_8x8,
                            monomial_budget=BUDGET, time_budget=TIME,
                            extended_rules=True)
        basic = verify_multiplier(mapped_8x8, monomial_budget=BUDGET,
                                  time_budget=TIME, extended_rules=False)
        assert extended.ok
        if basic.ok:
            assert peak(extended) <= 2 * peak(basic)


class TestImplicationRuleAblation:
    def test_carry_operator_rules_tame_mapped_designs(self, benchmark,
                                                      mapped_8x8):
        """Without the implication-derived (carry-operator) rules the
        technology-mapped multiplier is orders of magnitude harder."""
        with_rules = one_shot(benchmark, verify_multiplier, mapped_8x8,
                              monomial_budget=BUDGET, time_budget=TIME)
        assert with_rules.ok
        without = verify_multiplier(mapped_8x8, monomial_budget=BUDGET,
                                    time_budget=TIME,
                                    use_implications=False)
        if without.ok:
            assert peak(without) >= 4 * peak(with_rules)
        # a timeout without the rules proves the point just as well

    def test_prefix_adder_design_needs_the_rules(self, benchmark):
        """Kogge-Stone-based multipliers depend on G*P rules."""
        aig = benchmark_multiplier("SP-DT-KS", 8, "none")
        with_rules = one_shot(benchmark, verify_multiplier, aig,
                              monomial_budget=BUDGET, time_budget=TIME)
        assert with_rules.ok
        assert with_rules.stats["implication_rules"] > 0


class TestAtomicBlockAblation:
    def test_blocks_reduce_peak(self, benchmark, optimized_8x8):
        with_blocks = one_shot(benchmark, verify_multiplier, optimized_8x8,
                               monomial_budget=BUDGET, time_budget=TIME)
        without = verify_multiplier(optimized_8x8, monomial_budget=BUDGET,
                                    time_budget=TIME,
                                    use_atomic_blocks=False)
        assert with_blocks.ok
        if without.ok:
            assert peak(with_blocks) <= peak(without)
        assert with_blocks.stats["atomic_blocks"] > 0
