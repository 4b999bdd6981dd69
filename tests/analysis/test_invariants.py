"""Pipeline invariant checkers: clean runs pass, tampering is caught."""

import pytest

from repro.analysis import (
    InvariantMonitor,
    check_component_coverage,
    check_vanishing_rules,
)
from repro.core.verifier import verify_multiplier
from repro.errors import PipelineInvariantError
from repro.genmul.multiplier import generate_multiplier


def _pipeline(arch="SP-AR-RC", width=4):
    """Cleaned AIG plus the partition/rule machinery for one design."""
    from repro.aig.ops import cleanup
    from repro.core.atomic import detect_atomic_blocks
    from repro.core.cones import build_components
    from repro.core.spec import multiplier_specification
    from repro.core.vanishing import rules_from_blocks

    aig = cleanup(generate_multiplier(arch, width))
    spec = multiplier_specification(aig, width, width)
    blocks = detect_atomic_blocks(aig)
    rules = rules_from_blocks(blocks)
    components, rules = build_components(aig, blocks, rules)
    return aig, spec, blocks, components, rules


class TestVerifyWithInvariants:
    @pytest.mark.parametrize("arch,width", [("SP-AR-RC", 4),
                                            ("SP-DT-LF", 4),
                                            ("SP-WT-CL", 5)])
    def test_clean_designs_verify_with_checks_on(self, arch, width):
        aig = generate_multiplier(arch, width)
        result = verify_multiplier(aig, width, width, check_invariants=True)
        assert result.ok
        assert result.stats["invariants"]["checked_commits"] > 0

    def test_static_order_also_passes(self):
        aig = generate_multiplier("SP-AR-RC", 4)
        result = verify_multiplier(aig, 4, 4, method="static",
                                   check_invariants=True)
        assert result.ok

    def test_buggy_design_is_still_reported_buggy(self):
        # Invariants guard the pipeline, not the circuit: a functional
        # fault must surface as status="buggy", not as an RP error.
        from repro.genmul.faults import inject_visible_fault

        aig = inject_visible_fault(generate_multiplier("SP-AR-RC", 4),
                                   kind="gate-type", seed=0)
        result = verify_multiplier(aig, 4, 4, check_invariants=True)
        assert result.status == "buggy"


class TestComponentCoverage:
    def test_clean_partition_passes(self):
        aig, _spec, _blocks, components, _rules = _pipeline()
        covered = check_component_coverage(aig, components)
        assert covered > 0

    def test_missing_component_detected(self):
        aig, _spec, _blocks, components, _rules = _pipeline()
        with pytest.raises(PipelineInvariantError) as excinfo:
            check_component_coverage(aig, components[:-1])
        assert excinfo.value.code == "RP001"

    def test_overlapping_claims_detected(self):
        aig, _spec, _blocks, components, _rules = _pipeline()
        victim, other = components[0], components[1]
        victim.internal = frozenset(victim.internal) | set(other.internal)
        with pytest.raises(PipelineInvariantError):
            check_component_coverage(aig, components)


class TestVanishingRuleTable:
    def test_clean_table_passes(self):
        _aig, _spec, _blocks, _components, rules = _pipeline()
        assert check_vanishing_rules(rules) == len(rules)

    def test_stale_trigger_mask_detected(self):
        _aig, _spec, _blocks, _components, rules = _pipeline()
        if not len(rules):
            pytest.skip("no rules for this design")
        rules._trigger_mask ^= rules._trigger_mask & -rules._trigger_mask
        with pytest.raises(PipelineInvariantError) as excinfo:
            check_vanishing_rules(rules)
        assert excinfo.value.code == "RP002"

    def test_self_reproducing_rhs_detected(self):
        _aig, _spec, _blocks, _components, rules = _pipeline()
        if not rules._by_var:
            pytest.skip("no rules for this design")
        var, entries = next(iter(rules._by_var.items()))
        partner_bit, pair_mask, terms = entries[0]
        entries[0] = (partner_bit, pair_mask, terms + [(1, pair_mask)])
        with pytest.raises(PipelineInvariantError):
            check_vanishing_rules(rules)

    def test_stale_rescan_mask_detected(self):
        _aig, _spec, _blocks, _components, rules = _pipeline()
        if not len(rules):
            pytest.skip("no rules for this design")
        check_vanishing_rules(rules)  # compiles the scan tables
        entry = next(entry for entries in rules._by_low.values()
                     for entry in entries if entry[2])
        scan_terms = rules._scan_terms(entry)
        check_vanishing_rules(rules)
        coeff, extra, rescan = scan_terms[0]
        low_trigger = rules._trigger_mask & -rules._trigger_mask
        rules._scan_terms_of[id(entry)] = (
            (coeff, extra, rescan ^ low_trigger),) + scan_terms[1:]
        with pytest.raises(PipelineInvariantError) as excinfo:
            check_vanishing_rules(rules)
        assert excinfo.value.code == "RP002"

    def test_add_rule_rejects_bad_rules_upfront(self):
        from repro.core.vanishing import VanishingRuleSet
        from repro.errors import RuleError

        rules = VanishingRuleSet()
        with pytest.raises(RuleError):
            rules.add_rule(3, 3, [])
        with pytest.raises(ValueError):    # backward compat
            rules.add_rule(3, 4, [(1, (3, 4))])


class TestMonitor:
    def test_signature_mismatch_detected(self):
        aig, spec, _blocks, components, _rules = _pipeline()
        monitor = InvariantMonitor(aig, spec, components, samples=2)
        # Feed a polynomial that is NOT value-equivalent to the spec.
        from repro.poly.polynomial import Polynomial

        wrong = Polynomial.constant(12345)
        # Pick a component with no unsubstituted consumers (a sink).
        sink = next(c for c in components
                    if not monitor._consumers[c.index])
        with pytest.raises(PipelineInvariantError) as excinfo:
            monitor.on_commit(sink.index, sink, wrong)
        assert excinfo.value.code == "RP004"

    def test_double_substitution_detected(self):
        aig, spec, _blocks, components, _rules = _pipeline()
        monitor = InvariantMonitor(aig, spec, components, samples=0)
        sink = next(c for c in components
                    if not monitor._consumers[c.index])
        from repro.poly.polynomial import Polynomial

        monitor.on_commit(sink.index, sink, Polynomial.constant(0))
        with pytest.raises(PipelineInvariantError) as excinfo:
            monitor.on_commit(sink.index, sink, Polynomial.constant(0))
        assert excinfo.value.code == "RP003"

    def test_out_of_order_substitution_detected(self):
        aig, spec, _blocks, components, _rules = _pipeline()
        monitor = InvariantMonitor(aig, spec, components, samples=0)
        producer = next(c for c in components
                        if monitor._consumers[c.index])
        from repro.poly.polynomial import Polynomial

        with pytest.raises(PipelineInvariantError) as excinfo:
            monitor.on_commit(producer.index, producer,
                              Polynomial.constant(0))
        assert excinfo.value.code == "RP003"


class TestBlockCoverage:
    def test_clean_blocks_report_stats(self):
        from repro.core.atomic import block_coverage

        aig, _spec, blocks, _components, _rules = _pipeline()
        stats = block_coverage(aig, blocks)
        assert stats["blocks"] == len(blocks)
        assert 0 < stats["covered"] <= stats["ands"]

    def test_overlapping_blocks_detected(self):
        from repro.core.atomic import block_coverage

        aig, _spec, blocks, _components, _rules = _pipeline()
        if len(blocks) < 2:
            pytest.skip("need two blocks")
        doubled = list(blocks) + [blocks[0]]
        with pytest.raises(PipelineInvariantError):
            block_coverage(aig, doubled)
