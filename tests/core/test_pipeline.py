"""The staged pipeline: VerifyConfig validation, exact/modular verdict
agreement, the one bound-covering prime of a modular run, and the one
architecture report a traced run builds for ``stage_map``."""

import math
import pickle
import re
import sys

import pytest

from repro.aig.aig import Aig
from repro.aig.ops import cleanup
from repro.aig.simulate import outputs_as_int, simulate_words
from repro.core import Pipeline, VerifyConfig, verify_multiplier
from repro.core.dynamic import INITIAL_THRESHOLD, PAPER_THRESHOLD
from repro.errors import ConfigError
from repro.genmul import generate_multiplier
from repro.genmul.faults import FAULT_KINDS, inject_visible_fault
from repro.obs.recorder import Recorder
from repro.poly.ring import is_probable_prime

WORD_PRIME = 2**61 - 1


def sextuple_output_multiplier():
    """A 1x1 "multiplier" whose circuit word is 7*a*b instead of a*b.

    The remainder is ``6*a*b``: zero modulo 2 and 3 but non-zero
    exactly.
    """
    aig = Aig()
    a = aig.add_input("a0")
    b = aig.add_input("b0")
    g = aig.add_and(a, b)
    for k in range(3):
        aig.add_output(g, name=f"o{k}")
    return aig


class TestVerifyConfig:
    def test_validation_is_early(self):
        # aig=None proves no pipeline work happens before validation
        with pytest.raises(ConfigError):
            verify_multiplier(None, method="bogus")
        with pytest.raises(ConfigError):
            verify_multiplier(None, ring="float64")
        with pytest.raises(ConfigError):
            verify_multiplier(None, ring="modular:97")
        # a remainder non-zero mod p may still be divisible by 2**W
        with pytest.raises(ConfigError):
            verify_multiplier(None, spec="adder", ring="modular")
        with pytest.raises(ConfigError):
            verify_multiplier(None, spec="subtractor")

    def test_frozen_and_picklable(self):
        config = VerifyConfig(ring="modular")
        with pytest.raises(Exception):
            config.method = "static"
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_from_args(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["verify", "x.aag", "--method", "static", "--budget", "123",
             "--ring", "modular", "--threshold", "0.3"])
        config = VerifyConfig.from_args(args)
        assert config.method == "static"
        assert config.monomial_budget == 123
        assert config.ring == "modular"
        assert config.initial_threshold == 0.3
        assert config.preflight

    def test_threshold_defaults_to_the_measured_constant(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["verify", "x.aag"])
        assert VerifyConfig.from_args(args).initial_threshold \
            == VerifyConfig().initial_threshold == INITIAL_THRESHOLD

    @pytest.mark.parametrize("threshold", [
        math.nan, math.inf, "x", True, 0, -0.5],
        ids=["nan", "inf", "str", "bool", "zero", "negative"])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ConfigError, match="initial_threshold"):
            VerifyConfig(initial_threshold=threshold)

    def test_integer_threshold_is_accepted(self):
        assert VerifyConfig(initial_threshold=1).initial_threshold == 1

    def test_from_args_rejects_bad_ring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["verify", "x.aag", "--ring", "modular:15"])
        with pytest.raises(ConfigError):
            VerifyConfig.from_args(args)


class TestRingAgreement:
    @pytest.mark.parametrize("method", ["dyposub", "static"])
    def test_correct_design_agrees(self, mult_4x4_dadda, method):
        exact = verify_multiplier(mult_4x4_dadda, method=method)
        modular = verify_multiplier(mult_4x4_dadda, method=method,
                                    ring="modular")
        assert exact.status == modular.status == "correct"
        assert modular.stats["ring"] == f"modular:{WORD_PRIME}"

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_faults_agree(self, mult_4x4_dadda, kind):
        buggy = inject_visible_fault(mult_4x4_dadda, kind=kind, seed=1)
        exact = verify_multiplier(buggy)
        modular = verify_multiplier(buggy, ring="modular")
        assert exact.status == modular.status == "buggy"
        # the modular counterexample is sound: non-zero mod p at the
        # witness implies the exact remainder is non-zero there
        assert modular.counterexample is not None
        assert exact.counterexample is not None

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_exact_ring_counterexample_per_fault(self, mult_4x4_array,
                                                 kind):
        buggy = inject_visible_fault(mult_4x4_array, kind=kind, seed=2)
        result = verify_multiplier(buggy, ring="exact")
        assert result.status == "buggy"
        assert result.counterexample is not None
        assert result.remainder.evaluate(dict(result.counterexample)) != 0


class TestOneModulus:
    """A modular run uses one prime above the CRT bound ``2*B``, never
    less than ``2**61 - 1``, so one run decides every design."""

    @staticmethod
    def modulus(architecture, width):
        aig = cleanup(generate_multiplier(architecture, width))
        ring = Pipeline(VerifyConfig(ring="modular")).coefficient_ring(aig)
        return ring.modulus, 2 * Pipeline.crt_bound(aig)

    def test_crt_bound_value(self, mult_4x4_array):
        aig = cleanup(mult_4x4_array)
        bound = Pipeline.crt_bound(aig)
        assert bound == 1 << (aig.num_inputs
                              + max(len(aig.outputs), aig.num_inputs) + 1)

    @pytest.mark.parametrize("width", [4, 14])
    def test_word_prime_up_to_14x14(self, width):
        modulus, bound = self.modulus("SP-AR-RC", width)
        assert modulus == WORD_PRIME > bound

    def test_wide_design_gets_a_prime_above_the_bound(self):
        modulus, bound = self.modulus("SP-DT-LF", 16)
        assert modulus > bound > WORD_PRIME
        assert is_probable_prime(modulus)

    def test_wide_design_verifies_in_one_run(self):
        aig = generate_multiplier("SP-DT-LF", 16)
        recorder = Recorder()
        result = verify_multiplier(aig, ring="modular", recorder=recorder)
        recorder.close()
        modulus, _ = self.modulus("SP-DT-LF", 16)
        assert result.status == "correct"
        assert result.stats["ring"] == f"modular:{modulus}"
        rings = [e for e in recorder.events if e["ev"] == "ring"]
        assert [e["modulus"] for e in rings] == [modulus]

    def test_remainder_divisible_by_small_primes_is_buggy(self):
        aig = sextuple_output_multiplier()
        result = verify_multiplier(aig, preflight=False, ring="modular")
        assert result.status == "buggy"
        assert result.stats["ring"] == f"modular:{WORD_PRIME}"
        a = result.stats["counterexample_a"]
        b = result.stats["counterexample_b"]
        word = outputs_as_int(simulate_words(
            aig, [(a, [2 * aig.inputs[0]]), (b, [2 * aig.inputs[1]])]))
        assert word != a * b


class TestPipelineApi:
    def test_pipeline_direct(self, mult_4x4_dadda):
        pipeline = Pipeline(VerifyConfig(ring="modular"))
        result = pipeline.run(mult_4x4_dadda)
        assert result.status == "correct"
        # the same Pipeline object is reusable across designs
        buggy = inject_visible_fault(mult_4x4_dadda, seed=4)
        assert pipeline.run(buggy).status == "buggy"

    def test_timeout_under_modular_ring(self, mult_8x8_dadda):
        result = verify_multiplier(mult_8x8_dadda, ring="modular",
                                   monomial_budget=5)
        assert result.timed_out
        assert result.stats["budget_kind"] == "monomials"
        assert result.stats["ring"].startswith("modular:")

    def test_invariants_run_under_modular_ring(self, mult_4x4_dadda):
        result = verify_multiplier(mult_4x4_dadda, ring="modular",
                                   check_invariants=True)
        assert result.status == "correct"
        assert result.stats["invariants"]["checked_commits"] > 0

    def test_static_method_modular(self, mult_4x4_array):
        result = verify_multiplier(mult_4x4_array, method="static",
                                   ring="modular")
        assert result.status == "correct"


class TestOneRecognizerPass:
    """Each run detects atomic blocks once and builds at most one
    architecture report, which a traced run's ``stage_map`` renders."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.analysis.structure as structure
        import repro.core.atomic as atomic

        counts = {}
        for name, fn in (("detect_atomic_blocks",
                          atomic.detect_atomic_blocks),
                         ("analyze_aig", structure.analyze_aig)):
            counts[name] = 0

            def counting(*args, _name=name, _fn=fn, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if (module_name.startswith("repro") and module is not None
                        and vars(module).get(name) is fn):
                    monkeypatch.setattr(module, name, counting)
        return counts

    @staticmethod
    def run(recorder=None, **config):
        aig = generate_multiplier("BP-WT-CU", 6)
        return Pipeline(VerifyConfig(monomial_budget=64, **config)).run(
            aig, recorder=recorder)

    def test_traced_run_recognizes_once(self, calls):
        self.run(Recorder())
        assert calls == {"detect_atomic_blocks": 1, "analyze_aig": 1}

    def test_untraced_run_builds_no_report(self, calls):
        self.run()
        assert calls == {"detect_atomic_blocks": 1, "analyze_aig": 0}

    def test_blockless_run_detects_only_for_the_report(self, calls):
        no_blocks = {"use_atomic_blocks": False, "use_vanishing": False}
        self.run(**no_blocks)
        assert calls == {"detect_atomic_blocks": 0, "analyze_aig": 0}
        self.run(Recorder(), **no_blocks)
        assert calls == {"detect_atomic_blocks": 1, "analyze_aig": 1}


class TestThresholdFallback:
    """A DyPoSub run that exhausts the monomial budget from the default
    threshold runs once more from the paper's 10%.  BP-AR-RC 4x4 peaks
    at 3,790 monomials from 10% and at 4,790 from the default, so a
    4,000-monomial budget trips only the first run."""

    BUDGET = 4_000

    @staticmethod
    def run(**config):
        recorder = Recorder()
        result = verify_multiplier(generate_multiplier("BP-AR-RC", 4),
                                   recorder=recorder, **config)
        runs = [e for e in recorder.events if e["ev"] == "rewrite_begin"]
        return result, len(runs)

    def test_budget_trip_reruns_from_the_paper_threshold(self):
        assert INITIAL_THRESHOLD > PAPER_THRESHOLD
        result, runs = self.run(monomial_budget=self.BUDGET)
        assert result.status == "correct" and runs == 2
        assert result.stats["max_poly_size"] == 3_790

    def test_rerun_gets_a_fresh_invariant_monitor(self):
        result, runs = self.run(monomial_budget=self.BUDGET,
                                check_invariants=True)
        assert result.status == "correct" and runs == 2
        assert result.stats["invariants"]["checked_commits"] \
            == result.stats["steps"]

    def test_fallback_reports_only_the_run_it_keeps(self):
        """The abandoned run's counters reach no stat, though both runs
        share one vanishing reducer: the record equals that of a run
        started at the paper's threshold."""
        fallback, _ = self.run(monomial_budget=self.BUDGET)
        paper, _ = self.run(monomial_budget=self.BUDGET,
                            initial_threshold=PAPER_THRESHOLD)
        assert fallback.stats == paper.stats

    def test_counters_and_trace_count_only_the_kept_run(self):
        """The recorder's counters, the folded trace and the report
        describe the run the verdict comes from, as the stats do."""
        from repro.obs.report import render_report
        from repro.obs.view import fold_events

        recorder = Recorder()
        result = verify_multiplier(generate_multiplier("BP-AR-RC", 4),
                                   recorder=recorder, record_trace=True,
                                   monomial_budget=self.BUDGET)
        stats = result.stats
        counters = recorder.summary()["counters"]
        assert counters["rewrite.commits"] == stats["steps"]
        assert counters["rewrite.attempts"] == stats["attempts"]
        assert counters["rewrite.backtracks"] == stats["backtracks"]
        assert counters["rewrite.threshold_doublings"] \
            == stats["threshold_doublings"]
        sizes = recorder.summary()["histograms"]["rewrite.sp_size"]
        assert sizes["max"] == stats["max_poly_size"] == 3_790
        view = fold_events(recorder.events)
        assert view.sizes == result.sizes()
        assert view.attempts == stats["attempts"]
        assert (view.rewrite_runs, view.retries) == (1, 1)
        report = render_report(view)
        assert re.search(rf"committed steps +{stats['steps']}\n", report)
        assert "rewrite runs" not in report
        assert "abandoned runs (threshold fallback)" in report

    def test_paper_threshold_runs_once(self):
        result, runs = self.run(monomial_budget=self.BUDGET,
                                initial_threshold=PAPER_THRESHOLD)
        assert result.status == "correct" and runs == 1

    def test_both_runs_over_budget_is_a_timeout(self):
        result, runs = self.run(monomial_budget=100)
        assert result.status == "timeout" and runs == 2
        assert result.stats["budget_kind"] == "monomials"

    @pytest.mark.parametrize("config", [
        {"method": "static", "monomial_budget": 100},
        {"time_budget": 1e-9}], ids=["static", "time"])
    def test_only_a_dyposub_monomial_trip_reruns(self, config):
        result, runs = self.run(**config)
        assert result.status == "timeout" and runs <= 1


class TestCliRing:
    def test_verify_ring_modular(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "m.aag"
        assert main(["generate", "SP-AR-RC", "4", "-o", str(path)]) == 0
        assert main(["verify", str(path), "--ring", "modular"]) == 0

    def test_verify_bad_ring_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(path)])
        for argv in (["--ring", "modular:97"], ["--ring", "nope"],
                     ["--primes", "2"]):
            capsys.readouterr()
            assert main(["verify", str(path), *argv]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("verify: "), argv
            assert captured.err.count("\n") == 1, argv

    def test_batch_ring_modular(self, tmp_path):
        from repro.cli import main

        good = tmp_path / "good.aag"
        bad = tmp_path / "bad.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(good)])
        main(["inject", str(good), "--kind", "gate-type", "--seed", "0",
              "-o", str(bad)])
        code = main(["verify", str(good), str(bad), "--ring", "modular"])
        assert code == 1  # the faulty input dominates the exit code
