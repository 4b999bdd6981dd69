"""Tests for the static architecture recognizer and blow-up predictor."""

import json

import pytest

from repro.analysis.structure import (
    RISK_HIGH_FACTOR,
    analyze_aig,
    risk_calibration,
    spearman,
)
from repro.aig.aig import Aig
from repro.core.atomic import detect_atomic_blocks
from repro.core.pipeline import Pipeline, VerifyConfig
from repro.genmul.multiplier import generate_multiplier
from repro.obs.store import RunStore
from repro.opt.scripts import optimize

#: Spot checks spanning every family the recognizer claims; the full
#: 19-design sweep lives in scripts/arch_matrix.py (the CI gate).
SPOT_ZOO = [
    ("SP-AR-RC", 6, ("simple", "array", "ripple")),
    ("SP-AR-KS", 6, ("simple", "array", "lookahead")),
    ("SP-WT-CL", 6, ("simple", "tree", "lookahead")),
    ("SP-DT-RC", 6, ("simple", "tree", "ripple")),
    ("SP-BD-SK", 6, ("simple", "tree", "lookahead")),
    ("BP-WT-RC", 6, ("booth", "tree", "ripple")),
    ("BP-DT-CL", 6, ("booth", "tree", "lookahead")),
]


def analyze(architecture, width, script="none"):
    aig = optimize(generate_multiplier(architecture, width), script)
    return analyze_aig(aig, detect_atomic_blocks(aig), width_a=width,
                       subject=f"{architecture}-{width}-{script}")


class TestClassification:
    @pytest.mark.parametrize("architecture,width,expected", SPOT_ZOO)
    def test_zoo_labels_match_generator(self, architecture, width,
                                        expected):
        arch = analyze(architecture, width)
        got = (arch.ppg.label, arch.ppa.label, arch.fsa.label)
        assert got == expected
        assert arch.recognized
        assert arch.architecture == "-".join(expected)

    def test_labels_survive_light_optimization(self):
        for script in ("dc2", "resyn3"):
            arch = analyze("SP-AR-RC", 6, script)
            assert (arch.ppg.label, arch.ppa.label, arch.fsa.label) \
                == ("simple", "array", "ripple")

    def test_confidences_bounded(self):
        arch = analyze("SP-WT-CL", 6)
        for guess in arch.stages.values():
            assert 0.0 <= guess.confidence <= 1.0

    def test_regions_are_disjoint_and_labelled(self):
        arch = analyze("SP-AR-RC", 6)
        seen = set()
        for name in ("ppg", "ppa", "fsa"):
            region = set(arch.regions[name])
            assert not (region & seen)
            seen |= region
        assert seen  # something was segmented

    def test_width_inference_from_even_split(self):
        aig = generate_multiplier("SP-AR-RC", 5)
        arch = analyze_aig(aig, detect_atomic_blocks(aig))  # no width given
        assert arch.width_a == 5
        assert arch.ppg.label == "simple"


class TestDiagnostics:
    def test_rs001_always_present_on_recognition(self):
        arch = analyze("SP-AR-RC", 6)
        codes = [d.code for d in arch.report]
        assert "RS001" in codes

    def test_clean_simple_designs_warning_free(self):
        for architecture in ("SP-AR-RC", "SP-WT-CL", "SP-DT-RC"):
            arch = analyze(architecture, 6)
            assert arch.report.warnings == [], architecture

    def test_booth_flags_high_risk(self):
        arch = analyze("BP-WT-RC", 6)
        assert arch.risk["factor"] >= RISK_HIGH_FACTOR
        assert "RS020" in [d.code for d in arch.report.warnings]

    def test_empty_design_is_inconclusive(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        aig.add_output(a)
        arch = analyze_aig(aig, detect_atomic_blocks(aig), width_a=1)
        codes = [d.code for d in arch.report]
        assert "RS002" in codes
        assert not arch.recognized
        assert arch.architecture == "unknown-unknown-unknown"

    def test_sarif_export_shape(self):
        arch = analyze("BP-WT-RC", 6)
        sarif = arch.to_sarif()
        assert sarif["version"] == "2.1.0"
        rule_ids = {r["id"]
                    for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert rule_ids <= {"RS001", "RS002", "RS010", "RS011",
                            "RS012", "RS013", "RS020"}
        assert any(res["ruleId"] == "RS020"
                   for res in sarif["runs"][0]["results"])

    def test_json_roundtrip(self, tmp_path):
        arch = analyze("SP-WT-CL", 6)
        path = tmp_path / "arch.json"
        arch.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["architecture"] == "simple-tree-lookahead"
        assert set(payload["stages"]) == {"ppg", "ppa", "fsa"}
        assert payload["risk"]["factor"] == arch.risk["factor"]


class TestSpearman:
    def test_perfect_correlation(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        assert spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1.0)

    def test_constant_series_is_zero(self):
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


class TestRiskCalibration:
    #: Fast designs with well-separated observed peaks: the static risk
    #: score must rank them exactly as the measured peak SP_i does.
    CALIBRATION_SET = [
        ("SP-AR-RC", 4), ("SP-DT-LF", 4), ("SP-AR-RC", 6),
        ("SP-WT-CL", 6), ("SP-DT-KS", 6), ("BP-AR-RC", 4),
    ]

    def test_risk_rank_orders_observed_peaks(self, tmp_path):
        entries = []
        with RunStore(tmp_path / "runs.db") as store:
            for architecture, width in self.CALIBRATION_SET:
                aig = generate_multiplier(architecture, width)
                design = f"{architecture}-{width}"
                arch = analyze_aig(aig, detect_atomic_blocks(aig),
                                   width_a=width, subject=design)
                result = Pipeline(VerifyConfig(width_a=width)).run(aig)
                assert result.status == "correct"
                store.add_run(design, "dyposub", optimization="none",
                              status=result.status,
                              steps=result.stats.get("steps"),
                              max_poly_size=result.stats["max_poly_size"])
                entries.append((design, "none", arch.risk["score"]))
            calibration = risk_calibration(store, entries)
        assert calibration["samples"] == len(self.CALIBRATION_SET)
        assert calibration["spearman"] >= 0.8
        agreement = calibration["agreement"]
        assert agreement["top"] == agreement["count"]
        assert agreement["bottom"] == agreement["count"]

    def test_missing_history_is_skipped(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            store.add_run("known", "dyposub", optimization="none",
                          max_poly_size=10)
            calibration = risk_calibration(
                store, [("known", "none", 1.0), ("absent", "none", 2.0)])
        assert calibration["samples"] == 1
        assert calibration["spearman"] is None
