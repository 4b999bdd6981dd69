"""Tests for repro.obs.attribution: the cost-attribution engine over a
folded run view, streaming anomaly detection, and the store-backed
attribution rows."""

import pytest

from repro.errors import ObsDataError
from repro.obs import RunStore
from repro.obs.attribution import (
    COVERAGE_TARGET,
    UNKNOWN,
    AnomalyConfig,
    CommitAnomalyDetector,
    attribute_store_run,
    attribute_view,
    design_baseline,
    ewma,
    render_attribution,
    stage_cost_metrics,
)
from repro.obs.view import fold_events


def _attribute(events):
    return attribute_view(fold_events(events))


def _stream():
    """A hand-built trace: 4 components, 2 stage regions, one rewrite
    run inside a [1.0, 1.5] wall window (0.45s of commit gaps + a 0.05s
    tail)."""
    return [
        {"ev": "run_begin", "t": 0.0, "design": "m4", "method": "dyposub"},
        {"ev": "stage_map", "t": 0.05, "architecture": "ripple",
         "regions": {"ppg": 2, "fsa": 2},
         "components": {"0": "ppg", "1": "ppg", "2": "fsa", "3": "fsa"}},
        {"ev": "rewrite_begin", "t": 1.0, "size": 10, "components": 4,
         "ring": "exact"},
        {"ev": "attempt", "t": 1.05, "comp": 3, "kind": "FA", "before": 10,
         "size": 14, "compact": False, "growth": True},
        {"ev": "step", "t": 1.1, "i": 1, "comp": 3, "kind": "FA",
         "size": 14},
        {"ev": "attempt", "t": 1.15, "comp": 2, "kind": "FA", "before": 14,
         "size": 20, "compact": False, "growth": True},
        {"ev": "step", "t": 1.3, "i": 2, "comp": 2, "kind": "FA",
         "size": 20},
        {"ev": "attempt", "t": 1.35, "comp": 1, "kind": "HA", "before": 20,
         "size": 12, "compact": True, "growth": False},
        {"ev": "step", "t": 1.4, "i": 3, "comp": 1, "kind": "HA",
         "size": 12},
        {"ev": "step", "t": 1.45, "i": 4, "comp": 0, "kind": "HA",
         "size": 6},
        {"ev": "span", "t": 1.0, "name": "rewrite", "path": "rewrite",
         "dur": 0.5},
        {"ev": "run_end", "t": 2.0, "status": "correct", "seconds": 2.0},
    ]


class TestAttributeEvents:
    def test_growth_lands_in_the_right_stage(self):
        report = _attribute(_stream())
        assert report["architecture"] == "ripple"
        assert report["sp0"] == 10
        # all growth (4 + 6 monomials) came from the two fsa commits
        assert report["by_stage"]["fsa"]["growth"] == 10
        assert report["by_stage"]["fsa"]["commits"] == 2
        assert report["by_stage"]["ppg"]["growth"] == 0
        assert report["growth"] == {"total": 10, "attributed": 10,
                                    "unattributed": 0,
                                    "attributed_fraction": 1.0}

    def test_wall_time_windows_and_explicit_tail(self):
        report = _attribute(_stream())
        wall = report["wall"]
        assert wall["rewrite_seconds"] == pytest.approx(0.5)
        # commit gaps: 0.1 + 0.2 + 0.1 + 0.05; the remaining 0.05s
        # after the final commit is the reported tail, never dropped
        assert wall["attributed_seconds"] == pytest.approx(0.45)
        assert wall["unattributed_seconds"] == pytest.approx(0.05)
        assert wall["attributed_fraction"] == pytest.approx(0.9)
        assert report["by_stage"]["fsa"]["seconds"] == pytest.approx(0.3)
        assert report["by_stage"]["ppg"]["seconds"] == pytest.approx(0.15)

    def test_rule_labels_join_the_attempt_stream(self):
        report = _attribute(_stream())
        rules = {record["step"]: record["rule"]
                 for record in report["commits"]}
        assert rules[1] == "FA/expand"
        assert rules[3] == "HA/compact"
        # step 4's component never appeared in an attempt: kind only
        assert rules[4] == "HA"
        assert report["by_rule"]["FA/expand"]["growth"] == 10

    def test_cells_cross_stage_and_rule(self):
        report = _attribute(_stream())
        keys = {(cell["stage"], cell["rule"])
                for cell in report["cells"]}
        assert ("fsa", "FA/expand") in keys
        assert ("ppg", "HA/compact") in keys

    def test_trace_without_stage_map_buckets_unknown(self):
        events = [e for e in _stream() if e["ev"] != "stage_map"]
        report = _attribute(events)
        assert set(report["by_stage"]) == {UNKNOWN}
        # unknown-stage commits count against coverage
        assert report["wall"]["attributed_fraction"] == 0.0
        assert report["growth"]["attributed_fraction"] == 0.0

    def test_escalation_rerun_needs_a_retry_before_it(self):
        """A second rewrite run is attributed only after a
        ``rewrite_retry`` abandoned the first; without one the stream
        is refused instead of opening a second window."""
        rerun = [
            {"ev": "rewrite_begin", "t": 3.0, "size": 6, "components": 4,
             "ring": "mod"},
            {"ev": "step", "t": 3.2, "i": 1, "comp": 3, "kind": "FA",
             "size": 9},
            {"ev": "span", "t": 3.0, "name": "rewrite", "path": "rewrite",
             "dur": 0.25},
            {"ev": "run_end", "t": 4.0, "status": "correct", "seconds": 4.0},
        ]
        events = _stream()[:-1] + rerun  # the first run never retried
        with pytest.raises(ObsDataError, match=r"^event 12 \(rewrite_begin\)"):
            _attribute(events)
        retry = {"ev": "rewrite_retry", "t": 2.5, "budget_kind": "monomials",
                 "threshold": 0.1}
        report = _attribute(_stream()[:-1] + [retry] + rerun)
        assert report["sp0"] == 10  # anchored at the first run
        assert report["wall"]["rewrite_seconds"] == pytest.approx(0.25)
        assert [record["step"] for record in report["commits"]] == [1]
        assert report["commits"][0]["growth"] == 3

    def test_truncated_trace_closes_at_the_last_commit(self):
        # a crashed run has no rewrite span event: the window must
        # close at the last observed commit instead of being dropped
        events = [e for e in _stream() if e["ev"] not in ("span", "run_end")]
        report = _attribute(events)
        assert report["status"] is None
        assert report["wall"]["rewrite_seconds"] == pytest.approx(0.45)
        assert report["wall"]["unattributed_seconds"] == pytest.approx(0.0)

    def test_profiler_samples_attach_to_commits(self):
        events = _stream()
        events.insert(-1, {"ev": "profile", "t": 1.9, "samples": 4,
                           "commits": {"2": 3, "9": 1}})
        report = _attribute(events)
        by_step = {record["step"]: record for record in report["commits"]}
        assert by_step[2]["samples"] == 3
        assert report["samples_unassigned"] == 1  # no step 9 existed
        assert report["by_stage"]["fsa"]["samples"] == 3

    def test_rss_samples_bin_into_commit_windows(self):
        events = _stream()
        events[-1:-1] = [
            {"ev": "resource_sample", "t": 0.5, "rss_kb": 100},   # baseline
            {"ev": "resource_sample", "t": 1.05, "rss_kb": 200},  # commit 1
            {"ev": "resource_sample", "t": 1.35, "rss_kb": 300},  # commit 3
            {"ev": "resource_sample", "t": 1.48, "rss_kb": 250},  # tail
        ]
        report = _attribute(events)
        rss = report["rss"]
        assert rss["samples"] == 3
        assert rss["baseline_kb"] == 100
        assert rss["peak_kb"] == 300
        assert rss["delta_kb"] == pytest.approx(200)
        assert rss["by_stage"]["fsa"]["peak_kb"] == 200
        assert rss["by_stage"]["ppg"]["peak_kb"] == 300
        assert rss["by_stage"][UNKNOWN]["samples"] == 1

    def test_no_resource_telemetry_is_none(self):
        assert _attribute(_stream())["rss"] is None

    def test_empty_stream(self):
        report = _attribute([])
        assert report["commits"] == []
        assert report["wall"]["rewrite_seconds"] == 0.0
        assert report["wall"]["attributed_fraction"] == 1.0

    def test_coverage_meets_the_acceptance_target(self):
        # the synthetic stream mirrors real traces: >= 95% of measured
        # wall time and growth is assigned to commit+rule+stage
        report = _attribute(_stream())
        assert report["growth"]["attributed_fraction"] >= COVERAGE_TARGET


class TestEwma:
    def test_empty_is_none(self):
        assert ewma([]) is None

    def test_single_value(self):
        assert ewma([3.0]) == 3.0

    def test_weights_newer_points(self):
        # alpha=0.5 over [1, 2]: 0.5*2 + 0.5*1 = 1.5
        assert ewma([1.0, 2.0], alpha=0.5) == pytest.approx(1.5)
        # drifting history pulls the baseline along
        assert ewma([1.0, 1.0, 4.0], alpha=0.5) > ewma([1.0, 1.0, 1.0],
                                                       alpha=0.5)


class TestAnomalyDetector:
    def test_rp012_fires_on_an_ewma_outlier(self):
        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=1, min_history=3))
        for i, size in enumerate((10, 11, 12), start=1):
            assert detector.observe_step({"i": i, "size": size}) == []
        fired = detector.observe_step({"i": 4, "size": 100, "comp": 7,
                                       "kind": "FA"})
        assert [d.code for d in fired] == ["RP012"]
        assert fired[0].context["step"] == 4
        assert fired[0].context["ratio"] > 2.0
        assert "7" not in fired[0].message  # comp rides in context only

    def test_ewma_absorbs_a_regime_change(self):
        # a genuine level shift fires once, not on every later commit
        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, alpha=0.9, floor=1,
                          min_history=3))
        for i, size in enumerate((10, 10, 10, 100, 100, 100), start=1):
            detector.observe_step({"i": i, "size": size})
        assert len(detector.anomalies) == 1

    def test_floor_shields_small_polynomials(self):
        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=64, min_history=1))
        for i, size in enumerate((4, 4, 40), start=1):
            detector.observe_step({"i": i, "size": size})
        assert detector.anomalies == []

    def test_rp013_fires_once_against_the_store_baseline(self):
        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=100.0, floor=1, min_history=1),
            baseline={"peak": 100.0, "runs": 5}, design="m8")
        detector.observe_step({"i": 1, "size": 120})  # within margin
        detector.observe_step({"i": 2, "size": 130})
        detector.observe_step({"i": 3, "size": 140})
        codes = [d.code for d in detector.anomalies]
        assert codes == ["RP013"]
        assert detector.anomalies[0].context["design"] == "m8"

    def test_reset_clears_run_local_state(self):
        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=1, min_history=3))
        for i in range(1, 4):
            detector.observe_step({"i": i, "size": 10})
        detector.reset()
        assert detector.observe_step({"i": 1, "size": 100}) == []

    def test_replay_over_a_recorded_stream(self):
        events = _stream()[:-2] + [
            {"ev": "step", "t": 1.46, "i": 5, "comp": 0, "kind": "HA",
             "size": 500},
        ]
        # the fold replays the default detector over every trace, so
        # explain flags outliers even without a live watchdog
        diags = fold_events(events).anomalies
        assert [d.code for d in diags] == ["RP012"]
        assert _attribute(events)["anomalies"][0]["code"] == "RP012"

    def test_design_baseline_from_store(self):
        with RunStore() as store:
            assert design_baseline(store, "m8") is None
            store.add_run("m8", "dyposub", max_poly_size=100)
            store.add_run("m8", "dyposub", max_poly_size=120)
            baseline = design_baseline(store, "m8")
            assert baseline["runs"] == 2
            assert 100 < baseline["peak"] <= 120


class TestStoreIntegration:
    def test_stage_cost_metrics_flatten_the_report(self):
        metrics = stage_cost_metrics(_attribute(_stream()))
        assert metrics["attr:stage:fsa:growth"] == 10
        assert metrics["attr:stage:ppg:seconds"] == pytest.approx(0.15)
        assert metrics["attr:rule:FA/expand:growth"] == 10
        assert metrics["attr:wall:rewrite:seconds"] == pytest.approx(0.5)
        assert metrics["attr:unattributed:seconds"] == pytest.approx(0.05)

    def test_unknown_run_raises(self):
        with RunStore() as store:
            with pytest.raises(ValueError, match="no such run"):
                attribute_store_run(store, 999)

    def test_report_rebuilds_from_v3_rows(self):
        live = _attribute(_stream())
        with RunStore() as store:
            run_id = store.add_run(
                "m4", "dyposub", status="correct", seconds=2.0,
                max_poly_size=20,
                commits=[{"step": r["step"], "component": r["comp"],
                          "kind": r["kind"], "size": r["size"]}
                         for r in live["commits"]],
                metrics={**stage_cost_metrics(live),
                         "attr:sp0:size": live["sp0"]},
                attribution=live["cells"],
                meta={"architecture": live["architecture"]})
            stored = attribute_store_run(store, run_id)
        assert stored["source"] == "store"
        assert stored["architecture"] == "ripple"
        assert stored["by_stage"]["fsa"]["growth"] == \
            live["by_stage"]["fsa"]["growth"]
        assert stored["wall"]["rewrite_seconds"] == \
            live["wall"]["rewrite_seconds"]
        assert stored["growth"]["attributed_fraction"] == \
            live["growth"]["attributed_fraction"]
        # commit growth is recomputed from the SP_i curve + SP_0 anchor
        growth = {r["step"]: r["growth"] for r in stored["commits"]}
        assert growth == {1: 4, 2: 6, 3: 0, 4: 0}

    def test_ingest_then_explain_round_trip(self):
        with RunStore() as store:
            run_id = store.ingest_events(_stream(), "m4", source="test")
            stored = attribute_store_run(store, run_id)
            assert stored["by_stage"]["fsa"]["growth"] == 10


class TestRendering:
    def test_attribution_report_headline(self):
        text = render_attribution(_attribute(_stream()))
        assert "100% of SP_i growth landed in 2 commit(s) " \
            "inside the fsa region" in text
        assert "Cost by stage region" in text
        assert "Cost by substitution rule" in text
        assert "FA/expand" in text
        assert "unattributed remainder" in text

    def test_top_commits_table_respects_the_limit(self):
        text = render_attribution(_attribute(_stream()), top=2)
        assert "Top 2 commits by SP_i growth" in text
