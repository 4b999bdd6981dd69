"""Tests for repro.obs.trends: EWMA baselines and the regression gate."""

import pytest

from repro.obs import RunStore
from repro.obs.trends import (
    TrendConfig,
    detect_trends,
    ewma,
    regressions,
    render_trends,
    trend_for,
)


def _seed(store, seconds_list, design="m8", method="dyposub", **extra):
    for seconds in seconds_list:
        store.add_run(design, method, seconds=seconds, **extra)


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


class TestTrendFor:
    def test_no_history_with_single_point(self):
        with RunStore() as store:
            _seed(store, [1.0])
            verdict = trend_for(store, "m8", "none", "dyposub", "seconds")
            assert verdict["verdict"] == "no-history"
            assert verdict["points"] == 1

    def test_stable_history_is_ok(self):
        with RunStore() as store:
            _seed(store, [1.0, 1.02, 0.98, 1.01])
            verdict = trend_for(store, "m8", "none", "dyposub", "seconds")
            assert verdict["verdict"] == "ok"
            assert verdict["ratio"] == pytest.approx(1.0, abs=0.1)

    def test_injected_2x_slowdown_regresses(self):
        # the acceptance scenario: flat history, then a 2x slowdown
        with RunStore() as store:
            _seed(store, [1.0, 1.0, 1.0, 2.0])
            verdict = trend_for(store, "m8", "none", "dyposub", "seconds")
            assert verdict["verdict"] == "regression"
            assert verdict["ratio"] == pytest.approx(2.0)
            assert verdict["run_id"] == 4

    def test_large_speedup_is_improved(self):
        with RunStore() as store:
            _seed(store, [1.0, 1.0, 0.5])
            verdict = trend_for(store, "m8", "none", "dyposub", "seconds")
            assert verdict["verdict"] == "improved"

    def test_noise_floor_suppresses_time_metrics(self):
        with RunStore() as store:
            _seed(store, [0.001, 0.004])  # sub-floor wall clock
            verdict = trend_for(store, "m8", "none", "dyposub", "seconds")
            assert verdict["verdict"] == "noise-floor"

    def test_non_time_metric_ignores_floor(self):
        with RunStore() as store:
            store.add_run("m8", "dyposub", max_poly_size=10)
            store.add_run("m8", "dyposub", max_poly_size=40)
            verdict = trend_for(store, "m8", "none", "dyposub",
                                "max_poly_size")
            assert verdict["verdict"] == "regression"

    def test_attr_seconds_borrows_rewrite_phase_floor(self):
        # attribution wall-time slices are fractions of the rewrite
        # phase; when that phase sits under the noise floor, a jittery
        # slice must not gate
        with RunStore() as store:
            for slice_seconds in (0.0001, 0.0001, 0.003):
                store.add_run("m8", "dyposub",
                              phases={"rewrite": 0.002},
                              metrics={"attr:stage:fsa:seconds":
                                       slice_seconds})
            verdict = trend_for(store, "m8", "none", "dyposub",
                                "metric:attr:stage:fsa:seconds")
            assert verdict["verdict"] == "noise-floor"

    def test_attr_seconds_gated_above_floor(self):
        with RunStore() as store:
            for slice_seconds in (1.0, 1.0, 2.5):
                store.add_run("m8", "dyposub",
                              phases={"rewrite": 2.0},
                              metrics={"attr:stage:fsa:seconds":
                                       slice_seconds})
            verdict = trend_for(store, "m8", "none", "dyposub",
                                "metric:attr:stage:fsa:seconds")
            assert verdict["verdict"] == "regression"

    def test_attr_seconds_floor_falls_back_to_own_history(self):
        # a store ingested without span events has no phase:rewrite
        # twin; the slice's own (sub-floor) history must still shield it
        with RunStore() as store:
            for slice_seconds in (0.0001, 0.0001, 0.003):
                store.add_run("m8", "dyposub",
                              metrics={"attr:rule:FA/compact:seconds":
                                       slice_seconds})
            verdict = trend_for(store, "m8", "none", "dyposub",
                                "metric:attr:rule:FA/compact:seconds")
            assert verdict["verdict"] == "noise-floor"

    def test_first_attr_row_is_no_history_not_regression(self):
        # the first-ever attribution row of a series must never read as
        # a regression (there is nothing to regress from)
        with RunStore() as store:
            store.add_run("m8", "dyposub", phases={"rewrite": 2.0},
                          metrics={"attr:stage:fsa:seconds": 1.5,
                                   "attr:stage:fsa:growth": 900.0})
            for metric in ("metric:attr:stage:fsa:seconds",
                           "metric:attr:stage:fsa:growth"):
                verdict = trend_for(store, "m8", "none", "dyposub", metric)
                assert verdict["verdict"] == "no-history"

    def test_attr_growth_is_not_floor_shielded(self):
        # growth metrics are monomial counts, not seconds — the time
        # noise floor must not hide a real growth regression
        with RunStore() as store:
            for growth in (100.0, 100.0, 400.0):
                store.add_run("m8", "dyposub",
                              phases={"rewrite": 0.0001},
                              metrics={"attr:stage:fsa:growth": growth})
            verdict = trend_for(store, "m8", "none", "dyposub",
                                "metric:attr:stage:fsa:growth")
            assert verdict["verdict"] == "regression"

    def test_tolerance_is_configurable(self):
        with RunStore() as store:
            _seed(store, [1.0, 1.2])
            loose = trend_for(store, "m8", "none", "dyposub", "seconds",
                              TrendConfig(tolerance=0.25))
            tight = trend_for(store, "m8", "none", "dyposub", "seconds",
                              TrendConfig(tolerance=0.1))
            assert loose["verdict"] == "ok"
            assert tight["verdict"] == "regression"


class TestDetectTrends:
    def test_empty_store_has_no_verdicts(self):
        with RunStore() as store:
            assert detect_trends(store) == []
            assert "no series" in render_trends([])

    def test_gate_fires_only_on_regressions(self):
        with RunStore() as store:
            _seed(store, [1.0, 1.0, 2.0], design="slow")
            _seed(store, [1.0, 1.0, 1.0], design="flat")
            verdicts = detect_trends(store)
            bad = regressions(verdicts)
            assert [v["design"] for v in bad] == ["slow"]
            text = render_trends(verdicts)
            assert "REGRESSION" in text
            assert "flat" in text

    def test_metric_restriction(self):
        with RunStore() as store:
            store.add_run("m8", "dyposub", seconds=1.0, max_poly_size=10)
            store.add_run("m8", "dyposub", seconds=1.0, max_poly_size=40)
            verdicts = detect_trends(store, metrics=["max_poly_size"])
            assert [v["metric"] for v in verdicts] == ["max_poly_size"]
            assert verdicts[0]["verdict"] == "regression"
