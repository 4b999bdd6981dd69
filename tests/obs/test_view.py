"""Tests for repro.obs.view: the one fold of a recorded event stream.

The fold rules that the report, explain, diff and store consumers once
applied differently are pinned here.
"""

import pytest

from repro.obs.view import RunView, fold_events


def _rewrite_run(t0=1.0, size=10, steps=((1.1, 3, "FA", 14),
                                         (1.3, 2, "FA", 20))):
    events = [{"ev": "rewrite_begin", "t": t0, "size": size,
               "components": 4, "ring": "exact"}]
    for index, (t, comp, kind, step_size) in enumerate(steps, start=1):
        events.append({"ev": "step", "t": t, "i": index, "comp": comp,
                       "kind": kind, "size": step_size})
    return events


class TestFoldRules:
    def test_envelope_keys_are_stripped_from_bodies(self):
        envelope = {"t": 0.5}
        view = fold_events([
            {"ev": "stage_map", "architecture": "ripple",
             "components": {"0": "ppg"}, **envelope},
            {"ev": "profile", "samples": 4, "commits": {}, **envelope},
            {"ev": "resources_summary", "peak_rss_kb": 10, **envelope},
        ])
        assert view.stage_map == {"architecture": "ripple",
                                  "components": {"0": "ppg"}}
        assert view.profile == {"samples": 4, "commits": {}}
        assert view.resources_summary == {"peak_rss_kb": 10}

    def test_rerun_phase_merges_max_peaks_and_summed_deltas(self):
        view = fold_events([
            {"ev": "phase_resources", "t": 0.1, "phase": "rewrite",
             "rss_peak_kb": 900, "tracemalloc_kb": 1.7,
             "tracemalloc_peak_kb": 90, "gc_collections": 1},
            {"ev": "phase_resources", "t": 0.2, "phase": "rewrite",
             "rss_peak_kb": 500, "tracemalloc_kb": 1.7,
             "tracemalloc_peak_kb": 95, "gc_collections": 2},
        ])
        assert view.phase_resources == {"rewrite": {
            "rss_peak_kb": 900, "tracemalloc_peak_kb": 95,
            "tracemalloc_kb": 3.4, "gc_collections": 3}}

    def test_summary_phases_fill_only_missing_spans(self):
        view = fold_events([
            {"ev": "span", "t": 0.0, "name": "spec", "path": "spec",
             "dur": 0.25},
            {"ev": "span", "t": 0.3, "name": "spec", "path": "spec",
             "dur": 0.5},
            {"ev": "summary", "t": 1.0, "counters": {"steps": 3},
             "phases": {"spec": 9.0, "rewrite": 2.0}},
        ])
        assert view.phases == {"spec": 0.75, "rewrite": 2.0}
        assert view.counters == {"steps": 3}


class TestCommits:
    def test_commit_records_carry_rule_seconds_and_growth(self):
        events = _rewrite_run()
        events.insert(1, {"ev": "attempt", "t": 1.05, "comp": 3,
                          "kind": "FA", "compact": False})
        view = fold_events(events)
        first, second = view.commits
        assert first["run"] == second["run"] == 1
        assert first["rule"] == "FA/expand"
        assert second["rule"] == "FA"   # no attempt for comp 2
        assert first["seconds"] == pytest.approx(0.1)
        assert second["seconds"] == pytest.approx(0.2)
        assert (first["growth"], second["growth"]) == (4, 6)
        assert view.sizes == [14, 20]
        assert view.attempts == 1
        assert view.sp0 == 10

    def test_steps_outside_a_rewrite_run_count_but_are_not_timed(self):
        view = fold_events([{"ev": "step", "t": 0.1, "size": 5}])
        assert view.commits == [{"run": 0, "step": 1, "component": None,
                                 "kind": None, "size": 5,
                                 "threshold": None}]
        assert view.rewrite_runs == 0

    def test_each_rewrite_begin_opens_a_window(self):
        events = _rewrite_run() + [
            {"ev": "span", "t": 1.0, "name": "rewrite", "path": "rewrite",
             "dur": 0.5}]
        events += _rewrite_run(t0=3.0, size=6, steps=((3.2, 3, "FA", 9),))
        view = fold_events(events)
        # the first window closes at its span, the second (truncated,
        # no span) at its last commit
        assert view.rewrite_windows == [(1.0, 1.5), (3.0, 3.2)]
        assert view.rewrite_runs == 2
        assert [c["run"] for c in view.commits] == [1, 1, 2]
        assert view.commits[2]["growth"] == 3  # anchored at run 2's SP_0
        assert view.sp0 == 10

    def test_rewrite_retry_drops_the_abandoned_run(self):
        """The threshold fallback's abandoned run leaves only its phase
        time: the kept run's commits, dynamics and window remain."""
        events = [{"ev": "backtrack", "t": 0.5},
                  {"ev": "threshold", "t": 0.6, "value": 0.2}]
        events += _rewrite_run(steps=((1.1, 3, "FA", 14),
                                      (1.3, 2, "FA", 4000)))
        events += [
            {"ev": "attempt", "t": 1.2, "comp": 2, "kind": "FA"},
            {"ev": "backtrack", "t": 1.25},
            {"ev": "threshold", "t": 1.26, "value": 1.0},
            {"ev": "span", "t": 1.0, "name": "rewrite", "path": "rewrite",
             "dur": 0.5},
            {"ev": "rewrite_retry", "t": 1.5, "budget_kind": "monomials",
             "threshold": 0.1}]
        events += _rewrite_run(t0=2.0, steps=((2.1, 3, "FA", 12),))
        events.append({"ev": "span", "t": 2.0, "name": "rewrite",
                       "path": "rewrite", "dur": 0.25})
        view = fold_events(events)
        assert view.retries == 1
        assert view.sizes == [12]
        assert [c["run"] for c in view.commits] == [1]
        assert view.commits[0]["growth"] == 2
        assert (view.attempts, view.backtracks) == (0, 1)
        assert view.thresholds == [0.2] and view.threshold_doublings == 1
        assert view.rewrite_windows == [(2.0, 2.25)]
        assert view.phases == {"rewrite": 0.75}

    def test_detector_resets_per_rewrite_run(self):
        sizes = (100, 100, 100, 1000)
        steps = tuple((1.0 + 0.1 * i, i, "FA", size)
                      for i, size in enumerate(sizes, start=1))
        view = fold_events(_rewrite_run(steps=steps))
        assert [d.code for d in view.anomalies] == ["RP012"]
        # a fresh rewrite run starts a fresh EWMA: 1000 is not an outlier
        view = fold_events(_rewrite_run(steps=steps[:3])
                           + _rewrite_run(t0=3.0, steps=steps[3:]))
        assert view.anomalies == []

    def test_counters_of_the_algorithm_2_dynamics(self):
        view = fold_events([
            {"ev": "backtrack", "t": 0.1}, {"ev": "backtrack", "t": 0.2},
            {"ev": "threshold", "t": 0.3, "value": 0.2},
            {"ev": "threshold", "t": 0.4, "value": 0.4},
            {"ev": "stall", "t": 0.5}, {"ev": "anomaly", "t": 0.6},
            {"ev": "run_end", "t": 1.0, "status": "correct",
             "seconds": 1.0},
        ])
        assert (view.backtracks, view.threshold_doublings) == (2, 2)
        assert view.thresholds == [0.2, 0.4]
        assert (view.stalls, view.anomalies_recorded) == (1, 1)
        assert (view.status, view.seconds) == ("correct", 1.0)

    def test_empty_stream_is_the_empty_view(self):
        assert fold_events([]) == RunView()
