"""Tests for repro.obs.report: rendering the folded run view."""

import pytest

from repro.core import verify_multiplier
from repro.genmul import generate_multiplier
from repro.obs import (
    Recorder,
    read_events,
    recording_to,
    render_phase_table,
    render_report,
    report_from_file,
)
from repro.obs.view import fold_events
from repro.opt.scripts import optimize


@pytest.fixture(scope="module")
def traced_run():
    """One instrumented dynamic verification of an 8x8 Dadda."""
    aig = generate_multiplier("SP-DT-LF", 8)
    recorder = Recorder()
    result = verify_multiplier(aig, record_trace=True, recorder=recorder)
    return result, recorder


@pytest.fixture(scope="module")
def paused_run():
    """An 8x8 Wallace/carry-lookahead run, whose rejected blow-up
    attempts pause at their size bound and are never finished."""
    aig = generate_multiplier("SP-WT-CL", 8)
    recorder = Recorder()
    result = verify_multiplier(aig, record_trace=True, recorder=recorder)
    return result, recorder


def assert_summary_matches(result, recorder):
    summary = fold_events(recorder.events)
    assert summary.meta["method"] == "dyposub"
    assert summary.status == result.status == "correct"
    assert summary.sizes == result.sizes()
    assert len(summary.commits) == result.stats["steps"]
    assert summary.attempts == result.stats["attempts"]
    assert summary.backtracks == result.stats["backtracks"]
    assert (summary.threshold_doublings
            == result.stats["threshold_doublings"])


class TestSummarize:
    def test_summary_matches_result(self, traced_run):
        assert_summary_matches(*traced_run)

    def test_summary_matches_result_with_paused_attempts(self, paused_run):
        assert_summary_matches(*paused_run)

    def test_paused_attempts_are_recorded(self, paused_run):
        _, recorder = paused_run
        paused = [event for event in recorder.events
                  if event["ev"] == "attempt" and event.get("paused")]
        assert paused
        for event in paused:
            assert event["size"] > event["bound"] > 0

    def test_phases_cover_the_pipeline(self, traced_run):
        _, recorder = traced_run
        summary = fold_events(recorder.events)
        for phase in ("spec", "atomic", "components", "rewrite"):
            assert phase in summary.phases, phase
            assert summary.phases[phase] >= 0.0

    def test_summarize_events_equals_file_replay(self, traced_run, tmp_path):
        _, recorder = traced_run
        path = tmp_path / "replay.jsonl"
        sink = recording_to(str(path))
        for event in recorder.events:
            sink._emit(event)
        sink.close()
        replayed = fold_events(read_events(str(path)))
        live = fold_events(recorder.events)
        assert replayed == live
        assert replayed.sizes == live.sizes == traced_run[0].sizes()

    def test_empty_event_list(self):
        summary = fold_events([])
        assert summary.sizes == []
        assert summary.status is None
        assert summary.stalls == 0
        assert summary.backtracks == 0
        assert summary.phases == {}

    def test_single_event(self):
        summary = fold_events(
            [{"ev": "run_begin", "t": 0.0, "method": "static", "nodes": 7}])
        assert summary.meta["method"] == "static"
        assert summary.sizes == []
        assert summary.status is None

    def test_stalls_are_counted_and_rendered(self):
        events = [
            {"ev": "run_begin", "t": 0.0, "method": "dyposub"},
            {"ev": "step", "t": 0.1, "i": 1, "comp": 0, "kind": "FA",
             "size": 4},
            {"ev": "stall", "t": 12.0, "step": 1, "size": 4,
             "seconds_since_commit": 11.5, "budget": 10.0},
            {"ev": "run_end", "t": 13.0, "status": "correct",
             "seconds": 13.0},
        ]
        summary = fold_events(events)
        assert summary.stalls == 1
        assert "stalls flagged (watchdog)" in render_report(summary)

    def test_stall_free_report_omits_the_row(self, traced_run):
        _, recorder = traced_run
        summary = fold_events(recorder.events)
        assert summary.stalls == 0
        assert "stalls flagged" not in render_report(summary)


class TestRender:
    def test_report_contains_curve_and_dynamics(self, traced_run):
        _, recorder = traced_run
        text = render_report(fold_events(recorder.events))
        assert "SP_i size per committed rewriting step" in text
        assert "Backward-rewriting dynamics" in text
        assert "backtracks (snapshot restores)" in text
        assert "Per-phase wall clock" in text

    def test_phase_table_shares_sum_to_100(self, traced_run):
        _, recorder = traced_run
        table = render_phase_table(fold_events(recorder.events).phases)
        shares = [float(line.split()[-1].rstrip("%"))
                  for line in table.splitlines()
                  if line.strip().endswith("%")]
        assert shares, table
        assert sum(shares) == pytest.approx(100.0, abs=1.0)

    def test_phase_table_without_spans(self):
        assert "no span events" in render_phase_table({})

    def test_report_from_file(self, tmp_path):
        aig = generate_multiplier("SP-AR-RC", 4)
        path = tmp_path / "run.jsonl"
        recorder = recording_to(str(path))
        verify_multiplier(aig, record_trace=True, recorder=recorder)
        recorder.close()
        text = report_from_file(str(path))
        assert "# outcome: correct" in text
        assert "peak SP_i size:" in text

    def test_opt_passes_render(self, tmp_path):
        recorder = Recorder()
        optimize(generate_multiplier("SP-AR-RC", 4), "resyn3",
                 recorder=recorder)
        summary = fold_events(recorder.events)
        assert summary.opt_passes
        text = render_report(summary)
        assert "Optimization passes" in text
        assert "resyn3" in text
