"""Tests for repro.obs.live: heartbeat, status line and stall watchdog."""

import io

from repro.core import verify_multiplier
from repro.genmul import generate_multiplier
from repro.obs import LiveMonitor, Recorder
from repro.obs.resources import current_phase


class FakeClock:
    """Injectable monotonic clock so stalls need no sleeping."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _monitor(stall_budget=5.0, stream=None):
    clock = FakeClock()
    monitor = LiveMonitor(Recorder(), stall_budget=stall_budget,
                          stream=stream, clock=clock)
    return monitor, clock


class TestTee:
    def test_events_reach_the_inner_recorder(self):
        monitor, _ = _monitor()
        monitor.event("step", i=1, comp=0, kind="FA", size=4)
        monitor.count("rewrite.commits")
        monitor.observe("rewrite.sp_size", 4)
        assert monitor.events[-1]["ev"] == "step"
        assert monitor.inner.counters == {"rewrite.commits": 1}
        assert monitor.summary()["counters"] == {"rewrite.commits": 1}

    def test_spans_track_the_phase_stack(self):
        monitor, _ = _monitor()
        with monitor.span("rewrite"):
            assert current_phase(monitor) == "rewrite"
        assert current_phase(monitor) == ""
        assert monitor.events[-1]["ev"] == "span"

    def test_progress_mirrors_engine_state(self):
        monitor, _ = _monitor()
        monitor.event("backtrack", comp=2, growth=40, threshold=0.1)
        monitor.event("step", i=3, comp=1, kind="FA", size=17,
                      threshold=0.1, candidates=4, remaining=7)
        view = monitor.view
        assert view.commits[-1]["step"] == 3
        assert view.commits[-1]["size"] == 17
        assert view.candidates == 4
        assert view.commits[-1]["step"] + view.remaining == 10
        assert view.backtracks == 1


class TestWatchdog:
    def test_no_stall_within_budget(self):
        monitor, clock = _monitor(stall_budget=5.0)
        monitor.event("step", i=1, comp=0, kind="FA", size=4,
                      candidates=1, remaining=1)
        clock.advance(4.9)
        monitor.pulse()
        assert monitor.stalls == []

    def test_stall_flagged_as_rp011(self):
        monitor, clock = _monitor(stall_budget=5.0)
        monitor.event("step", i=2, comp=0, kind="FA", size=9,
                      candidates=3, remaining=5)
        clock.advance(6.0)
        monitor.pulse()
        assert len(monitor.stalls) == 1
        diag = monitor.stalls[0]
        assert diag.code == "RP011"
        assert diag.severity == "warning"
        assert diag.context["step"] == 2
        assert diag.context["seconds_since_commit"] >= 5.0
        # the stall also lands in the trace for post-mortem replay
        stall_events = [e for e in monitor.events if e["ev"] == "stall"]
        assert len(stall_events) == 1
        assert stall_events[0]["step"] == 2

    def test_one_diagnostic_per_silent_gap(self):
        monitor, clock = _monitor(stall_budget=5.0)
        clock.advance(6.0)
        monitor.pulse()
        clock.advance(6.0)
        monitor.pulse()  # same gap, no re-flag
        assert len(monitor.stalls) == 1
        # a commit re-arms the watchdog; the next gap is a new stall
        monitor.event("step", i=1, comp=0, kind="FA", size=3,
                      candidates=1, remaining=1)
        clock.advance(6.0)
        monitor.pulse()
        assert len(monitor.stalls) == 2

    def test_stall_writes_a_warning_line(self):
        stream = io.StringIO()
        clock = FakeClock()
        monitor = LiveMonitor(Recorder(), stall_budget=1.0, stream=stream,
                              clock=clock)
        clock.advance(2.0)
        monitor.pulse()
        assert "RP011" in stream.getvalue()

    def test_artificially_stalled_commit_within_budget(self):
        """Acceptance: a commit gap longer than the budget is flagged
        on the very next heartbeat after the budget expires."""
        monitor, clock = _monitor(stall_budget=10.0)
        monitor.event("step", i=5, comp=0, kind="FA", size=100,
                      candidates=2, remaining=3)
        for _ in range(9):  # nine in-budget pulses: silence is fine
            clock.advance(1.0)
            monitor.pulse()
        assert monitor.stalls == []
        clock.advance(1.5)  # 10.5s since the last commit
        monitor.pulse()
        assert len(monitor.stalls) == 1
        assert monitor.stalls[0].context["step"] == 5


class TestAnomalyDetection:
    def _monitor(self, detector, stream=None):
        clock = FakeClock()
        monitor = LiveMonitor(Recorder(), stream=stream, clock=clock,
                              detector=detector)
        return monitor, clock

    def test_outlier_commit_fires_rp012(self):
        from repro.obs.attribution import (AnomalyConfig,
                                           CommitAnomalyDetector)

        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=1, min_history=3))
        monitor, _ = self._monitor(detector)
        monitor.event("rewrite_begin", size=10, components=5, ring="exact")
        for i, size in enumerate((10, 11, 12), start=1):
            monitor.event("step", i=i, comp=i, kind="FA", size=size)
        monitor.event("step", i=4, comp=4, kind="FA", size=400)
        assert [d.code for d in monitor.anomalies] == ["RP012"]
        anomaly_events = [e for e in monitor.events
                          if e["ev"] == "anomaly"]
        assert len(anomaly_events) == 1
        assert anomaly_events[0]["step"] == 4
        assert anomaly_events[0]["size"] == 400
        assert anomaly_events[0]["ratio"] > 2.0

    def test_steady_run_is_quiet(self):
        from repro.obs.attribution import (AnomalyConfig,
                                           CommitAnomalyDetector)

        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=1, min_history=3))
        monitor, _ = self._monitor(detector)
        monitor.event("rewrite_begin", size=10, components=9, ring="exact")
        for i in range(1, 10):
            monitor.event("step", i=i, comp=i, kind="FA", size=10 + i)
        assert monitor.anomalies == []

    def test_noise_floor_shields_small_polynomials(self):
        from repro.obs.attribution import (AnomalyConfig,
                                           CommitAnomalyDetector)

        # a 4 -> 40 monomial jump is a 10x ratio but far below the floor
        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=64, min_history=3))
        monitor, _ = self._monitor(detector)
        monitor.event("rewrite_begin", size=4, components=4, ring="exact")
        for i, size in enumerate((4, 4, 4, 40), start=1):
            monitor.event("step", i=i, comp=i, kind="FA", size=size)
        assert monitor.anomalies == []

    def test_store_baseline_fires_rp013_once(self):
        from repro.obs.attribution import (AnomalyConfig,
                                           CommitAnomalyDetector)

        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=100.0, floor=1, min_history=1,
                          baseline_margin=0.25),
            baseline={"peak": 100.0, "runs": 3}, design="m8")
        monitor, _ = self._monitor(detector)
        monitor.event("rewrite_begin", size=50, components=3, ring="exact")
        monitor.event("step", i=1, comp=1, kind="FA", size=90)
        assert monitor.anomalies == []  # under the margin
        monitor.event("step", i=2, comp=2, kind="FA", size=140)
        monitor.event("step", i=3, comp=3, kind="FA", size=150)
        codes = [d.code for d in monitor.anomalies]
        assert codes == ["RP013"]  # fired once, not per commit

    def test_rewrite_begin_resets_the_run_local_ewma(self):
        from repro.obs.attribution import (AnomalyConfig,
                                           CommitAnomalyDetector)

        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=1, min_history=3))
        monitor, _ = self._monitor(detector)
        monitor.event("rewrite_begin", size=10, components=3, ring="exact")
        for i, size in enumerate((10, 10, 10), start=1):
            monitor.event("step", i=i, comp=i, kind="FA", size=size)
        # threshold-fallback re-run: sizes jump but the detector starts
        # fresh
        monitor.event("rewrite_retry", budget_kind="monomials",
                      threshold=0.1)
        monitor.event("rewrite_begin", size=100, components=3,
                      ring="exact")
        monitor.event("step", i=1, comp=1, kind="FA", size=100)
        assert monitor.anomalies == []

    def test_anomaly_writes_a_warning_line(self):
        from repro.obs.attribution import (AnomalyConfig,
                                           CommitAnomalyDetector)

        detector = CommitAnomalyDetector(
            AnomalyConfig(tolerance=2.0, floor=1, min_history=3))
        stream = io.StringIO()
        monitor, _ = self._monitor(detector, stream=stream)
        monitor.event("rewrite_begin", size=10, components=4, ring="exact")
        for i, size in enumerate((10, 10, 10, 300), start=1):
            monitor.event("step", i=i, comp=i, kind="FA", size=size)
        assert "RP012" in stream.getvalue()


class TestRendering:
    def test_status_line_renders_and_clears(self):
        stream = io.StringIO()
        clock = FakeClock()
        monitor = LiveMonitor(Recorder(), stall_budget=100.0,
                              stream=stream, refresh=0.0, clock=clock,
                              interactive=True)
        clock.advance(1.0)
        with monitor.span("rewrite"):
            monitor.event("step", i=2, comp=0, kind="FA", size=9,
                          candidates=3, remaining=4)
        text = stream.getvalue()
        assert "[live] rewrite" in text
        assert "step 2/6" in text
        assert "SP_i 9" in text
        monitor.finish()
        assert stream.getvalue().endswith("\r")

    def test_non_tty_stream_falls_back_to_plain_lines(self):
        # io.StringIO().isatty() is False: auto-detection must choose
        # the plain line-per-update mode with no \r control characters
        stream = io.StringIO()
        clock = FakeClock()
        monitor = LiveMonitor(Recorder(), stall_budget=100.0,
                              stream=stream, refresh=0.0, clock=clock)
        assert monitor.interactive is False
        clock.advance(3.0)
        with monitor.span("rewrite"):
            monitor.event("step", i=2, comp=0, kind="FA", size=9,
                          candidates=3, remaining=4)
        monitor.finish()
        text = stream.getvalue()
        assert "\r" not in text
        assert "step 2/6" in text
        assert text.endswith("\n")

    def test_no_color_forces_plain_mode(self, monkeypatch):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.setenv("NO_COLOR", "1")
        monitor = LiveMonitor(Recorder(), stream=FakeTty())
        assert monitor.interactive is False
        monkeypatch.delenv("NO_COLOR")
        monkeypatch.setenv("TERM", "dumb")
        monitor = LiveMonitor(Recorder(), stream=FakeTty())
        assert monitor.interactive is False
        monkeypatch.setenv("TERM", "xterm-256color")
        monitor = LiveMonitor(Recorder(), stream=FakeTty())
        assert monitor.interactive is True

    def test_run_end_finishes_the_line(self):
        stream = io.StringIO()
        clock = FakeClock()
        monitor = LiveMonitor(Recorder(), stream=stream, refresh=0.0,
                              clock=clock)
        clock.advance(1.0)
        monitor.event("step", i=1, comp=0, kind="FA", size=3,
                      candidates=1, remaining=0)
        monitor.event("run_end", status="correct", seconds=1.0)
        assert monitor.events[-1]["ev"] == "run_end"


class TestBatchTasks:
    """A batch runs its tasks one after another under one monitor; each
    ``task_begin`` starts a fresh fold labelled with the design."""

    def test_stall_names_the_running_design(self):
        monitor, clock = _monitor(stall_budget=5.0)
        monitor.event("task_begin", design="a.aag", input="a.aag")
        clock.advance(6.0)
        monitor.pulse()
        assert len(monitor.stalls) == 1
        diag = monitor.stalls[0]
        assert diag.code == "RP011"
        assert diag.message.startswith("a.aag: no rewriting commit")
        assert diag.context["design"] == "a.aag"
        assert [e["ev"] for e in monitor.events][-1] == "stall"

    def test_task_begin_starts_a_fresh_fold(self):
        monitor, clock = _monitor(stall_budget=5.0)
        monitor.event("task_begin", design="a.aag", input="a.aag")
        monitor.event("step", i=1, comp=0, kind="FA", size=9)
        monitor.event("run_end", status="correct", seconds=1.0)
        monitor.event("task_begin", design="b.aag", input="b.aag")
        assert monitor.view.label == "b.aag"
        assert monitor.view.commits == []
        assert monitor.view.status is None
        clock.advance(6.0)  # b.aag silent past the budget
        monitor.pulse()
        assert [d.context["design"] for d in monitor.stalls] == ["b.aag"]

    def test_finished_task_may_be_silent(self):
        monitor, clock = _monitor(stall_budget=5.0)
        monitor.event("task_begin", design="a.aag", input="a.aag")
        monitor.event("run_end", status="correct", seconds=1.0)
        monitor.event("task_end", design="a.aag", status="correct")
        clock.advance(60.0)
        monitor.pulse()
        assert monitor.stalls == []


class TestPipelineIntegration:
    def test_monitor_threads_through_a_real_run(self, monkeypatch):
        """The monitor satisfies the recorder interface end to end,
        folds the engine's commits, and its pulse reaches the vanishing
        reducer."""
        from repro.core.vanishing import VanishingRuleSet

        installed = []
        set_pulse = VanishingRuleSet.set_pulse

        def spy(rules, fn, *args, **kwargs):
            installed.append(fn)
            return set_pulse(rules, fn, *args, **kwargs)

        monkeypatch.setattr(VanishingRuleSet, "set_pulse", spy)
        aig = generate_multiplier("SP-AR-RC", 4)
        monitor = LiveMonitor(Recorder(), stall_budget=1000.0)
        result = verify_multiplier(aig, record_trace=True,
                                   recorder=monitor)
        assert result.status == "correct"
        assert monitor.view.commits[-1]["step"] == result.stats["steps"]
        steps = [e for e in monitor.events if e["ev"] == "step"]
        assert len(steps) == result.stats["steps"]
        assert steps[-1]["remaining"] == 0
        assert all("candidates" in e for e in steps)
        assert monitor.stalls == []
        # Pipeline.run wired the monitor's heartbeat into the reducer
        assert installed == [monitor.pulse]

    def test_parity_under_live_monitor(self):
        aig = generate_multiplier("SP-AR-RC", 4)
        plain = verify_multiplier(aig, record_trace=True)
        monitored = verify_multiplier(aig, record_trace=True,
                                      recorder=LiveMonitor(Recorder()))
        assert plain.status == monitored.status
        assert plain.stats == monitored.stats
        assert plain.trace == monitored.trace


class TestReplayAgreement:
    def test_live_fold_agrees_with_the_replay(self):
        """Fed a recorded trace event by event, the monitor's anomalies
        and last commit are the replayed fold's."""
        from pathlib import Path

        from repro.obs import read_events
        from repro.obs.attribution import CommitAnomalyDetector
        from repro.obs.view import fold_events

        events = read_events(
            str(Path(__file__).with_name("fixtures") / "single.jsonl"))
        monitor = LiveMonitor(Recorder(), stall_budget=1000.0,
                              detector=CommitAnomalyDetector())
        for event in events:
            fields = {k: v for k, v in event.items() if k != "ev"}
            monitor.event(event["ev"], **fields)
        view = fold_events(events)
        assert view.commits
        assert ([d.as_dict() for d in monitor.anomalies]
                == [d.as_dict() for d in view.anomalies])
        last = monitor.view.commits[-1]
        assert (last["step"], last["size"]) == (view.commits[-1]["step"],
                                                view.commits[-1]["size"])
