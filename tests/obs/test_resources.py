"""Tests for repro.obs.resources: the resource tracker and sampling
profiler (deterministic paths — no timing assertions)."""

import time

from repro.core import verify_multiplier
from repro.genmul import generate_multiplier
from repro.obs import Recorder, ResourceTracker, SamplingProfiler
from repro.obs.resources import (
    current_phase,
    read_peak_rss_kb,
    read_rss_kb,
    render_hotspot_table,
    render_resource_table,
)


class TestRssReaders:
    def test_rss_is_positive(self):
        assert read_rss_kb() > 0
        assert read_peak_rss_kb() >= read_rss_kb() * 0.5


class TestCurrentPhase:
    def test_reads_the_open_span_stack(self):
        recorder = Recorder()
        assert current_phase(recorder) == ""
        with recorder.span("rewrite"):
            assert current_phase(recorder) == "rewrite"
            with recorder.span("reduce"):
                assert current_phase(recorder) == "rewrite.reduce"
        assert current_phase(recorder) == ""

    def test_walks_wrapper_chains(self):
        recorder = Recorder()
        tracker = ResourceTracker(recorder, interval=None,
                                  trace_malloc=False)
        with recorder.span("model"):
            assert current_phase(tracker) == "model"
        tracker.stop()


class TestResourceTracker:
    def _tracker(self, **kwargs):
        kwargs.setdefault("interval", None)  # no sampler thread
        kwargs.setdefault("trace_malloc", True)
        return ResourceTracker(Recorder(), **kwargs)

    def test_top_level_spans_emit_phase_resources(self):
        tracker = self._tracker()
        with tracker.span("rewrite"):
            ballast = [list(range(200)) for _ in range(200)]
            del ballast
        events = [e for e in tracker.events
                  if e["ev"] == "phase_resources"]
        assert len(events) == 1
        event = events[0]
        assert event["phase"] == "rewrite"
        assert event["rss_peak_kb"] >= event["rss_kb"] * 0.5
        assert "tracemalloc_kb" in event
        assert event["tracemalloc_peak_kb"] > 0
        assert tracker.phase_resources["rewrite"]["rss_peak_kb"] > 0
        tracker.stop()

    def test_nested_spans_roll_up_to_the_top_level(self):
        tracker = self._tracker()
        with tracker.span("rewrite"):
            with tracker.span("reduce"):
                pass
        phases = [e["phase"] for e in tracker.events
                  if e["ev"] == "phase_resources"]
        assert phases == ["rewrite"]
        tracker.stop()

    def test_repeated_phases_aggregate(self):
        tracker = self._tracker(trace_malloc=False)
        with tracker.span("rewrite"):
            pass
        with tracker.span("rewrite"):
            pass
        slot = tracker.phase_resources["rewrite"]
        assert slot["gc_collections"] >= 0
        events = [e for e in tracker.events
                  if e["ev"] == "phase_resources"]
        assert len(events) == 2
        tracker.stop()

    def test_stop_is_idempotent_and_emits_one_summary(self):
        tracker = self._tracker()
        tracker.stop()
        tracker.stop()
        summaries = [e for e in tracker.events
                     if e["ev"] == "resources_summary"]
        assert len(summaries) == 1
        assert summaries[0]["peak_rss_kb"] > 0
        assert summaries[0]["rss_samples"] >= 2  # first + last

    def test_sampler_thread_collects_and_stops(self):
        tracker = ResourceTracker(Recorder(), interval=0.01,
                                  trace_malloc=False)
        time.sleep(0.08)
        tracker.stop()
        samples = [e for e in tracker.events
                   if e["ev"] == "resource_sample"]
        assert len(samples) >= 2
        assert all(s["rss_kb"] > 0 for s in samples)
        assert tracker._thread is None

    def test_recorder_interface_delegates(self):
        inner = Recorder()
        tracker = ResourceTracker(inner, interval=None,
                                  trace_malloc=False)
        tracker.event("step", i=1, size=2)
        tracker.count("rewrite.commits")
        tracker.observe("rewrite.sp_size", 2)
        assert inner.counters == {"rewrite.commits": 1}
        kinds = [e["ev"] for e in inner.events
                 if e["ev"] != "resource_sample"]
        assert kinds == ["step"]
        tracker.stop()

    def test_pipeline_parity_under_tracker(self):
        aig = generate_multiplier("SP-AR-RC", 4)
        plain = verify_multiplier(aig, record_trace=True)
        tracker = self._tracker()
        tracked = verify_multiplier(aig, record_trace=True,
                                    recorder=tracker)
        tracker.stop()
        assert plain.status == tracked.status == "correct"
        assert plain.stats == tracked.stats
        assert plain.trace == tracked.trace
        phases = {e["phase"] for e in tracker.events
                  if e["ev"] == "phase_resources"}
        assert "rewrite" in phases


class TestSamplingProfiler:
    def test_samples_attribute_to_open_phases(self):
        recorder = Recorder()
        profiler = SamplingProfiler(recorder, interval=0.002)
        profiler.start()
        deadline = time.perf_counter() + 0.5
        with recorder.span("rewrite"):
            while (profiler.samples < 5
                   and time.perf_counter() < deadline):
                sum(i * i for i in range(2000))
        summary = profiler.stop()
        assert summary["samples"] >= 5
        assert summary["phases"].get("rewrite", 0) >= 5
        assert summary["attributed_fraction"] > 0.5
        assert summary["hotspots"]
        assert summary["hotspots"][0]["samples"] >= 1
        # exactly one profile event lands in the recorder
        profiles = [e for e in recorder.events if e["ev"] == "profile"]
        assert len(profiles) == 1
        assert profiler.stop() == summary  # idempotent, no second event
        assert len([e for e in recorder.events
                    if e["ev"] == "profile"]) == 1

    def test_commit_attribution_buckets_the_upcoming_step(self):
        # time between commit i and commit i+1 is spent constructing
        # commit i+1, so samples after step 7 belong to bucket 8 — not
        # to the stale last_step
        recorder = Recorder()
        profiler = SamplingProfiler(recorder, interval=0.002)
        recorder.event("step", i=7, size=3)
        profiler.start()
        deadline = time.perf_counter() + 0.5
        with recorder.span("rewrite"):
            while (profiler.samples < 3
                   and time.perf_counter() < deadline):
                sum(i * i for i in range(2000))
        summary = profiler.stop()
        assert summary["commits"].get("8", 0) >= 1
        assert "7" not in summary["commits"]

    def test_samples_before_the_first_commit_bucket_under_step_one(self):
        # regression: rewrite-phase samples taken before any step event
        # used to be dropped entirely (last_step is None); they are the
        # cost of constructing commit 1
        recorder = Recorder()
        profiler = SamplingProfiler(recorder, interval=0.002)
        profiler.start()
        deadline = time.perf_counter() + 0.5
        with recorder.span("rewrite"):
            while (profiler.samples < 3
                   and time.perf_counter() < deadline):
                sum(i * i for i in range(2000))
        summary = profiler.stop()
        assert summary["commits"].get("1", 0) >= 1

    def test_no_samples_is_not_an_error(self):
        profiler = SamplingProfiler(Recorder(), interval=0.002)
        summary = profiler.stop()  # never started
        assert summary["samples"] == 0
        assert render_hotspot_table(summary) == \
            "(no profiler samples collected)"


class TestRendering:
    def test_hotspot_table_mentions_the_attribution_rate(self):
        profile = {
            "samples": 100, "interval": 0.005, "attributed": 97,
            "attributed_fraction": 0.97,
            "phases": {"rewrite": 80, "model": 17, "(outside spans)": 3},
            "hotspots": [{"func": "spoly.reduce", "samples": 60,
                          "share": 0.6}],
            "commits": {"12": 30},
        }
        text = render_hotspot_table(profile)
        assert "100 samples at 5ms" in text
        assert "97% attributed to pipeline phases" in text
        assert "spoly.reduce" in text
        assert "Hottest rewrite commits" in text

    def test_resource_table_renders_phases_and_totals(self):
        phase_resources = {"rewrite": {"rss_peak_kb": 50000,
                                       "tracemalloc_kb": 120.5,
                                       "tracemalloc_peak_kb": 300.0,
                                       "gc_collections": 2}}
        summary = {"peak_rss_kb": 51000, "tracemalloc_peak_kb": 300.0,
                   "gc_collections": 3}
        text = render_resource_table(phase_resources, summary)
        assert "rewrite" in text
        assert "50000" in text
        assert "run total: peak RSS 51000 KiB" in text

    def test_empty_resource_table(self):
        assert render_resource_table({}, None) == \
            "(no resource telemetry recorded)"
