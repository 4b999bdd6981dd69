"""Tests for repro.obs: recorder primitives, JSONL sinks, and the
recorder-on/off parity guarantee."""

import json
import logging

import pytest

from repro.core import verify_multiplier
from repro.errors import ObsDataError
from repro.genmul import generate_multiplier
from repro.obs import (
    NULL,
    Histogram,
    NullRecorder,
    Recorder,
    read_events,
    read_events_tolerant,
    recording_to,
)
from repro.obs.recorder import TRACE_HEADER


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL.enabled is False
        NULL.event("anything", kind="shadowed", value=1)
        NULL.count("c")
        NULL.observe("h", 3)
        with NULL.span("phase", detail="x"):
            pass
        NULL.close()

    def test_singleton_is_null_recorder(self):
        assert isinstance(NULL, NullRecorder)


class TestRecorderPrimitives:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("hits")
        rec.count("hits", 4)
        rec.count("misses")
        assert rec.counters == {"hits": 5, "misses": 1}

    def test_histogram_stats(self):
        hist = Histogram()
        for value in (1, 2, 3, 8):
            hist.add(value)
        snap = hist.as_dict()
        assert snap["count"] == 4
        assert snap["sum"] == 14
        assert snap["min"] == 1
        assert snap["max"] == 8
        assert snap["mean"] == pytest.approx(3.5)
        # log2 buckets: 1 -> bucket 1, 2..3 -> bucket 2, 8 -> bucket 4
        assert snap["log2_buckets"] == {1: 1, 2: 2, 4: 1}

    def test_event_kind_can_also_be_a_field(self):
        # `kind` is positional-only so instrumentation may attach a
        # `kind=` payload field without a collision
        rec = Recorder()
        rec.event("attempt", kind="FA", comp=3)
        assert rec.events[-1]["ev"] == "attempt"
        assert rec.events[-1]["kind"] == "FA"

    def test_nested_spans_use_dotted_paths(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        assert set(rec.span_totals) == {"outer", "outer.inner"}
        assert rec.span_counts == {"outer": 1, "outer.inner": 1}
        # the child's time is part of the parent's
        assert rec.span_totals["outer"] >= rec.span_totals["outer.inner"]
        # events carry both the leaf name and the full path
        inner, outer = rec.events
        assert (inner["name"], inner["path"]) == ("inner", "outer.inner")
        assert (outer["name"], outer["path"]) == ("outer", "outer")
        assert inner["dur"] <= outer["dur"]

    def test_repeated_spans_aggregate(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("phase"):
                pass
        assert rec.span_counts["phase"] == 3
        assert len(rec.events) == 3

    def test_summary_shape(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        rec.count("n", 2)
        rec.observe("sizes", 7)
        summary = rec.summary()
        assert set(summary) == {"phases", "counters", "histograms"}
        assert summary["counters"] == {"n": 2}
        assert summary["histograms"]["sizes"]["count"] == 1
        assert "a" in summary["phases"]

    def test_task_begin_restarts_the_aggregates(self):
        events = [{"ev": "submitted"}]
        rec = Recorder(events=events)
        with rec.span("a"):
            pass
        rec.count("n", 2)
        rec.observe("sizes", 7)
        rec.event("task_begin", design="b.aag")
        rec.count("n")
        assert rec.summary() == {"phases": {}, "counters": {"n": 1},
                                 "histograms": {}}
        assert rec.events is events
        assert [e["ev"] for e in events] == ["submitted", "span",
                                            "task_begin"]

    def test_rewrite_retry_restores_the_aggregates_of_its_run_start(self):
        rec = Recorder()
        rec.count("rewrite.commits", 3)
        rec.observe("rewrite.sp_size", 7)
        rec.event("rewrite_begin", size=2)
        with rec.span("rewrite"):
            rec.count("rewrite.commits", 5)
            rec.count("rewrite.backtracks")
            rec.observe("rewrite.sp_size", 900)
            rec.observe("rewrite.attempt_size", 4)
        before = rec.summary()
        rec.event("rewrite_retry", budget_kind="monomials", threshold=0.1)
        after = rec.summary()
        assert after["counters"] == {"rewrite.commits": 3}
        assert set(after["histograms"]) == {"rewrite.sp_size"}
        assert after["histograms"]["rewrite.sp_size"]["max"] == 7
        # wall time really spent stays
        assert after["phases"] == before["phases"]
        # the re-run counts from there, and its own retry point is its
        # own rewrite_begin
        rec.event("rewrite_begin", size=2)
        rec.count("rewrite.commits")
        rec.observe("rewrite.sp_size", 8)
        summary = rec.summary()
        assert summary["counters"] == {"rewrite.commits": 4}
        assert summary["histograms"]["rewrite.sp_size"]["count"] == 2


class TestJsonlRoundTrip:
    def test_events_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = recording_to(str(path))
        rec.event("run_begin", method="dyposub", nodes=5)
        with rec.span("spec"):
            pass
        rec.count("rewrite.commits")
        rec.close()
        events = read_events(str(path))
        assert events == rec.events
        assert events[0]["ev"] == "run_begin"
        assert events[-1]["ev"] == "summary"
        assert events[-1]["counters"] == {"rewrite.commits": 1}

    def test_file_starts_with_the_format_header(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recording_to(str(path)).close()
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first) == TRACE_HEADER

    @pytest.mark.parametrize("first", [
        "", '{"ev": "run_begin", "t": 0.0}', '{"trace_format": 2}',
        "not json"], ids=["empty", "no-header", "format-2", "not-json"])
    def test_other_first_line_is_refused(self, tmp_path, first):
        path = tmp_path / "trace.jsonl"
        path.write_text(first + '\n{"ev": "run_begin", "t": 0.0}\n',
                        encoding="utf-8")
        with pytest.raises(ObsDataError, match="trace"):
            read_events_tolerant(str(path))

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = recording_to(str(path))
        rec.close()
        rec.close()
        assert read_events(str(path))[-1]["ev"] == "summary"


class TestTruncatedTraces:
    """A run killed mid-write leaves a partial final line; readers must
    salvage the parseable prefix instead of raising."""

    def _write(self, path, lines):
        path.write_text("\n".join([json.dumps(TRACE_HEADER), *lines]),
                        encoding="utf-8")

    def test_tolerant_reader_counts_skips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write(path, ['{"ev": "run_begin", "t": 0.0}',
                           '{"ev": "step", "i": 1, "si'])
        events, skipped = read_events_tolerant(str(path))
        assert [e["ev"] for e in events] == ["run_begin"]
        assert skipped == 1

    def test_non_object_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write(path, ['{"ev": "run_begin", "t": 0.0}',
                           '[1, 2, 3]', '"just a string"', ''])
        events, skipped = read_events_tolerant(str(path))
        assert len(events) == 1
        assert skipped == 2  # blank lines are not corruption

    @pytest.fixture()
    def repro_logs(self, caplog, monkeypatch):
        # the CLI marks the `repro` logger non-propagating once `-v/-q`
        # has configured it; restore propagation so caplog's root
        # handler sees the warning regardless of test order
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level("WARNING", logger="repro.obs.recorder"):
            yield caplog

    def test_read_events_warns_instead_of_raising(self, tmp_path,
                                                  repro_logs):
        path = tmp_path / "trace.jsonl"
        self._write(path, ['{"ev": "run_begin", "t": 0.0}', '{"ev": "st'])
        events = read_events(str(path))
        assert [e["ev"] for e in events] == ["run_begin"]
        assert any("skipped 1" in record.message
                   for record in repro_logs.records)

    def test_clean_trace_emits_no_warning(self, tmp_path, repro_logs):
        path = tmp_path / "trace.jsonl"
        self._write(path, ['{"ev": "run_begin", "t": 0.0}'])
        read_events(str(path))
        assert not repro_logs.records


class TestParity:
    """Instrumentation must be observation only: running under a live
    recorder may never change the verification outcome."""

    @pytest.fixture(scope="class")
    def aig(self):
        return generate_multiplier("SP-AR-RC", 8)

    def test_recorder_does_not_change_result(self, aig):
        plain = verify_multiplier(aig, record_trace=True)
        rec = Recorder()
        traced = verify_multiplier(aig, record_trace=True, recorder=rec)
        assert plain.status == traced.status == "correct"
        assert plain.stats == traced.stats
        assert plain.trace == traced.trace
        assert rec.events, "live recorder saw no events"

    def test_recorder_sees_every_committed_step(self, aig):
        rec = Recorder()
        result = verify_multiplier(aig, record_trace=True, recorder=rec)
        steps = [e for e in rec.events if e["ev"] == "step"]
        assert len(steps) == result.stats["steps"]
        assert [e["size"] for e in steps] == result.sizes()
        assert rec.counters["rewrite.commits"] == result.stats["steps"]

    def test_timeout_parity_and_budget_kind(self, aig):
        plain = verify_multiplier(aig, monomial_budget=50)
        traced = verify_multiplier(aig, monomial_budget=50,
                                   recorder=Recorder())
        assert plain.timed_out and traced.timed_out
        assert plain.stats == traced.stats
        assert plain.stats["budget_kind"] == "monomials"
        assert "budget_kind=monomials" in plain.summary()
