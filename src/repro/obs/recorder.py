"""Zero-dependency telemetry: spans, counters, histograms, event sinks.

The observability layer is a single *recorder* object threaded through
the verification pipeline.  Three implementations matter:

* :data:`NULL` — the no-op default.  Every instrumentation site guards
  its event construction with ``if recorder.enabled:`` so a run without
  a recorder pays only attribute checks (the acceptance bar is <5%
  overhead on the 8x8 benchmarks; in practice it is unmeasurable).
* :class:`Recorder` — in-memory aggregation: nested span timings keyed
  by dotted path, monotonically increasing counters, and power-of-two
  bucket histograms.  Every emitted event is also kept in
  ``recorder.events`` so reports can be built without a file.
* :class:`Recorder` with a :class:`JsonlSink` — the same, but every
  event is additionally streamed to a JSONL file that
  ``python -m repro report`` (see :mod:`repro.obs.report`) can replay
  after the fact.  The file's first line is :data:`TRACE_HEADER`, and
  :func:`read_events_tolerant` refuses a file that does not start with
  it.

Event records are plain dicts with an ``ev`` kind tag and a ``t``
timestamp relative to recorder construction.  The kinds emitted by the
pipeline are documented in DESIGN.md ("Observability"); the recorder
itself is schema-agnostic.
"""

from __future__ import annotations

import json
import logging
import threading
import time

from repro.errors import ObsDataError

log = logging.getLogger("repro.obs.recorder")

#: The first line of every trace file.  The number changes whenever an
#: event's meaning does, so a reader never folds a trace it cannot read.
TRACE_HEADER = {"trace_format": 1}


class _NullSpan:
    """Reusable no-op context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder that records nothing; ``enabled`` gates all call sites."""

    enabled = False

    def event(self, kind, /, **fields):
        pass

    def span(self, name, /, **fields):
        return _NULL_SPAN

    def count(self, name, value=1, /):
        pass

    def observe(self, name, value, /):
        pass

    def close(self):
        pass


NULL = NullRecorder()


class _Span:
    """Timed scope; emits one ``span`` event on exit and aggregates the
    duration under the dotted path of enclosing span names."""

    __slots__ = ("_recorder", "_name", "_fields", "_start", "_path")

    def __init__(self, recorder, name, fields):
        self._recorder = recorder
        self._name = name
        self._fields = fields
        self._start = None
        self._path = None

    def __enter__(self):
        rec = self._recorder
        rec._stack.append(self._name)
        self._path = ".".join(rec._stack)
        self._start = rec._now()
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self._recorder
        duration = rec._now() - self._start
        rec._stack.pop()
        rec.span_totals[self._path] = (
            rec.span_totals.get(self._path, 0.0) + duration)
        rec.span_counts[self._path] = rec.span_counts.get(self._path, 0) + 1
        rec._emit({"ev": "span", "t": round(self._start, 6),
                   "name": self._name, "path": self._path,
                   "dur": round(duration, 6), **self._fields})
        return False


class Histogram:
    """Streaming histogram: count/sum/min/max plus log2 buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def add(self, value):
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bucket = max(int(value), 0).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def copy(self):
        other = Histogram()
        other.count = self.count
        other.total = self.total
        other.min = self.min
        other.max = self.max
        other.buckets = dict(self.buckets)
        return other

    def as_dict(self):
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "mean": (self.total / self.count if self.count else None),
                "log2_buckets": dict(sorted(self.buckets.items()))}


class Recorder:
    """In-memory recorder with an optional streaming sink.

    ``sink`` is any object with ``write(record: dict)`` and ``close()``
    (see :class:`JsonlSink`); events always also accumulate in
    ``self.events``, the list passed as ``events`` (a service job's
    stream) or a fresh one.

    One recorder may carry a whole batch: a ``task_begin`` event starts
    the next task, and the span totals, counters and histograms restart
    from zero (the events, the sink and the clock carry on), so each
    task's verdict record and ``summary`` event count that task alone.
    Likewise a ``rewrite_retry`` event (the pipeline re-runs an
    abandoned rewrite run) puts the counters and histograms back where
    that run's ``rewrite_begin`` found them, so they count the kept run.
    """

    enabled = True

    def __init__(self, sink=None, events=None):
        self._clock = time.perf_counter
        self._t0 = self._clock()
        self._sink = sink
        self._stack = []
        self.events = [] if events is None else events
        self._restart()

    def _restart(self):
        self.span_totals = {}
        self.span_counts = {}
        self.counters = {}
        self.histograms = {}
        # counters and histograms as the latest rewrite_begin found them
        self._rewrite_mark = ({}, {})
        # latest committed rewriting step — cheap state the sampling
        # profiler (repro.obs.resources) reads to attribute samples to
        # commits without subscribing to the event stream
        self.last_step = None

    def _now(self):
        return self._clock() - self._t0

    def _emit(self, record):
        self.events.append(record)
        if self._sink is not None:
            self._sink.write(record)

    # -- the recorder interface ----------------------------------------

    def event(self, kind, /, **fields):
        if kind == "step":
            self.last_step = fields.get("i")
        elif kind == "rewrite_begin":
            self._rewrite_mark = (dict(self.counters), {
                name: hist.copy() for name, hist in self.histograms.items()})
        elif kind == "rewrite_retry":
            self.counters, self.histograms = self._rewrite_mark
        elif kind == "task_begin":
            self._restart()
        self._emit({"ev": kind, "t": round(self._now(), 6), **fields})

    def span(self, name, /, **fields):
        return _Span(self, name, fields)

    def count(self, name, value=1, /):
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name, value, /):
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.add(value)

    def summary(self):
        """Aggregate snapshot (also emitted as the final JSONL event)."""
        return {
            "phases": {path: round(total, 6)
                       for path, total in sorted(self.span_totals.items())},
            "counters": dict(sorted(self.counters.items())),
            "histograms": {name: hist.as_dict()
                           for name, hist in sorted(self.histograms.items())},
        }

    def close(self):
        """Emit the final summary event and close the sink."""
        self.event("summary", **self.summary())
        if self._sink is not None:
            self._sink.close()
            self._sink = None


class JsonlSink:
    """Append-only JSON-Lines event sink; writes :data:`TRACE_HEADER`
    first.

    Writes are serialized under a lock: a background telemetry thread
    (the resource sampler) emits events concurrently with the
    pipeline's own, and interleaved partial writes would corrupt the
    trace.
    """

    def __init__(self, path):
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.write(TRACE_HEADER)

    def write(self, record):
        line = json.dumps(record, sort_keys=False) + "\n"
        with self._lock:
            self._handle.write(line)

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


def recording_to(path):
    """Convenience: a :class:`Recorder` streaming to a JSONL file."""
    return Recorder(sink=JsonlSink(path))


def _check_header(line):
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict) or "trace_format" not in header:
        raise ObsDataError(f"not a trace file: line 1 is not the header "
                           f"{json.dumps(TRACE_HEADER)}")
    if header["trace_format"] != TRACE_HEADER["trace_format"]:
        raise ObsDataError(
            f"trace format {header['trace_format']!r}; this build reads "
            f"format {TRACE_HEADER['trace_format']}")


def read_events_tolerant(path):
    """Load a JSONL trace, tolerating truncated or corrupt lines.

    A run that crashed or was killed mid-write leaves a partial final
    line; such traces must still be ingestable by the run-history store.
    Returns ``(events, skipped)`` where ``skipped`` counts the lines
    that failed to parse as JSON objects.  A file whose first line is
    not :data:`TRACE_HEADER` raises :class:`~repro.errors.ObsDataError`.
    """
    events = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        _check_header(handle.readline())
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                skipped += 1
    return events, skipped


def read_events(path):
    """Load a JSONL trace back into a list of event dicts.

    Truncated/partial lines (crashed runs) are skipped with a warning
    instead of raising; use :func:`read_events_tolerant` to also get
    the skipped-line count.
    """
    events, skipped = read_events_tolerant(path)
    if skipped:
        log.warning("%s: skipped %d unparseable JSONL line(s) "
                    "(truncated trace?)", path, skipped)
    return events
