"""Resource profiling: RSS/tracemalloc/GC tracking and a sampling
profiler — all stdlib, all optional, all recorder-shaped.

Two independent tools live here:

:class:`ResourceTracker`
    A recorder wrapper (same composition trick as
    :class:`~repro.obs.live.LiveMonitor`): top-level pipeline spans are
    bracketed with resource snapshots — RSS from ``/proc/self/status``
    (``resource.getrusage`` fallback), ``tracemalloc``
    current/peak deltas, and GC collection counts — emitted as
    ``phase_resources`` events.  A lightweight sampler thread
    additionally polls RSS on an interval so the *peak within* a phase
    is caught, not just its endpoints, and emits throttled
    ``resource_sample`` events for timeline reconstruction.  ``close``
    emits one ``resources_summary`` event with the run-wide peaks.
    Overhead: the sampler is a sleeping thread (unmeasurable); the
    dominant cost is ``tracemalloc`` itself, which taxes every
    allocation — expect ~1.3–2× wall clock on allocation-heavy phases
    while ``--resources`` is on (characterized in DESIGN.md).

:class:`SamplingProfiler`
    A timer-driven statistical profiler: a thread wakes every
    ``interval`` seconds, reads the target thread's innermost Python
    frame via ``sys._current_frames()``, and attributes the sample to
    (a) the innermost open recorder span (the pipeline phase) and (b)
    the rewriting commit being *constructed* — the step after the most
    recently committed one (``Recorder.last_step + 1``).  Results are
    exported as a ``profile`` event (hotspot table, per-phase and
    per-commit sample counts).  Overhead is bounded by the sampling
    rate, not the workload — at the default 5 ms interval a sample
    costs well under 5% of one core.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import tracemalloc

from repro.obs.recorder import Recorder

#: Default resource-sampler polling interval (seconds).
DEFAULT_SAMPLE_INTERVAL = 0.05
#: Default profiler sampling interval (seconds).
DEFAULT_PROFILE_INTERVAL = 0.005


def read_rss_kb():
    """Current resident-set size in KiB (``VmRSS``), or the process
    peak from ``getrusage`` where ``/proc`` is unavailable."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def read_peak_rss_kb():
    """Peak resident-set size in KiB (``VmHWM``; ``ru_maxrss``
    fallback)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _gc_collections():
    return sum(stat["collections"] for stat in gc.get_stats())


def current_phase(recorder):
    """Dotted path of the innermost open span, walking recorder
    wrappers down to the :class:`Recorder` that keeps the span stack."""
    seen = 0
    while recorder is not None and seen < 8:
        stack = getattr(recorder, "_stack", None)
        if stack is not None:
            # snapshot: the owning thread may mutate concurrently
            return ".".join(list(stack))
        recorder = getattr(recorder, "inner", None)
        seen += 1
    return ""


def _base_recorder(recorder):
    """The innermost real :class:`Recorder` under any wrappers."""
    seen = 0
    while recorder is not None and seen < 8:
        if isinstance(recorder, Recorder):
            return recorder
        recorder = getattr(recorder, "inner", None)
        seen += 1
    return None


class _ResourceSpan:
    """Span wrapper bracketing top-level phases with resource deltas."""

    __slots__ = ("_tracker", "_inner", "_name", "_top", "_rss0",
                 "_traced0", "_gc0")

    def __init__(self, tracker, inner, name):
        self._tracker = tracker
        self._inner = inner
        self._name = name
        self._top = False

    def __enter__(self):
        tracker = self._tracker
        self._top = tracker._depth == 0
        tracker._depth += 1
        if self._top:
            tracker._phase = self._name
            tracker._phase_peak_kb = 0
            self._rss0 = read_rss_kb()
            self._traced0 = (tracemalloc.get_traced_memory()[0]
                             if tracemalloc.is_tracing() else None)
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            self._gc0 = _gc_collections()
        self._inner.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        result = self._inner.__exit__(exc_type, exc, tb)
        tracker = self._tracker
        tracker._depth -= 1
        if self._top:
            rss = read_rss_kb()
            peak = max(tracker._phase_peak_kb, self._rss0, rss)
            fields = {"phase": self._name, "rss_kb": rss,
                      "rss_peak_kb": peak,
                      "gc_collections": _gc_collections() - self._gc0}
            if self._traced0 is not None and tracemalloc.is_tracing():
                current, traced_peak = tracemalloc.get_traced_memory()
                fields["tracemalloc_kb"] = round(
                    (current - self._traced0) / 1024.0, 1)
                fields["tracemalloc_peak_kb"] = round(traced_peak / 1024.0, 1)
            tracker._phase = None
            tracker._record_phase(fields)
        return result


class ResourceTracker:
    """Recorder wrapper adding per-phase and run-wide resource telemetry.

    ``inner`` is the recorder events delegate to; ``interval`` is the
    RSS sampler period (``None`` disables the thread — span-boundary
    snapshots still happen); ``trace_malloc`` starts ``tracemalloc``
    for the tracker's lifetime when it was not already running.
    """

    enabled = True

    def __init__(self, inner=None, interval=DEFAULT_SAMPLE_INTERVAL,
                 trace_malloc=True, sample_events=True):
        self.inner = inner if inner is not None else Recorder()
        self.interval = interval
        self.sample_events = sample_events
        self.phase_resources = {}
        self.peak_rss_kb = read_rss_kb()
        self.samples = 0
        self._depth = 0
        self._phase = None
        self._phase_peak_kb = 0
        self._gc0 = _gc_collections()
        self._started_tracemalloc = False
        if trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._stop = threading.Event()
        self._thread = None
        self._stopped = False
        self._sample(emit=sample_events)  # deterministic first sample
        if interval:
            self._thread = threading.Thread(
                target=self._loop, name="repro-obs-resources", daemon=True)
            self._thread.start()

    # -- sampling ------------------------------------------------------

    def _sample(self, emit=False):
        rss = read_rss_kb()
        self.samples += 1
        if rss > self.peak_rss_kb:
            self.peak_rss_kb = rss
        if self._phase is not None and rss > self._phase_peak_kb:
            self._phase_peak_kb = rss
        if emit:
            self.inner.event("resource_sample", rss_kb=rss,
                             gc_collections=_gc_collections())
        return rss

    def _loop(self):
        while not self._stop.wait(self.interval):
            self._sample(emit=self.sample_events)

    def _record_phase(self, fields):
        self.inner.event("phase_resources", **fields)
        slot = self.phase_resources.setdefault(fields["phase"], {})
        for key, value in fields.items():
            if key == "phase":
                continue
            if key in ("rss_peak_kb", "tracemalloc_peak_kb"):
                slot[key] = max(slot.get(key, value), value)
            elif key in ("gc_collections", "tracemalloc_kb"):
                slot[key] = round(slot.get(key, 0) + value, 1)
            else:
                slot[key] = value

    def resources_summary(self):
        summary = {"peak_rss_kb": max(self.peak_rss_kb, read_peak_rss_kb()),
                   "rss_samples": self.samples,
                   "gc_collections": _gc_collections() - self._gc0}
        if tracemalloc.is_tracing():
            summary["tracemalloc_peak_kb"] = round(
                tracemalloc.get_traced_memory()[1] / 1024.0, 1)
        return summary

    # -- recorder interface --------------------------------------------

    @property
    def events(self):
        return self.inner.events

    def summary(self):
        return self.inner.summary()

    def event(self, kind, /, **fields):
        self.inner.event(kind, **fields)

    def span(self, name, /, **fields):
        return _ResourceSpan(self, self.inner.span(name, **fields), name)

    def count(self, name, value=1, /):
        self.inner.count(name, value)

    def observe(self, name, value, /):
        self.inner.observe(name, value)

    def pulse(self, units=1):
        pulse = getattr(self.inner, "pulse", None)
        if pulse is not None:
            pulse(units)

    def stop(self):
        """Stop the sampler and emit the ``resources_summary`` event
        (idempotent; does not close the inner recorder)."""
        if self._stopped:
            return
        self._stopped = True
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self._sample(emit=self.sample_events)  # deterministic last sample
        self.inner.event("resources_summary", **self.resources_summary())
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    def close(self):
        self.stop()
        self.inner.close()


class SamplingProfiler:
    """Statistical wall-clock profiler attributing samples to pipeline
    phases and rewrite commits.

    ``recorder`` provides phase attribution (its open-span stack) and
    commit attribution (the upcoming step, ``last_step + 1``, since
    time between commits is spent constructing the next one), and
    receives the final
    ``profile`` event; ``interval`` is the sampling period.  The target
    is the thread that calls :meth:`start`.
    """

    def __init__(self, recorder=None, interval=DEFAULT_PROFILE_INTERVAL,
                 top=20):
        self.recorder = recorder
        self.interval = interval
        self.top = top
        self.samples = 0
        self.attributed = 0
        self.by_phase = {}
        self.by_func = {}
        self.by_commit = {}
        self._target = None
        self._stop = threading.Event()
        self._thread = None
        self._stopped = False

    def start(self):
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-obs-profiler",
                                        daemon=True)
        self._thread.start()
        return self

    @staticmethod
    def _frame_label(frame):
        code = frame.f_code
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        name = getattr(code, "co_qualname", code.co_name)
        return f"{module}.{name}"

    def _take_sample(self):
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        leaf = self._frame_label(frame)
        phase = current_phase(self.recorder) if self.recorder else ""
        # bin to the top-level phase: sub-spans roll up to their parent
        phase = phase.split(".", 1)[0] if phase else ""
        self.samples += 1
        if phase:
            self.attributed += 1
        key = phase or "(outside spans)"
        self.by_phase[key] = self.by_phase.get(key, 0) + 1
        self.by_func[leaf] = self.by_func.get(leaf, 0) + 1
        base = _base_recorder(self.recorder)
        step = base.last_step if base is not None else None
        if phase == "rewrite":
            # a sample taken between step i and step i+1 is work spent
            # *constructing* commit i+1, so bucket it under the upcoming
            # step (matching the attribution layer's wall-time windows);
            # samples before the first commit belong to step 1
            upcoming = 1 if step is None else step + 1
            self.by_commit[upcoming] = self.by_commit.get(upcoming, 0) + 1

    def _loop(self):
        while not self._stop.wait(self.interval):
            try:
                self._take_sample()
            except Exception:  # noqa: BLE001 - profiling must not kill runs
                pass

    def profile_summary(self):
        """JSON-ready hotspot summary (the ``profile`` event body)."""
        total = self.samples or 1
        hotspots = [
            {"func": func, "samples": count,
             "share": round(count / total, 4)}
            for func, count in sorted(self.by_func.items(),
                                      key=lambda kv: (-kv[1], kv[0]))
        ][:self.top]
        commits = dict(sorted(self.by_commit.items(),
                              key=lambda kv: (-kv[1], kv[0]))[:self.top])
        return {
            "samples": self.samples,
            "interval": self.interval,
            "attributed": self.attributed,
            "attributed_fraction": round(self.attributed / total, 4),
            "phases": dict(sorted(self.by_phase.items())),
            "hotspots": hotspots,
            "commits": {str(step): count for step, count in commits.items()},
        }

    def stop(self):
        """Stop sampling and emit the ``profile`` event; returns the
        summary dict (idempotent — the event is emitted once)."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        summary = self.profile_summary()
        if (not self._stopped and self.recorder is not None
                and self.recorder.enabled):
            self.recorder.event("profile", **summary)
        self._stopped = True
        return summary


def render_hotspot_table(profile):
    """ASCII rendering of one ``profile`` summary (CLI + report)."""
    from repro.bench.render import render_table

    total = profile.get("samples", 0)
    if not total:
        return "(no profiler samples collected)"
    lines = []
    fraction = profile.get("attributed_fraction")
    lines.append(f"{total} samples at {profile.get('interval', 0) * 1e3:g}ms"
                 + (f", {fraction:.0%} attributed to pipeline phases"
                    if fraction is not None else ""))
    phases = profile.get("phases") or {}
    if phases:
        rows = [[phase, count, f"{100.0 * count / total:.1f}%"]
                for phase, count in sorted(phases.items(),
                                           key=lambda kv: -kv[1])]
        lines.append(render_table(["phase", "samples", "share"], rows,
                                  title="Samples per pipeline phase"))
    hotspots = profile.get("hotspots") or []
    if hotspots:
        rows = [[spot["func"], spot["samples"],
                 f"{100.0 * spot.get('share', 0):.1f}%"]
                for spot in hotspots]
        lines.append(render_table(["function", "samples", "share"], rows,
                                  title="Hotspots (leaf frames)"))
    commits = profile.get("commits") or {}
    if commits:
        rows = [[step, count]
                for step, count in sorted(commits.items(),
                                          key=lambda kv: -kv[1])[:10]]
        lines.append(render_table(["rewrite commit", "samples"], rows,
                                  title="Hottest rewrite commits"))
    return "\n\n".join(lines)


def render_resource_table(phase_resources, summary=None):
    """ASCII rendering of per-phase resource telemetry (CLI output)."""
    from repro.bench.render import render_table

    if not phase_resources and not summary:
        return "(no resource telemetry recorded)"
    lines = []
    if phase_resources:
        rows = []
        for phase, data in sorted(phase_resources.items()):
            rows.append([
                phase,
                data.get("rss_peak_kb", "-"),
                data.get("tracemalloc_kb", "-"),
                data.get("tracemalloc_peak_kb", "-"),
                data.get("gc_collections", "-"),
            ])
        lines.append(render_table(
            ["phase", "peak RSS (KiB)", "tracemalloc Δ (KiB)",
             "tracemalloc peak (KiB)", "GC runs"], rows,
            title="Per-phase resources"))
    if summary:
        pairs = [f"peak RSS {summary.get('peak_rss_kb', '-')} KiB"]
        if summary.get("tracemalloc_peak_kb") is not None:
            pairs.append(f"tracemalloc peak "
                         f"{summary['tracemalloc_peak_kb']} KiB")
        pairs.append(f"GC runs {summary.get('gc_collections', '-')}")
        lines.append("run total: " + ", ".join(pairs))
    return "\n".join(lines)
