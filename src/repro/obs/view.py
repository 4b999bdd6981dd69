"""One pass over a recorded event stream: the :class:`RunView`.

The event kinds a traced verification emits (the schema pinned by
``tests/obs/event_schema.json``) are a data format, and this module is
its only reader.  :class:`RunFold` folds it into a :class:`RunView` one
event at a time (:func:`fold_events` over a recorded list, the live
monitor as events are emitted); ``repro report``, ``repro explain``,
``repro obs diff``, store ingest and ``verify --live`` render that
view.  :func:`repro.obs.diff.view_from_store` and
:func:`repro.obs.diff.view_from_record` build the same type from store
rows and ``--json`` records.

The fold keeps one rule per fact:

* ``stage_map``, ``profile`` and ``resources_summary`` bodies, like
  ``run_begin`` meta, drop the envelope keys ``ev``/``t``;
* a phase measured twice (the threshold fallback reruns ``rewrite``)
  merges max-for-peaks and sum-for-deltas, as
  :attr:`repro.obs.resources.ResourceTracker.phase_resources` does;
* a ``rewrite_retry`` event drops the rewrite run it abandons — its
  commits, attempts, backtracks, thresholds and wall window — as the
  recorder drops its counters, so the view describes the run the
  verdict comes from; only its phase time stays;
* a field the fold computes with or stores in a run column must have
  its type (:data:`_FIELD_TYPES`) when present and not None, or the
  fold raises :class:`~repro.errors.ObsDataError` naming the event.

The fold reads events, not files: the trace-format header is checked
where a trace file is read (:func:`repro.obs.recorder.read_events`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ObsDataError
from repro.obs.attribution import CommitAnomalyDetector, rule_label

_ENVELOPE = ("ev", "t")
_PEAK_KEYS = ("rss_peak_kb", "tracemalloc_peak_kb")
_DELTA_KEYS = ("tracemalloc_kb", "gc_collections")

_NUMBER = (int, float)
#: What one rewrite run adds to a view, restored when it is abandoned:
#: fields to put back, and lists to cut back to their length.
_RUN_FIELDS = ("attempts", "backtracks", "threshold_doublings",
               "candidates", "remaining")
_RUN_LISTS = ("commits", "thresholds", "anomalies")
#: Per event kind (None: every event), the types of the fields the fold
#: computes with or stores in a run column.
_FIELD_TYPES = {
    None: {"ev": str, "t": _NUMBER},
    "run_begin": {"method": str},
    "run_end": {"status": str, "seconds": _NUMBER},
    "span": {"name": str, "path": str, "dur": _NUMBER},
    "rewrite_begin": {"size": int},
    "attempt": {"comp": int, "kind": str},
    "step": {"i": int, "comp": int, "kind": str, "size": int,
             "threshold": _NUMBER, "candidates": int, "remaining": int},
    "threshold": {"value": _NUMBER},
    "phase_resources": {"phase": str,
                        **dict.fromkeys(_PEAK_KEYS + _DELTA_KEYS, _NUMBER)},
    "task_begin": {"design": str, "input": str},
    "summary": {"counters": dict, "phases": dict},
}


@dataclass
class RunView:
    """Everything the observability surfaces read about one run.

    ``commits`` holds one dict per committed rewriting step with the
    store's columns (``step``, ``component``, ``kind``, ``size``,
    ``threshold``); folded traces add the rewrite-run index ``run``
    (0 before any ``rewrite_begin``) and, inside a rewrite run, the
    substitution ``rule`` and the wall ``seconds`` and ``SP_i``
    ``growth`` since the previous commit.  ``rewrite_windows`` is one
    ``(start, end)`` pair per ``rewrite_begin``, closed by its
    ``rewrite`` span or, in a truncated trace, by its last commit.
    ``candidates``/``remaining`` are the engine's candidate pool and
    components left at the last commit.  ``anomalies`` are the
    diagnostics of the fold's detector over the commits;
    ``anomalies_recorded`` counts the ``anomaly`` events a
    live watchdog wrote.  ``runs``/``tasks`` count ``run_begin`` and
    batch ``task_begin`` events: a trace with tasks is a batch trace,
    one run per task.  ``retries`` counts the rewrite runs the threshold
    fallback abandoned (dropped from everything else).
    """

    label: str | None = None
    meta: dict = field(default_factory=dict)
    status: str | None = None
    seconds: float | None = None
    phases: dict = field(default_factory=dict)
    commits: list = field(default_factory=list)
    candidates: int | None = None
    remaining: int | None = None
    attempts: int = 0
    backtracks: int = 0
    threshold_doublings: int = 0
    thresholds: list = field(default_factory=list)
    stalls: int = 0
    sp0: int | None = None
    rewrite_windows: list = field(default_factory=list)
    stage_map: dict | None = None
    profile: dict | None = None
    resource_samples: list = field(default_factory=list)
    phase_resources: dict = field(default_factory=dict)
    resources_summary: dict | None = None
    opt_passes: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    runs: int = 0
    tasks: int = 0
    retries: int = 0
    anomalies_recorded: int = 0
    anomalies: list = field(default_factory=list)

    @property
    def sizes(self):
        """The ``SP_i`` size after every commit (the Fig. 5 curve)."""
        return [commit["size"] for commit in self.commits]

    @property
    def rewrite_runs(self):
        return len(self.rewrite_windows)


def _check_types(event, index):
    """Raise :class:`ObsDataError` unless every typed field of the
    ``index``-th event (1-based) has its type."""
    for kind in (None, event.get("ev")):
        for key, types in _FIELD_TYPES.get(kind, {}).items():
            value = event.get(key)
            if value is not None and not isinstance(value, types):
                raise ObsDataError(
                    f"event {index} ({event.get('ev')}): field {key!r} "
                    f"is {type(value).__name__} {value!r}",
                    event=index, field=key)
    if event.get("ev") == "summary":
        for key in ("counters", "phases"):
            for name, value in (event.get(key) or {}).items():
                if not isinstance(value, _NUMBER):
                    raise ObsDataError(
                        f"event {index} (summary): {key} entry {name!r} "
                        f"is {type(value).__name__} {value!r}",
                        event=index, field=key)


def _body(event):
    return {k: v for k, v in event.items() if k not in _ENVELOPE}


def _merge_phase_resources(slot, event):
    for key in _PEAK_KEYS:
        if event.get(key) is not None:
            slot[key] = max(slot.get(key, event[key]), event[key])
    for key in _DELTA_KEYS:
        if event.get(key) is not None:
            slot[key] = round(slot.get(key, 0) + event[key], 1)


class RunFold:
    """The fold, one event at a time: :meth:`feed` folds an event into
    :attr:`view` (the run so far) and returns the anomalies it newly
    fired; :meth:`finish` closes the rewrite windows and returns the
    view.  ``detector`` (a :class:`CommitAnomalyDetector`, or None to
    screen nothing) screens every commit."""

    def __init__(self, label=None, detector=None):
        self.view = RunView(label=label)
        self.detector = detector
        self._prev_t = self._prev_size = None
        self._last_attempt = {}  # comp -> (kind, compact) of its latest attempt
        self._windows = []       # [rewrite_begin t, last commit t] per run
        self._rewrite_spans = []
        self._run_mark = None    # the view's counts at the latest rewrite_begin
        self._fed = 0

    def feed(self, event):
        self._fed += 1
        _check_types(event, self._fed)
        view = self.view
        fired = []
        kind = event.get("ev")
        if kind == "run_begin":
            view.runs += 1
            view.meta = _body(event)
        elif kind == "run_end":
            view.status = event.get("status")
            view.seconds = event.get("seconds")
        elif kind == "span":
            path = event.get("path", event.get("name", "?"))
            view.phases[path] = (view.phases.get(path, 0.0)
                                 + event.get("dur", 0.0))
            if path == "rewrite":
                self._rewrite_spans.append(event)
        elif kind == "rewrite_begin":
            if self.detector is not None:
                self.detector.reset()
            self._prev_t = event.get("t")
            self._prev_size = event.get("size", 0)
            if view.sp0 is None:
                view.sp0 = self._prev_size
            self._windows.append([self._prev_t, self._prev_t])
            self._last_attempt = {}
            self._run_mark = (
                {name: getattr(view, name) for name in _RUN_FIELDS},
                {name: len(getattr(view, name)) for name in _RUN_LISTS})
        elif kind == "rewrite_retry":
            self._drop_run()
        elif kind == "attempt":
            view.attempts += 1
            self._last_attempt[event.get("comp")] = (event.get("kind"),
                                                     event.get("compact"))
        elif kind == "step":
            if self.detector is not None:
                fired = self.detector.observe_step(event)
                view.anomalies.extend(fired)
            size = event.get("size", 0)
            comp = event.get("comp")
            commit = {"run": len(self._windows),
                      "step": event.get("i", len(view.commits) + 1),
                      "component": comp, "kind": event.get("kind"),
                      "size": size, "threshold": event.get("threshold")}
            if self._windows:
                t, prev_t = event.get("t"), self._prev_t
                attempt = self._last_attempt.get(comp,
                                                 (event.get("kind"), None))
                commit["rule"] = rule_label(attempt[0] or event.get("kind"),
                                            attempt[1])
                commit["seconds"] = (round(t - prev_t, 6)
                                     if None not in (t, prev_t) else 0.0)
                commit["growth"] = max(size - (self._prev_size or 0), 0)
                self._prev_t = t if t is not None else prev_t
                self._prev_size = size
                self._windows[-1][1] = self._prev_t
            view.commits.append(commit)
            view.candidates = event.get("candidates")
            view.remaining = event.get("remaining")
        elif kind == "backtrack":
            view.backtracks += 1
        elif kind == "threshold":
            view.threshold_doublings += 1
            view.thresholds.append(event.get("value"))
        elif kind == "stall":
            view.stalls += 1
        elif kind == "anomaly":
            view.anomalies_recorded += 1
        elif kind == "opt_pass":
            view.opt_passes.append(event)
        elif kind == "resource_sample":
            view.resource_samples.append(event)
        elif kind == "phase_resources":
            _merge_phase_resources(
                view.phase_resources.setdefault(event.get("phase", "?"), {}),
                event)
        elif kind == "resources_summary":
            view.resources_summary = _body(event)
        elif kind == "profile":
            view.profile = _body(event)
        elif kind == "stage_map":
            view.stage_map = _body(event)
        elif kind == "task_begin":
            view.tasks += 1
        elif kind == "summary":
            view.counters = event.get("counters", {})
            for path, total in event.get("phases", {}).items():
                view.phases.setdefault(path, total)
        return fired

    def _drop_run(self):
        """Forget the latest rewrite run (the pipeline abandoned it); its
        ``rewrite`` span, emitted as it unwound, goes with its window."""
        view = self.view
        if self._run_mark is None:
            return
        fields, lengths = self._run_mark
        self._run_mark = None
        for name, value in fields.items():
            setattr(view, name, value)
        for name, length in lengths.items():
            del getattr(view, name)[length:]
        if len(self._rewrite_spans) == len(self._windows):
            self._rewrite_spans.pop()
        self._windows.pop()
        view.retries += 1

    def finish(self):
        """Close one ``(start, end)`` window per rewrite run; returns
        the view."""
        for index, (start, end) in enumerate(self._windows):
            if index < len(self._rewrite_spans):
                span = self._rewrite_spans[index]
                end = max(span.get("t", start) + span.get("dur", 0.0), end)
            self.view.rewrite_windows.append((start, end))
        return self.view


def fold_events(events, label=None):
    """Fold a recorded event list into a :class:`RunView` in one pass,
    replaying a default :class:`CommitAnomalyDetector` over the commits.

    A ``summary`` event's phase totals fill in phases that have no
    ``span`` events (trimmed traces).
    """
    fold = RunFold(label, CommitAnomalyDetector())
    for event in events:
        fold.feed(event)
    return fold.finish()
