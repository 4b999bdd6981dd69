"""Live status line and stall watchdog for long verifications.

A :class:`LiveMonitor` wraps any recorder (it satisfies the same
interface, so the pipeline threads it through unchanged) and feeds each
event it forwards into a :class:`~repro.obs.view.RunFold`, the fold
``repro report`` replays, so the live picture is the trace's:

* each commit's ``step`` event refreshes a single-line terminal status
  (``verify --live``) rendered from the fold's
  :class:`~repro.obs.view.RunView`;
* the vanishing reducer's *pulse* hook keeps the watchdog breathing
  while one giant substitution is being normalized;
* when no commit lands within ``stall_budget`` seconds, the monitor
  flags a **stall**: an RP011 diagnostic (one per silent gap), a
  ``stall`` event in the trace and a visible warning line;
* armed with a :class:`~repro.obs.attribution.CommitAnomalyDetector`
  (``detector=``), the fold screens every commit: an RP012/RP013
  diagnostic, an ``anomaly`` event and a warning line, live.

Rendering uses carriage-return in-place updates only when stderr is an
interactive tty (and ``NO_COLOR``/``TERM=dumb`` are not set); otherwise
it prints plain line-per-update output so logs stay readable.

A batch ``verify`` runs its tasks one after another under one monitor:
each ``task_begin`` starts a fresh fold labelled with the task's design,
so the status line and RP011 name the design that is running.

Observation only: the monitor never raises and never changes the run's
outcome.
"""

from __future__ import annotations

import os
import time

from repro.obs.recorder import Recorder
from repro.obs.resources import current_phase
from repro.obs.view import RunFold

#: Default seconds without a commit before a stall is flagged.
DEFAULT_STALL_BUDGET = 10.0


def detect_interactive(stream):
    """True when in-place ``\\r`` status rendering is appropriate:
    ``stream`` is a tty, ``NO_COLOR`` is unset, and TERM is not dumb."""
    if stream is None:
        return False
    if os.environ.get("NO_COLOR"):
        return False
    if os.environ.get("TERM", "") == "dumb":
        return False
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty()) if isatty is not None else False
    except (OSError, ValueError):
        return False


def _position(view):
    """``(step, size, total)`` at the view's last commit; ``total`` is
    None until a commit reports its remaining components."""
    if not view.commits:
        return 0, None, None
    last = view.commits[-1]
    total = (last["step"] + view.remaining
             if view.remaining is not None else None)
    return last["step"], last["size"], total


class _Watch:
    """One fold under a stall clock: the run, or a batch's current
    task."""

    __slots__ = ("fold", "commits", "last_commit", "stall_open")

    def __init__(self, now, label=None, detector=None):
        self.fold = RunFold(label, detector)
        self.commits = 0
        self.last_commit = now
        self.stall_open = False

    @property
    def status(self):
        """The verdict once the run has ended."""
        return self.fold.view.status

    def feed(self, event, now):
        """Fold ``event``; a new commit restarts the stall clock.
        Returns the anomalies the event fired."""
        fired = self.fold.feed(event)
        commits = len(self.fold.view.commits)
        if commits != self.commits:
            self.commits = commits
            self.last_commit = now
            self.stall_open = False
        return fired


class LiveMonitor:
    """Recorder wrapper: heartbeat, terminal status line, stall flags.

    ``inner`` is the recorder that actually stores/streams the events
    (defaults to a fresh in-memory :class:`Recorder`); ``stream`` is
    where the status line is rendered (None disables rendering);
    ``clock`` is injectable so stalls can be tested without sleeping.
    ``interactive`` forces the in-place ``\\r`` rendering mode on or
    off (default: auto-detected from the stream).  ``detector`` is the
    run's :class:`~repro.obs.attribution.CommitAnomalyDetector` (None
    screens nothing); fired diagnostics accumulate in
    ``self.anomalies``.
    """

    enabled = True

    def __init__(self, inner=None, stall_budget=DEFAULT_STALL_BUDGET,
                 refresh=0.2, stream=None, clock=time.monotonic,
                 interactive=None, detector=None):
        self.inner = inner if inner is not None else Recorder()
        self.stall_budget = stall_budget
        self.refresh = refresh
        self.stream = stream
        self.interactive = (detect_interactive(stream)
                            if interactive is None else interactive)
        self.stalls = []
        self._clock = clock
        self._start = clock()
        self._detector = detector
        self._run = _Watch(self._start, detector=detector)
        self._last_render = 0.0
        self._rendered = False

    @property
    def view(self):
        """The run (a batch's current task) folded so far (a
        :class:`RunView`)."""
        return self._run.fold.view

    @property
    def anomalies(self):
        return self.view.anomalies

    # -- recorder interface (observation tees off the delegation) ------

    @property
    def events(self):
        return self.inner.events

    def summary(self):
        return self.inner.summary()

    def event(self, kind, /, **fields):
        self.inner.event(kind, **fields)
        now = self._clock()
        if kind == "task_begin":
            self._run = _Watch(now, fields.get("design"), self._detector)
        fields["ev"] = kind
        for diag in self._run.feed(fields, now):
            context = diag.context or {}
            self.inner.event("anomaly", code=diag.code, **{
                key: context.get(key)
                for key in ("step", "size", "baseline", "ratio")})
            self._warn(diag)
        if self._run.status is not None:
            self.finish()
            return
        self._check_stall(now)
        self._maybe_render(now)

    def span(self, name, /, **fields):
        return self.inner.span(name, **fields)

    def count(self, name, value=1, /):
        self.inner.count(name, value)

    def observe(self, name, value, /):
        self.inner.observe(name, value)

    def close(self):
        self.finish()
        self.inner.close()

    # -- heartbeat ------------------------------------------------------

    def pulse(self, units=1):
        """Heartbeat from inside a long computation (the vanishing
        reducer); checks the stall clock without emitting an event."""
        now = self._clock()
        self._check_stall(now)
        self._maybe_render(now)

    def _check_stall(self, now):
        """Flag RP011 once per silent gap of the run (re-armed by its
        next commit); a run that has ended may stay silent."""
        watch = self._run
        gap = now - watch.last_commit
        if (gap <= self.stall_budget or watch.stall_open
                or watch.status is not None):
            return
        watch.stall_open = True
        from repro.analysis.diagnostics import Diagnostic

        view = watch.fold.view
        step, size, total = _position(view)
        message = (f"no rewriting commit for {gap:.1f}s (stall budget "
                   f"{self.stall_budget:g}s) at step {step}"
                   + (f"/{total}" if total else "")
                   + (f", SP_i size {size}" if size is not None else ""))
        if view.label is not None:
            message = f"{view.label}: {message}"
        diag = Diagnostic(code="RP011", message=message, context={
            "seconds_since_commit": round(gap, 3),
            "stall_budget": self.stall_budget, "step": step, "size": size,
            "candidates": view.candidates, "backtracks": view.backtracks,
            "design": view.label})
        self.stalls.append(diag)
        self.inner.event("stall", step=step, size=size,
                         seconds_since_commit=round(gap, 3),
                         budget=self.stall_budget)
        self._warn(diag)

    # -- terminal rendering --------------------------------------------

    def _warn(self, diag):
        if self.stream is not None:
            self._clear_line()
            self.stream.write(diag.render() + "\n")
            self.stream.flush()

    def _status_line(self, now):
        view = self.view
        step, size, total = _position(view)
        parts = [f"[live] {current_phase(self.inner) or '-'}",
                 f"step {step}" + (f"/{total}" if total else "")]
        if view.label is not None:
            parts.insert(1, str(view.label).rsplit("/", 1)[-1])
        if size is not None:
            parts.append(f"SP_i {size}")
        if view.candidates is not None:
            parts.append(f"cand {view.candidates}")
        parts += [f"bt {view.backtracks}", f"att {view.attempts}",
                  f"{now - self._start:.1f}s"]
        return " | ".join(parts)

    def _maybe_render(self, now):
        if self.stream is None:
            return
        # non-interactive streams get whole lines; render them an order
        # of magnitude less often so logs stay readable
        refresh = (self.refresh if self.interactive
                   else max(self.refresh * 10, 2.0))
        if now - self._last_render < refresh:
            return
        self._last_render = now
        line = self._status_line(now)
        if self.interactive:
            self.stream.write("\r" + line[:118].ljust(118))
            self._rendered = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def _clear_line(self):
        if self._rendered and self.stream is not None and self.interactive:
            self.stream.write("\r" + " " * 118 + "\r")
        self._rendered = False

    def finish(self):
        """End-of-run cleanup: clear the status line (idempotent)."""
        if self.stream is not None:
            self._clear_line()
            self.stream.flush()
