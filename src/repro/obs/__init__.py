"""Observability: structured tracing, phase metrics, run reports, and
the cross-run layer (run-history store, diffs, live watchdog).

See :mod:`repro.obs.recorder` for the recorder interface (spans,
counters, histograms, JSONL sink), :mod:`repro.obs.view` for the one
fold of a recorded event stream into a :class:`RunView`,
:mod:`repro.obs.report` for rendering Fig.-5-style reports from it,
:mod:`repro.obs.store` for the SQLite run-history database,
:mod:`repro.obs.diff` for structural trace diffing,
:mod:`repro.obs.live` for the heartbeat/stall watchdog,
:mod:`repro.obs.attribution` for commit/rule/stage cost attribution and
anomaly detection (``repro explain``), and
:mod:`repro.obs.prometheus` for the text exposition ``repro serve``
answers ``GET /metrics`` with.

The re-exports resolve on first use (:mod:`repro._lazy`): the verify
path needs only the recorder, not ``sqlite3``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.recorder": ("NULL", "NullRecorder", "Recorder", "Histogram",
                           "JsonlSink", "recording_to", "read_events",
                           "read_events_tolerant"),
    "repro.obs.view": ("RunView", "fold_events"),
    "repro.obs.report": ("render_report", "render_phase_table",
                         "report_from_file"),
    "repro.obs.live": ("LiveMonitor",),
    "repro.obs.resources": ("ResourceTracker", "SamplingProfiler"),
    "repro.obs.store": ("RunStore", "current_git_rev", "split_worker_runs"),
    "repro.obs.attribution": ("AnomalyConfig", "CommitAnomalyDetector",
                              "attribute_store_run", "attribute_view",
                              "design_baseline", "render_attribution",
                              "stage_cost_metrics"),
})
