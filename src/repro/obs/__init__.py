"""Observability: structured tracing, phase metrics, run reports, and
the cross-run layer (run-history store, trends, diffs, live watchdog).

See :mod:`repro.obs.recorder` for the recorder interface (spans,
counters, histograms, JSONL sink), :mod:`repro.obs.report` for
rebuilding Fig.-5-style reports from recorded runs,
:mod:`repro.obs.store` for the SQLite run-history database,
:mod:`repro.obs.trends` for EWMA regression detection,
:mod:`repro.obs.diff` for structural trace diffing,
:mod:`repro.obs.live` for the heartbeat/stall watchdog,
:mod:`repro.obs.attribution` for commit/rule/stage cost attribution and
anomaly detection (``repro explain``), and
:mod:`repro.obs.dashboard` for HTML / Prometheus exports.

The re-exports resolve on first use (:mod:`repro._lazy`): the verify
path needs only the recorder, not ``sqlite3`` or ``multiprocessing``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.recorder": ("NULL", "NullRecorder", "Recorder", "Histogram",
                           "JsonlSink", "recording_to", "read_events",
                           "read_events_tolerant"),
    "repro.obs.report": ("summarize_events", "summarize_recorder",
                         "render_report", "render_phase_table",
                         "report_from_file"),
    "repro.obs.live": ("LiveMonitor",),
    "repro.obs.relay": ("ChildRecorder", "EventRelay", "split_worker_runs"),
    "repro.obs.resources": ("ResourceTracker", "SamplingProfiler"),
    "repro.obs.store": ("RunStore", "current_git_rev"),
    "repro.obs.attribution": ("AnomalyConfig", "CommitAnomalyDetector",
                              "attribute_events", "attribute_store_run",
                              "attribution_event_fields",
                              "calibration_from_store", "design_baseline",
                              "render_attribution", "render_calibration",
                              "replay_anomalies", "stage_cost_metrics"),
})
