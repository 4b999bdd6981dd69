"""SQLite-backed run-history store — the cross-run half of ``repro.obs``.

The single-run recorder (:mod:`repro.obs.recorder`) sees one
verification at a time; this module gives those runs a durable home so
regressions have *history* and *attribution*.  A :class:`RunStore` is
one SQLite file (stdlib ``sqlite3``, no dependencies) with these
tables:

* ``runs``    — one row per verification run, keyed by
  design / optimization / method / git revision;
* ``phases``  — per-phase wall-clock seconds (the span totals);
* ``commits`` — the per-step ``SP_i``-size trajectory (Fig. 5 data),
  including the substituted component and the Algorithm 2 threshold;
* ``metrics`` — free-form named scalars (e.g. ``counter:*`` totals and
  the ``attr:*`` cost-attribution slices);
* ``resources`` — per-phase resource telemetry from ``--resources``
  runs: peak RSS, tracemalloc deltas, GC counts;
* ``attribution`` — the cost-attribution cells of
  :mod:`repro.obs.attribution`: observed wall-time / SP_i growth /
  profiler samples per (stage region, substitution rule), the data
  ``repro explain run:ID`` reads back;
* ``certificates`` — the content-addressed verdict cache of
  :mod:`repro.service`: one row per canonical design fingerprint with
  the full JSON verdict record, so a resubmitted or isomorphic design
  is answered in O(hash) instead of re-verified
  (:meth:`RunStore.get_certificate` / :meth:`RunStore.put_certificate`).

The ``meta`` table records the schema version.  A store opens only if
the file is empty (a new store) or stamped with exactly
:data:`SCHEMA_VERSION`; any other file is refused with
:class:`~repro.errors.ObsDataError` and left untouched.  A store is a
re-creatable run history and verdict cache, so an older one is
replaced, not upgraded.

File-backed stores run in **WAL journal mode with a busy timeout**:
the verification service's dispatcher threads, CLI runs on the same
file and the ``/metrics`` reader all share one database, and WAL gives
single-writer/many-reader concurrency without "database is locked"
failures (writers queue on the busy handler instead).  A path that is
not a SQLite database (a text file, a damaged store, a directory) is
refused at open with :class:`~repro.errors.ObsDataError`, and so is a
run value of the wrong type (:meth:`RunStore.add_run`).
Unbounded growth is handled by :meth:`RunStore.prune` (``repro obs
prune``): retention by per-series ``keep_last`` and/or a cut-off
timestamp, followed by ``VACUUM``.

Everything the telemetry layer already writes can be ingested:

* JSONL traces from ``verify --trace-out`` (:meth:`ingest_trace_file`),
* merged ``verify --json`` payloads (:meth:`ingest_verify_payload`),
* ``table1``/``table2``/``fig5`` ``--json`` payloads
  (:meth:`ingest_bench_payload`),

and :meth:`ingest_file` sniffs the shape and dispatches.  On top of the
store, :mod:`repro.obs.diff` compares runs,
:mod:`repro.obs.attribution` explains them, and
:mod:`repro.obs.prometheus` renders the Prometheus exposition of
``GET /metrics``.
"""

from __future__ import annotations

import json
import logging
import pathlib
import sqlite3
import subprocess
import time

from repro.errors import ObsDataError

log = logging.getLogger("repro.obs.store")

SCHEMA_VERSION = 5

DEFAULT_DB = "runs.db"

#: Seconds a writer waits on a locked database before giving up; long
#: enough that writers checkpointing WAL frames never collide.
DEFAULT_BUSY_TIMEOUT = 10.0

#: Created in one transaction, so a concurrent opener sees either an
#: empty file or a stamped store.
_SCHEMA = f"""
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    design TEXT NOT NULL,
    optimization TEXT NOT NULL DEFAULT 'none',
    method TEXT NOT NULL,
    git_rev TEXT,
    source TEXT,
    created_at REAL NOT NULL,
    status TEXT,
    seconds REAL,
    steps INTEGER,
    max_poly_size INTEGER,
    backtracks INTEGER,
    threshold_doublings INTEGER,
    meta TEXT
);
CREATE TABLE IF NOT EXISTS phases (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    path TEXT NOT NULL,
    seconds REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS commits (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    step INTEGER NOT NULL,
    component INTEGER,
    kind TEXT,
    size INTEGER NOT NULL,
    threshold REAL
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    value REAL
);
CREATE TABLE IF NOT EXISTS resources (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    phase TEXT NOT NULL,
    rss_peak_kb REAL,
    tracemalloc_kb REAL,
    tracemalloc_peak_kb REAL,
    gc_collections INTEGER
);
CREATE TABLE IF NOT EXISTS attribution (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    stage TEXT NOT NULL,
    rule TEXT NOT NULL,
    seconds REAL,
    growth INTEGER,
    commits INTEGER,
    samples INTEGER
);
CREATE TABLE IF NOT EXISTS certificates (
    fingerprint TEXT PRIMARY KEY,
    design TEXT,
    status TEXT NOT NULL,
    method TEXT,
    ring TEXT,
    width_a INTEGER,
    width_b INTEGER,
    signed INTEGER,
    nodes INTEGER,
    seconds REAL,
    created_at REAL NOT NULL,
    run_id INTEGER,
    hits INTEGER NOT NULL DEFAULT 0,
    last_hit_at REAL,
    record TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_series
    ON runs (design, optimization, method, id);
CREATE INDEX IF NOT EXISTS idx_phases_run ON phases (run_id);
CREATE INDEX IF NOT EXISTS idx_commits_run ON commits (run_id);
CREATE INDEX IF NOT EXISTS idx_metrics_run ON metrics (run_id, name);
CREATE INDEX IF NOT EXISTS idx_resources_run ON resources (run_id);
CREATE INDEX IF NOT EXISTS idx_attribution_run ON attribution (run_id);
INSERT OR IGNORE INTO meta (key, value)
    VALUES ('schema_version', '{SCHEMA_VERSION}');
COMMIT;
"""

#: Tables pruned (via cascade) with their runs; order is display order.
#: ``certificates`` is listed for accounting but keyed by fingerprint,
#: not run id — cached verdicts survive run-history pruning.
_TABLES = ("runs", "phases", "commits", "metrics", "resources",
           "attribution", "certificates")


def current_git_rev(cwd=None):
    """Short git revision of ``cwd`` (or the process cwd); None when
    git is unavailable or the directory is not a repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              cwd=cwd)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


#: Run columns :meth:`RunStore.add_run` type-checks (None always passes).
_RUN_TYPES = {"status": str, "seconds": (int, float), "steps": int,
              "max_poly_size": int, "backtracks": int,
              "threshold_doublings": int}


def split_worker_runs(events):
    """Split a batch trace into per-run event streams.

    Returns ``[(design_or_None, [events...]), ...]`` — one entry per
    ``task_begin`` boundary, in trace order.  The design label comes
    from the ``task_begin`` event the batch driver emits before each
    verification.  Events outside any task (samplers) stay attached to
    the current segment.
    """
    runs = []
    segment = None
    design = None
    for event in events:
        if event.get("ev") == "task_begin":
            if segment:
                runs.append((design, segment))
            segment = []
            design = event.get("design") or event.get("input")
        elif segment is None:
            segment = []
        segment.append(event)
    if segment:
        runs.append((design, segment))
    return runs


class RunStore:
    """One SQLite run database; usable as a context manager."""

    def __init__(self, path=":memory:", busy_timeout=DEFAULT_BUSY_TIMEOUT):
        self.path = str(path)
        self._conn = None
        try:
            self._conn = sqlite3.connect(self.path, timeout=busy_timeout)
            self._open(busy_timeout)
        except sqlite3.DatabaseError as exc:
            # "file is not a database", "database disk image is
            # malformed", "unable to open database file"; a lock that
            # outlasted the busy timeout is not the file's fault
            self.close()
            if "locked" in str(exc):
                raise
            raise ObsDataError(f"{self.path}: not a run store ({exc})",
                               path=self.path) from None
        except ObsDataError:
            self.close()
            raise

    def _open(self, busy_timeout):
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        # before the WAL switch, which would rewrite a refused file
        self._check_schema()
        if self.path != ":memory:":
            # WAL lets the service, CLI runs and readers share one
            # file: writers queue on the busy handler instead of
            # failing with "database is locked".  (No-op on :memory:.)
            self._enable_wal(busy_timeout)
            self._conn.execute(
                f"PRAGMA busy_timeout = {int(busy_timeout * 1000)}")
        self._conn.executescript(_SCHEMA)

    def _enable_wal(self, busy_timeout):
        """Switch the file to WAL, retrying while another connection is
        creating it: SQLite answers that switch with "database is
        locked" without consulting the busy handler."""
        deadline = time.monotonic() + busy_timeout
        delay = 0.005
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode = WAL")
                return
            except sqlite3.OperationalError as exc:
                if ("locked" not in str(exc)
                        or time.monotonic() + delay > deadline):
                    self._conn.close()
                    self._conn = None
                    raise
            time.sleep(delay)
            delay = min(2 * delay, 0.1)

    def _check_schema(self):
        """Raise :class:`ObsDataError` unless the file is empty or
        stamped with exactly :data:`SCHEMA_VERSION`."""
        tables = {row[0] for row in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        if not tables:
            return
        found = None
        if "meta" in tables:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            found = row[0] if row is not None else None
        if found != str(SCHEMA_VERSION):
            raise ObsDataError(
                f"{self.path}: not a v{SCHEMA_VERSION} run store "
                f"(schema_version {found!r}); start a new store file",
                path=self.path)

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def add_run(self, design, method, optimization="none", *, status=None,
                seconds=None, steps=None, max_poly_size=None,
                backtracks=None, threshold_doublings=None, phases=None,
                commits=None, metrics=None, resources=None, attribution=None, git_rev=None, source=None, meta=None,
                created_at=None):
        """Insert one run row (plus its phases/commits/metrics children);
        returns the new run id.

        ``phases``/``metrics`` are name->value dicts; ``commits`` is an
        iterable of per-step dicts (``step``, ``size``, and optionally
        ``component``/``kind``/``threshold``) or plain sizes;
        ``resources`` maps phase name to a resource-telemetry dict;
        ``attribution`` is an iterable of cost-attribution cell dicts
        (``stage``, ``rule``, ``seconds``, ``growth``, ``commits``,
        ``samples``) from :mod:`repro.obs.attribution`.  A run column
        of the wrong type raises :class:`~repro.errors.ObsDataError`.
        """
        for key, value in (("status", status), ("seconds", seconds),
                           ("steps", steps),
                           ("max_poly_size", max_poly_size),
                           ("backtracks", backtracks),
                           ("threshold_doublings", threshold_doublings)):
            if value is not None and not isinstance(value, _RUN_TYPES[key]):
                raise ObsDataError(f"run {key} is {type(value).__name__} "
                                   f"{value!r}", field=key)
        cur = self._conn.execute(
            "INSERT INTO runs (design, optimization, method, git_rev, "
            "source, created_at, status, seconds, steps, max_poly_size, "
            "backtracks, threshold_doublings, meta) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (design, optimization or "none", method, git_rev, source,
             created_at if created_at is not None else time.time(),
             status, seconds, steps, max_poly_size, backtracks,
             threshold_doublings,
             json.dumps(meta, sort_keys=True) if meta else None))
        run_id = cur.lastrowid
        if phases:
            self._conn.executemany(
                "INSERT INTO phases (run_id, path, seconds) VALUES (?, ?, ?)",
                [(run_id, path, float(value))
                 for path, value in sorted(phases.items())])
        if commits:
            rows = []
            for index, record in enumerate(commits, start=1):
                if isinstance(record, dict):
                    rows.append((run_id, record.get("step", index),
                                 record.get("component"),
                                 record.get("kind"),
                                 int(record.get("size", 0)),
                                 record.get("threshold")))
                else:  # a bare SP_i size from a sizes() curve
                    rows.append((run_id, index, None, None,
                                 int(record), None))
            self._conn.executemany(
                "INSERT INTO commits (run_id, step, component, kind, "
                "size, threshold) VALUES (?, ?, ?, ?, ?, ?)", rows)
        if metrics:
            self._conn.executemany(
                "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
                [(run_id, name, float(value))
                 for name, value in sorted(metrics.items())
                 if value is not None])
        if resources:
            self._conn.executemany(
                "INSERT INTO resources (run_id, phase, rss_peak_kb, "
                "tracemalloc_kb, tracemalloc_peak_kb, gc_collections) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                [(run_id, phase, data.get("rss_peak_kb"),
                  data.get("tracemalloc_kb"),
                  data.get("tracemalloc_peak_kb"),
                  data.get("gc_collections"))
                 for phase, data in sorted(resources.items())])
        if attribution:
            self._conn.executemany(
                "INSERT INTO attribution (run_id, stage, rule, seconds, "
                "growth, commits, samples) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(run_id, cell.get("stage", "?"), cell.get("rule", "?"),
                  cell.get("seconds"), cell.get("growth"),
                  cell.get("commits"), cell.get("samples"))
                 for cell in attribution])
        self._conn.commit()
        return run_id

    def _run_from_record(self, record, design, optimization, *, git_rev,
                         source):
        """Insert one ``result_record``-shaped dict (the unit the bench
        ``--json`` payloads and batch verify are built from)."""
        stats = record.get("stats", {}) or {}
        commits = record.get("commits")
        if not commits:
            commits = record.get("sizes") or ()
        meta = {key: stats[key] for key in ("nodes", "width_a", "width_b")
                if key in stats}
        return self.add_run(
            design=design, optimization=optimization,
            method=record.get("method", "unknown"),
            status=record.get("status"),
            seconds=record.get("seconds"),
            steps=stats.get("steps"),
            max_poly_size=stats.get("max_poly_size"),
            backtracks=stats.get("backtracks"),
            threshold_doublings=stats.get("threshold_doublings"),
            phases=record.get("phases"),
            commits=commits,
            metrics={f"counter:{name}": value
                     for name, value in (record.get("counters") or {}).items()},
            resources=record.get("resources"),
            git_rev=git_rev, source=source, meta=meta or None)

    # -- ingestion: event streams --------------------------------------

    def ingest_events(self, events, design, optimization="none",
                      method=None, *, git_rev=None, source=None):
        """Ingest one recorded event stream (a trace JSONL's contents)."""
        from repro.obs.view import fold_events

        return self.ingest_view(fold_events(events), design, optimization,
                                method, git_rev=git_rev, source=source)

    def ingest_view(self, view, design, optimization="none", method=None,
                    *, git_rev=None, source=None):
        """Persist one folded run (:func:`repro.obs.view.fold_events`).

        When the run carries commit-level ``step`` events, the
        cost-attribution cells and their ``attr:*`` metrics
        (see :mod:`repro.obs.attribution`) are stored alongside the raw
        trajectory.
        """
        meta = dict(view.meta)
        sizes = view.sizes
        metrics = {f"counter:{name}": value
                   for name, value in view.counters.items()}
        attribution = None
        if view.rewrite_window is not None and view.commits:
            from repro.obs.attribution import (attribute_view,
                                               stage_cost_metrics)

            report = attribute_view(view)
            attribution = report["cells"]
            metrics.update(stage_cost_metrics(report))
            if report["sp0"] is not None:
                metrics["attr:sp0:size"] = report["sp0"]
            if report["architecture"]:
                meta.setdefault("architecture", report["architecture"])
        return self.add_run(
            design=design, optimization=optimization,
            method=method or meta.get("method", "unknown"),
            status=view.status, seconds=view.seconds,
            steps=len(sizes) or None, max_poly_size=max(sizes, default=None),
            backtracks=view.backtracks,
            threshold_doublings=view.threshold_doublings,
            phases=view.phases, commits=view.commits, metrics=metrics,
            resources=view.phase_resources, attribution=attribution,
            git_rev=git_rev, source=source, meta=meta or None)

    def ingest_trace_file(self, path, design=None, optimization="none",
                          method=None, *, git_rev=None, source=None):
        """Ingest a ``verify --trace-out`` JSONL file; tolerates
        truncated traces but raises ``ValueError`` on a file without a
        single event, and :class:`~repro.errors.ObsDataError` (adding no
        run) on a file without the trace-format header or an event
        field of the wrong type.  Returns ``(run_id, skipped_lines)``.

        A batch trace is ingested as one run per ``task_begin`` segment
        (:func:`split_worker_runs`), labelled by the task's design;
        ``run_id`` is then the list of new run ids.
        """
        from repro.obs.recorder import read_events_tolerant
        from repro.obs.view import fold_events

        events, skipped = read_events_tolerant(path)
        if not events:
            raise ValueError("no trace events")
        if skipped:
            log.warning("%s: skipped %d unparseable line(s)", path, skipped)
        design = design or pathlib.Path(path).stem
        options = dict(optimization=optimization, method=method,
                       git_rev=git_rev, source=source or str(path))
        view = fold_events(events)
        if not view.tasks:
            return self.ingest_view(view, design, **options), skipped
        run_ids = []
        for label, segment in split_worker_runs(events):
            view = fold_events(segment)
            if view.runs:  # skip bookkeeping-only segments (samplers)
                run_ids.append(self.ingest_view(
                    view, pathlib.Path(label).stem if label else design,
                    **options))
        return run_ids, skipped

    # -- ingestion: JSON payloads --------------------------------------

    def ingest_verify_payload(self, payload, *, git_rev=None, source=None):
        """Ingest a ``verify --json`` payload (single or batch)."""
        run_ids = []
        for record in payload.get("records", ()):
            design = pathlib.Path(record.get("input", "unknown")).stem
            run_ids.append(self._run_from_record(
                record, design=design, optimization="none",
                git_rev=git_rev, source=source))
        return run_ids

    def ingest_bench_payload(self, payload, *, git_rev=None, source=None):
        """Ingest a ``table1``/``table2``/``fig5`` ``--json`` payload."""
        run_ids = []
        for case in payload.get("cases", ()) or ():
            design = case.get("architecture") or case.get("source", "unknown")
            size = case.get("size")
            if size:
                design = f"{design} {size}"
            optimization = case.get("optimization", "none")
            for label, record in (case.get("methods") or {}).items():
                if record is None:
                    continue
                record = dict(record)
                record.setdefault("method", label)
                run_ids.append(self._run_from_record(
                    record, design=design, optimization=optimization,
                    git_rev=git_rev, source=source))
        return run_ids

    def ingest_file(self, path, *, design=None, optimization="none",
                    method=None, git_rev=None, source=None):
        """Sniff a file's shape and ingest it; returns the new run ids.

        JSONL traces, ``verify --json`` and bench ``--json`` payloads are
        recognized; anything else, or a payload whose fields have the
        wrong types, raises ``ValueError`` and adds no run.
        """
        source = source or str(path)
        text = pathlib.Path(path).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if payload is not None and not isinstance(payload, dict):
            raise ValueError(f"a JSON {type(payload).__name__} is not a "
                             "run payload")
        if (payload is not None and "ev" not in payload
                and "trace_format" not in payload):
            if payload.get("command") == "verify":
                ingest = RunStore.ingest_verify_payload
            elif "cases" in payload:
                ingest = RunStore.ingest_bench_payload
            else:
                raise ValueError("unrecognized JSON payload shape")
            # a dry run into a scratch store, so that a payload which
            # fails half-way leaves no partial runs in this one
            try:
                with RunStore() as scratch:
                    ingest(scratch, payload)
            except (AttributeError, TypeError, ValueError,
                    sqlite3.Error) as exc:
                raise ValueError(f"malformed payload: {exc}") from None
            return ingest(self, payload, git_rev=git_rev, source=source)
        # fall through: treat as a JSONL event stream
        run_id, _skipped = self.ingest_trace_file(
            path, design=design, optimization=optimization, method=method,
            git_rev=git_rev, source=source)
        return run_id if isinstance(run_id, list) else [run_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self):
        return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def runs(self, design=None, optimization=None, method=None, limit=None):
        """Run rows (as dicts, newest last), optionally filtered."""
        clauses = []
        params = []
        for column, value in (("design", design),
                              ("optimization", optimization),
                              ("method", method)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        rows = [dict(row) for row in self._conn.execute(sql, params)]
        if limit is not None:
            rows = rows[-limit:]
        for row in rows:
            if row.get("meta"):
                row["meta"] = json.loads(row["meta"])
        return rows

    def run(self, run_id):
        """One run with its phases, metrics and commit count; None when
        the id is unknown."""
        row = self._conn.execute("SELECT * FROM runs WHERE id = ?",
                                 (run_id,)).fetchone()
        if row is None:
            return None
        record = dict(row)
        if record.get("meta"):
            record["meta"] = json.loads(record["meta"])
        record["phases"] = {r["path"]: r["seconds"] for r in
                            self._conn.execute(
                                "SELECT path, seconds FROM phases "
                                "WHERE run_id = ?", (run_id,))}
        record["metrics"] = {r["name"]: r["value"] for r in
                             self._conn.execute(
                                 "SELECT name, value FROM metrics "
                                 "WHERE run_id = ?", (run_id,))}
        record["commit_count"] = self._conn.execute(
            "SELECT COUNT(*) FROM commits WHERE run_id = ?",
            (run_id,)).fetchone()[0]
        record["resources"] = self.resources(run_id)
        record["attribution"] = self.attribution(run_id)
        return record

    def resources(self, run_id):
        """Per-phase resource telemetry of one run, keyed by phase."""
        return {row["phase"]: {key: row[key] for key in
                               ("rss_peak_kb", "tracemalloc_kb",
                                "tracemalloc_peak_kb", "gc_collections")}
                for row in self._conn.execute(
                    "SELECT * FROM resources WHERE run_id = ? "
                    "ORDER BY phase", (run_id,))}

    def attribution(self, run_id):
        """Cost-attribution cells of one run, (stage, rule)-ordered."""
        return [dict(row) for row in self._conn.execute(
            "SELECT stage, rule, seconds, growth, commits, samples "
            "FROM attribution WHERE run_id = ? ORDER BY stage, rule",
            (run_id,))]

    def commits(self, run_id):
        """Per-step commit records of one run, in step order."""
        return [dict(row) for row in self._conn.execute(
            "SELECT step, component, kind, size, threshold FROM commits "
            "WHERE run_id = ? ORDER BY step", (run_id,))]

    def sizes(self, run_id):
        """The ``SP_i``-size curve of one run (Fig. 5 y-values)."""
        return [row["size"] for row in self._conn.execute(
            "SELECT size FROM commits WHERE run_id = ? ORDER BY step",
            (run_id,))]

    def series(self):
        """Distinct (design, optimization, method) triples, sorted."""
        return [(row["design"], row["optimization"], row["method"])
                for row in self._conn.execute(
                    "SELECT DISTINCT design, optimization, method "
                    "FROM runs ORDER BY design, optimization, method")]

    def latest(self, design, optimization, method):
        """The newest run of one series (with phases/metrics), or None."""
        row = self._conn.execute(
            "SELECT id FROM runs WHERE design = ? AND optimization = ? "
            "AND method = ? ORDER BY id DESC LIMIT 1",
            (design, optimization, method)).fetchone()
        return self.run(row["id"]) if row is not None else None

    def history(self, design, optimization, method, metric):
        """Value history of one metric for one series, oldest first.

        ``metric`` is a run column (``seconds``, ``steps``,
        ``max_poly_size``, ``backtracks``), ``phase:<path>`` for a span
        total, or ``metric:<name>`` for a free-form metric row.
        Returns ``[(run_id, value), ...]`` skipping runs without the
        metric.
        """
        params = (design, optimization, method)
        if metric.startswith("phase:"):
            sql = ("SELECT r.id AS id, p.seconds AS value FROM runs r "
                   "JOIN phases p ON p.run_id = r.id AND p.path = ? "
                   "WHERE r.design = ? AND r.optimization = ? "
                   "AND r.method = ? ORDER BY r.id")
            params = (metric[len("phase:"):],) + params
        elif metric.startswith("metric:"):
            sql = ("SELECT r.id AS id, m.value AS value FROM runs r "
                   "JOIN metrics m ON m.run_id = r.id AND m.name = ? "
                   "WHERE r.design = ? AND r.optimization = ? "
                   "AND r.method = ? ORDER BY r.id")
            params = (metric[len("metric:"):],) + params
        else:
            if metric not in ("seconds", "steps", "max_poly_size",
                              "backtracks", "threshold_doublings"):
                raise ValueError(f"unknown run metric {metric!r}")
            sql = (f"SELECT id, {metric} AS value FROM runs "
                   "WHERE design = ? AND optimization = ? AND method = ? "
                   f"AND {metric} IS NOT NULL ORDER BY id")
        return [(row["id"], row["value"])
                for row in self._conn.execute(sql, params)
                if row["value"] is not None]

    # ------------------------------------------------------------------
    # Certificates (the content-addressed verdict cache)
    # ------------------------------------------------------------------

    def put_certificate(self, fingerprint, record, *, design=None,
                        run_id=None, created_at=None):
        """Cache one verdict record under its design fingerprint.

        ``record`` is a ``result_record``-shaped dict (status, method,
        seconds, stats, optionally certificate text / counterexample).
        The insert is idempotent: the *first* certificate for a
        fingerprint wins — two workers racing on the same design both
        succeed, and later resubmissions are answered from the cache
        before they ever verify.  Returns True when the row was newly
        inserted, False when the fingerprint was already certified.
        """
        stats = record.get("stats", {}) or {}
        cur = self._conn.execute(
            "INSERT OR IGNORE INTO certificates (fingerprint, design, "
            "status, method, ring, width_a, width_b, signed, nodes, "
            "seconds, created_at, run_id, record) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (fingerprint, design, record.get("status", "unknown"),
             record.get("method"), stats.get("ring"),
             stats.get("width_a"), stats.get("width_b"),
             int(bool(stats.get("signed"))), stats.get("nodes"),
             record.get("seconds"),
             created_at if created_at is not None else time.time(),
             run_id, json.dumps(record, sort_keys=True)))
        self._conn.commit()
        return cur.rowcount > 0

    def get_certificate(self, fingerprint, *, count_hit=True):
        """The cached certificate row for a fingerprint, or None.

        Returns a dict with the stored columns plus the parsed verdict
        ``record``.  ``count_hit`` bumps the hit accounting (default) —
        pass False for read-only inspection (``repro status``).  The
        bump is one atomic ``UPDATE`` and the row is read back inside
        the same write transaction, so concurrent connections never
        lose a hit.
        """
        if count_hit:
            self._conn.execute(
                "UPDATE certificates SET hits = hits + 1, last_hit_at = ? "
                "WHERE fingerprint = ?", (time.time(), fingerprint))
        row = self._conn.execute(
            "SELECT * FROM certificates WHERE fingerprint = ?",
            (fingerprint,)).fetchone()
        if count_hit:
            self._conn.commit()
        if row is None:
            return None
        entry = dict(row)
        entry["signed"] = bool(entry["signed"])
        entry["record"] = json.loads(entry["record"])
        return entry

    def certificates(self, status=None, limit=None):
        """Cached certificate rows (newest first), without the record
        payloads — the ``repro status`` listing."""
        sql = ("SELECT fingerprint, design, status, method, ring, "
               "width_a, width_b, signed, nodes, seconds, created_at, "
               "run_id, hits, last_hit_at FROM certificates")
        params = []
        if status is not None:
            sql += " WHERE status = ?"
            params.append(status)
        sql += " ORDER BY created_at DESC, fingerprint"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = [dict(row) for row in self._conn.execute(sql, params)]
        for row in rows:
            row["signed"] = bool(row["signed"])
        return rows

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def table_counts(self):
        """Row counts per table (the ``obs prune`` summary)."""
        return {table: self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in _TABLES}

    def prune(self, keep_last=None, before=None, vacuum=True):
        """Delete old runs (children cascade) and reclaim the space.

        ``keep_last`` retains only the newest N runs of every
        (design, optimization, method) series; ``before`` additionally
        drops any run created before that UNIX timestamp.  Both filters
        compose (a run is deleted if *either* condemns it).  ``vacuum``
        runs ``VACUUM`` afterwards so the file actually shrinks.
        Returns ``{"deleted", "remaining", "tables"}`` where ``tables``
        holds the post-prune row counts per table.
        """
        doomed = set()
        if before is not None:
            doomed.update(row["id"] for row in self._conn.execute(
                "SELECT id FROM runs WHERE created_at < ?", (before,)))
        if keep_last is not None:
            for design, optimization, method in self.series():
                ids = [row["id"] for row in self._conn.execute(
                    "SELECT id FROM runs WHERE design = ? AND "
                    "optimization = ? AND method = ? ORDER BY id DESC",
                    (design, optimization, method))]
                doomed.update(ids[keep_last:] if keep_last > 0 else ids)
        if doomed:
            self._conn.executemany("DELETE FROM runs WHERE id = ?",
                                   [(run_id,) for run_id in sorted(doomed)])
        self._conn.commit()
        if vacuum:
            self._conn.execute("VACUUM")
        return {"deleted": len(doomed), "remaining": len(self),
                "tables": self.table_counts()}
