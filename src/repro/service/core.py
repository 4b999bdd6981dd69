"""The verification service core: submission, cache, dispatch.

:class:`VerificationService` is the transport-independent engine behind
``repro serve`` (the asyncio HTTP front end in
:mod:`repro.service.server` is a thin JSON shim over it):

* **submit** — parse and validate the AAG payload, build the
  :class:`~repro.core.pipeline.VerifyConfig` from the job options, and
  consult the certificate cache *before queueing*: a design whose
  canonical fingerprint is already certified completes at submission
  time in O(hash), never touching the queue;
* **dispatch** — cache misses are queued by priority and run by
  ``workers`` dispatcher threads in this process (so ``workers`` jobs
  are in flight at once).  Each job runs
  :func:`repro.service.task.task_worker` — the same task batch verify
  runs — under a recorder whose events land on the job's event stream
  as they are emitted, so ``GET /jobs/<id>/events`` shows a running
  job's progress;
* **persistence** — every fresh verdict lands in the run-history store
  (runs table via the shared persistence API, certificate cache via the
  pipeline's own cache stage), so the next submission of an isomorphic
  design — even to a different service instance on the same database —
  is a cache hit.
"""

from __future__ import annotations

import logging
import threading
import time

from repro.obs.recorder import Recorder
from repro.service.jobs import DEFAULT_PRIORITY, Job, JobQueue
from repro.service.task import Task, cached_record, task_worker

log = logging.getLogger("repro.service.core")

#: VerifyConfig fields a submission may override, with the budgets
#: capped per job by the service defaults.
JOB_OPTION_FIELDS = ("width_a", "width_b", "signed", "method",
                     "monomial_budget", "time_budget", "ring",
                     "initial_threshold")


class SubmitError(ValueError):
    """A submission the service must refuse (HTTP 400)."""


def config_from_options(options):
    """Build a :class:`~repro.core.pipeline.VerifyConfig` from a job's
    option dict; :class:`SubmitError` on unknown keys or bad values."""
    from repro.core.pipeline import VerifyConfig
    from repro.errors import ConfigError

    unknown = set(options) - set(JOB_OPTION_FIELDS) - {"use_cache"}
    if unknown:
        raise SubmitError(
            f"unknown job option(s): {', '.join(sorted(unknown))} "
            f"(know {', '.join(JOB_OPTION_FIELDS)}, use_cache)")
    kwargs = {key: options[key] for key in JOB_OPTION_FIELDS
              if options.get(key) is not None}
    try:
        return VerifyConfig(record_trace=True, **kwargs)
    except (ConfigError, TypeError) as exc:
        raise SubmitError(f"bad job options: {exc}") from exc


class VerificationService:
    """Priority-queued, cache-fronted verification jobs over one store."""

    def __init__(self, db=None, workers=1, *, default_options=None):
        self.db = str(db) if db else None
        self.workers = max(1, int(workers))
        self.default_options = dict(default_options or {})
        self.queue = JobQueue()
        self.jobs = {}                # job id -> Job, submission order
        self.started_at = None
        self.cache_hits = 0
        self._counter = 0
        self._lock = threading.Lock()
        self._store = None            # submit-time cache connection
        self._dispatchers = []

    # -- life cycle ----------------------------------------------------

    def start(self):
        """Open the store and start the dispatcher threads."""
        self.started_at = time.time()
        if self.db:
            from repro.obs.store import RunStore

            self._store = RunStore(self.db)
        for slot in range(self.workers):
            thread = threading.Thread(target=self._dispatch,
                                      name=f"repro-service-{slot}",
                                      daemon=True)
            thread.start()
            self._dispatchers.append(thread)
        log.info("service up: %d dispatcher thread(s), db=%s",
                 self.workers, self.db or "none")
        return self

    def shutdown(self, wait=True):
        """Stop accepting jobs, drain, and release every resource.

        ``wait`` joins the dispatchers (every queued job still runs to
        completion first).
        """
        self.queue.close()
        if wait:
            for thread in self._dispatchers:
                thread.join()
        self._dispatchers = []
        if self._store is not None:
            self._store.close()
            self._store = None
        log.info("service down: %d job(s) served", len(self.jobs))

    # -- submission ----------------------------------------------------

    def submit(self, design, source, *, priority=DEFAULT_PRIORITY,
               options=None, use_cache=True):
        """Queue one design for verification; returns its :class:`Job`.

        Raises :class:`SubmitError` on an unparseable AAG or bad
        options.  When the design's canonical fingerprint is already
        certified, the job completes here — state ``done``, verdict
        record with ``cache_hit: true`` — in O(hash), without queueing.
        """
        from repro.aig.aiger import read_aag
        from repro.errors import ReproError

        merged = dict(self.default_options)
        merged.update(options or {})
        use_cache = bool(merged.pop("use_cache", use_cache))
        config = config_from_options(merged)   # validates before parsing
        # submissions are AAG *text*, never paths — the trailing newline
        # keeps read_aag from mistaking a one-liner for a filename
        if not source.endswith("\n"):
            source = source + "\n"
        try:
            aig = read_aag(source)
        except ReproError as exc:
            raise SubmitError(f"unparseable AAG: {exc}") from exc
        with self._lock:
            self._counter += 1
            job = Job(f"job-{self._counter:04d}", design, source,
                      priority=priority, config=config)
            job.use_cache = use_cache
            self.jobs[job.id] = job
        job.events.append({"ev": "submitted", "job": job.id,
                           "design": design, "priority": job.priority})
        record = None
        if use_cache and self._store is not None:
            with self._lock:          # one sqlite connection, many threads
                record = cached_record(self._store, aig, config)
        if record is None:
            self.queue.put(job)
        else:
            self._answer_from_cache(job, record)
        return job

    def _answer_from_cache(self, job, record):
        """Complete a job at submission time with its cached verdict."""
        fingerprint = record["fingerprint"]
        record["input"] = job.design
        job.record = record
        job.state = "done"
        job.finished_at = time.time()
        job.events.append({"ev": "cache_hit", "job": job.id,
                           "fingerprint": fingerprint,
                           "status": record.get("status")})
        with self._lock:
            self.cache_hits += 1
        log.info("%s: answered from cache (%s, fingerprint %s…)",
                 job.id, record.get("status"), fingerprint[:12])

    # -- dispatch ------------------------------------------------------

    def _dispatch(self):
        """One dispatcher thread: claim jobs until the queue closes."""
        while True:
            job = self.queue.get()
            if job is None:
                return
            job.state = "running"
            job.started_at = time.time()
            task = Task(job.id, job.design, job.source, job.config,
                        self.db, job.use_cache)
            try:
                record = task_worker(task, Recorder(events=job.events))
            except Exception as exc:  # noqa: BLE001 - job, not service, fails
                job.state = "failed"
                job.error = str(exc)
                job.finished_at = time.time()
                log.warning("%s: task failed: %s", job.id, exc)
                continue
            self._finish(job, record)

    def _finish(self, job, record):
        job.record = record
        job.state = "done"
        job.finished_at = time.time()
        job.source = None             # the AAG text served its purpose
        if record.get("cache_hit"):
            with self._lock:
                self.cache_hits += 1
        if self.db:
            from repro.service.persistence import ingest_verify_records

            ingest_verify_records([record], self.db)
        log.info("%s: %s", job.id, record.get("summary", job.state))

    # -- queries -------------------------------------------------------

    def job(self, job_id):
        return self.jobs.get(job_id)

    def list_jobs(self):
        return [job.as_dict(record=False) for job in self.jobs.values()]

    def stats(self):
        """The ``/stats`` surface: queue depth, state counts, cache."""
        states = {state: 0 for state in ("queued", "running", "done",
                                         "failed")}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        info = {
            "workers": self.workers,
            "db": self.db,
            "uptime": (time.time() - self.started_at
                       if self.started_at else 0.0),
            "jobs": states,
            "queued": len(self.queue),
            "cache_hits": self.cache_hits,
        }
        if self._store is not None:
            with self._lock:
                certificates = self._store.certificates()
            info["certificates"] = len(certificates)
        return info

    def metrics(self):
        """The ``/metrics`` surface: the store's Prometheus exposition
        followed by the :meth:`stats` counters as gauges."""
        from repro.obs.prometheus import render_prometheus

        stats = self.stats()
        text = ""
        if self._store is not None:
            with self._lock:          # one sqlite connection, many threads
                text = render_prometheus(self._store)
        lines = ["# HELP repro_service_queued Jobs waiting in the queue.",
                 "# TYPE repro_service_queued gauge",
                 f"repro_service_queued {stats['queued']}",
                 "# HELP repro_service_jobs Jobs per state.",
                 "# TYPE repro_service_jobs gauge"]
        lines.extend(f'repro_service_jobs{{state="{state}"}} {count}'
                     for state, count in sorted(stats["jobs"].items()))
        lines += ["# HELP repro_service_cache_hits Submissions answered "
                  "from the certificate cache.",
                  "# TYPE repro_service_cache_hits gauge",
                  f"repro_service_cache_hits {stats['cache_hits']}"]
        if "certificates" in stats:
            lines += ["# HELP repro_service_certificates Verdicts in the "
                      "certificate cache.",
                      "# TYPE repro_service_certificates gauge",
                      f"repro_service_certificates {stats['certificates']}"]
        return text + "\n".join(lines) + "\n"
