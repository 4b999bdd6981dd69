"""One verification task: one design in, one verdict record out.

Every front end — single-input ``repro verify``, batch ``verify`` and
``repro serve`` — turns a design into its verdict record through this
module, in the process that asked for it, so lint failures, the task's
event bracket and the cache consult cannot drift between them:

* :func:`run_design` — run the :class:`~repro.core.pipeline.Pipeline`
  on one design; a typed error (failed pre-flight lint, an odd input
  count, an unreadable file) becomes an ``invalid`` record with its
  diagnostics, never a traceback;
* :func:`task_worker` — what batch verify runs for each input and a
  service dispatcher thread for each job: :func:`run_design` under the
  caller's recorder, bracketed by ``task_begin`` / ``task_end``;
* :func:`cached_record` — the pre-dispatch certificate-cache consult.

The store is imported inside the functions that use it, so a plain
``repro verify`` does not load it.
"""

from __future__ import annotations

import collections
import dataclasses
import logging

log = logging.getLogger("repro.service.task")


#: One unit of :func:`task_worker` work: ``label`` tags the
#: ``task_begin``/``task_end`` bracket (the input path, or the service
#: job id), ``design`` is the record's ``input`` and the cache row
#: label, ``source`` is what gets parsed (a file path or AAG text),
#: ``config`` is the validated :class:`~repro.core.pipeline.VerifyConfig`,
#: ``db`` the run-history store, and ``resources``/``profile`` arm the
#: per-phase ``ResourceTracker`` and the ``SamplingProfiler``.
Task = collections.namedtuple(
    "Task", "label design source config db use_cache resources profile",
    defaults=(None, True, False, False))


def open_store(db):
    """The run-history store at ``db``; None without a ``db`` or when it
    will not open (the cache is an optimization, never a failure)."""
    if not db:
        return None
    from repro.obs.store import RunStore

    try:
        return RunStore(db)
    except Exception as exc:  # noqa: BLE001 - cache is an optimization
        log.warning("could not open %s: %s", db, exc)
        return None


def _read(aig_or_source):
    from repro.aig.aiger import read_aag

    if isinstance(aig_or_source, str):
        return read_aag(aig_or_source)
    return aig_or_source


def run_design(aig_or_source, config, *, recorder=None, store=None,
               design=None, use_cache=True):
    """Verify one design; returns ``(result | None, record)``.

    ``aig_or_source`` is an :class:`~repro.aig.aig.Aig`, a file path or
    AAG text.  The per-commit trace is recorded exactly when a
    ``recorder`` is attached.  On success ``record`` is the
    :func:`~repro.service.persistence.verdict_record` of the result;
    any :class:`~repro.errors.ReproError` gives ``(None, record)`` with
    an ``invalid`` record carrying the error's diagnostics.  The
    recorder is left open: closing it is the caller's job.
    """
    from repro.core.pipeline import Pipeline
    from repro.errors import DesignLintError, ReproError
    from repro.service.persistence import verdict_record

    try:
        aig = _read(aig_or_source)
        pipeline = Pipeline(dataclasses.replace(
            config, record_trace=recorder is not None))
        result = pipeline.run(aig, recorder=recorder, store=store,
                              design=design, use_cache=use_cache)
    except DesignLintError as exc:
        diagnostics = exc.report.as_dicts() if exc.report else []
        message = str(exc)
    except ReproError as exc:
        diagnostics = [exc.as_dict()]
        message = str(exc)
    else:
        return result, verdict_record(result, recorder, input_path=design)
    return None, {"input": design, "status": "invalid", "timed_out": False,
                  "cache_hit": False, "summary": f"invalid: {message}",
                  "diagnostics": diagnostics}


def task_worker(task, recorder):
    """Run one :class:`Task` under the caller's ``recorder``; returns
    its verdict record.

    The ``task_begin`` / ``task_end`` bracket carries ``task.label``;
    ``task_begin`` also restarts the recorder's aggregates, so the
    record and the task's ``summary`` event count this task alone when
    one recorder carries a whole batch.
    """
    base = recorder
    tracker = profiler = None
    if task.resources:
        from repro.obs.resources import ResourceTracker

        recorder = tracker = ResourceTracker(base)
    if task.profile:
        from repro.obs.resources import SamplingProfiler

        profiler = SamplingProfiler(recorder).start()
    base.event("task_begin", design=task.label, input=task.design)
    store = open_store(task.db)
    try:
        _result, record = run_design(task.source, task.config,
                                     recorder=recorder, store=store,
                                     design=task.design,
                                     use_cache=task.use_cache)
    finally:
        if store is not None:
            store.close()
    if profiler is not None:
        record["profile"] = profiler.stop()
    if tracker is not None:
        tracker.stop()
        record["resources"] = tracker.phase_resources
    base.event("summary", **base.summary())
    base.event("task_end", design=task.label, status=record["status"])
    return record


def cached_record(store, aig_or_source, config):
    """The cached verdict record of a design, looked up before its task
    is run; None on a miss or for a design that cannot be parsed or
    fingerprinted (the task then reports it)."""
    from repro.errors import ReproError
    from repro.service.fingerprint import config_fingerprint
    from repro.service.persistence import cache_lookup

    try:
        fingerprint = config_fingerprint(_read(aig_or_source), config)
    except (ReproError, ValueError):
        return None
    return cache_lookup(store, fingerprint)
