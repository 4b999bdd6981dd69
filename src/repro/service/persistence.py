"""Shared persistence API: verdict records, certificate cache, ingest.

Before the service existed, three call sites each hand-rolled their own
persistence glue: ``repro verify`` folded records into the run-history
store, the bench mains ingested their ``--json`` payloads, and nothing
cached verdicts at all.  This module is the one place all of them — the
CLI single/batch paths, the bench harness and :mod:`repro.service.core`
— go through, so a verdict computed anywhere is visible everywhere:

* :func:`verdict_record` — the canonical JSON verdict shape (a
  ``result_record`` plus ``cache_hit``/``fingerprint``/counterexample/
  certificate text), identical whether the verdict was computed or
  replayed from the cache;
* :func:`cache_lookup` / :func:`cache_store` — the certificate cache
  over :meth:`repro.obs.store.RunStore.get_certificate` /
  ``put_certificate``; only final verdicts (``correct``/``buggy``)
  are cached — ``timeout`` depends on budgets and ``invalid`` on lint
  configuration, so neither may be replayed as an answer;
* :func:`ingest_verify_records` / :func:`ingest_payload` — best-effort
  run-history ingestion (moved here from ``cli.py`` / the bench
  harness), guaranteed never to change a verify exit code.
"""

from __future__ import annotations

import logging

from repro.core.result import result_record

log = logging.getLogger("repro.service.persistence")

#: Statuses that may be replayed from the cache.  A cached verdict must
#: be a property of the *design*, not of the run that produced it:
#: ``timeout`` depends on the submitted budgets and ``invalid`` on the
#: lint configuration, so only final functional verdicts qualify.
CACHEABLE_STATUSES = frozenset({"correct", "buggy"})


def verdict_record(result, recorder=None, *, fingerprint=None,
                   cache_hit=None, input_path=None):
    """The canonical JSON verdict record of one verification result.

    Builds on :func:`repro.core.result.result_record` (method, status,
    seconds, stats, sizes, phases/counters from ``recorder``) and adds
    the service-facing fields: ``cache_hit``, the design
    ``fingerprint``, the one-line ``summary``, ``timed_out``, the
    counterexample of a buggy design, and the PAC-style certificate
    text when one was recorded.

    ``fingerprint``/``cache_hit`` default to what the pipeline stamped
    into ``result.stats``, so a cache-replayed result serializes with
    ``cache_hit: true`` without the caller doing anything.  The cache
    metadata lives at the *top level* of the record — ``stats`` is kept
    identical to the originally cached run's, which is what makes the
    "identical verdict" guarantee testable field by field.
    """
    stats = result.stats
    if fingerprint is None:
        fingerprint = stats.get("fingerprint")
    if cache_hit is None:
        cache_hit = stats.get("cache_hit", False)
    certificate = stats.get("certificate")
    record = result_record(result, recorder)
    for key in ("cache_hit", "fingerprint", "cached_at", "cache_hits"):
        record["stats"].pop(key, None)
    record["summary"] = result.summary()
    record["timed_out"] = result.timed_out
    record["cache_hit"] = bool(cache_hit)
    if fingerprint is not None:
        record["fingerprint"] = fingerprint
    if cache_hit:
        if stats.get("cached_at") is not None:
            record["cached_at"] = stats["cached_at"]
        if stats.get("cache_hits") is not None:
            record["cache_hits"] = stats["cache_hits"]
    if input_path is not None:
        record["input"] = input_path
    if result.status == "buggy":
        record["counterexample"] = {
            "a": stats.get("counterexample_a"),
            "b": stats.get("counterexample_b"),
        }
    if hasattr(certificate, "to_text"):
        record["certificate"] = certificate.to_text()
    elif isinstance(certificate, str):  # replayed from the cache
        record["certificate"] = certificate
    return record


def result_from_record(record):
    """Reconstruct a :class:`~repro.core.result.VerificationResult` from
    a cached verdict record (the inverse of :func:`verdict_record`, up
    to in-memory artifacts: the remainder polynomial and the structured
    counterexample are not serialized — their JSON projections, the
    certificate text and ``counterexample_a``/``b``, are).

    The cache metadata the lookup attached (``cache_hit``,
    ``fingerprint``, ``cached_at``, ``cache_hits``) lands in
    ``result.stats`` so every downstream consumer — ``verify`` output,
    :func:`verdict_record`, the service — sees the replay for what it
    is.
    """
    from repro.core.result import Trace, TraceStep, VerificationResult

    stats = dict(record.get("stats", {}))
    for key in ("cache_hit", "fingerprint", "cached_at", "cache_hits"):
        if record.get(key) is not None:
            stats[key] = record[key]
    if record.get("certificate"):
        stats["certificate"] = record["certificate"]
    commits = record.get("commits")
    if commits:
        trace = Trace(TraceStep(step=row.get("step", index),
                                component=row.get("component"),
                                kind=row.get("kind", "?"),
                                size=row.get("size", 0),
                                threshold=row.get("threshold"))
                      for index, row in enumerate(commits, start=1))
    else:
        # bare SP_i sizes still drive result.sizes(); no step structure
        trace = list(record.get("sizes") or ())
    return VerificationResult(status=record.get("status", "unknown"),
                              method=record.get("method", "unknown"),
                              seconds=record.get("seconds", 0.0),
                              stats=stats, trace=trace)


def cache_lookup(store, fingerprint, *, count_hit=True):
    """Replay a cached verdict; None on a cache miss.

    On a hit, returns a *copy* of the stored verdict record with
    ``cache_hit`` flipped to True and the cache accounting attached
    (``cached_at``, ``cache_hits``) — the stored record itself stays
    exactly as the original verification wrote it.
    """
    if store is None or fingerprint is None:
        return None
    entry = store.get_certificate(fingerprint, count_hit=count_hit)
    if entry is None:
        return None
    record = dict(entry["record"])
    record["cache_hit"] = True
    record["fingerprint"] = fingerprint
    record["cached_at"] = entry["created_at"]
    record["cache_hits"] = entry["hits"]
    return record


def cache_store(store, fingerprint, record, *, design=None, run_id=None):
    """Cache one verdict record if its status is cacheable.

    Returns True when a new certificate row was written; False when the
    status is not final (``timeout``/``invalid``), the record was
    itself a cache hit, or the fingerprint is already certified.
    """
    if store is None or fingerprint is None:
        return False
    if record.get("cache_hit"):
        return False
    if record.get("status") not in CACHEABLE_STATUSES:
        return False
    stored = dict(record)
    stored["cache_hit"] = False
    return store.put_certificate(fingerprint, stored, design=design,
                                 run_id=run_id)


def ingest_verify_records(records, db):
    """Fold verify records into the run-history store (best effort — a
    broken database must not change the verify exit code).  Cache-hit
    records are skipped (the run they replay is already in the
    history), and so are ``invalid`` ones (no verification ran).
    Returns the new run ids, or None when ingestion failed."""
    from repro.obs.store import RunStore, current_git_rev

    fresh = [record for record in records if not record.get("cache_hit")
             and record.get("status") != "invalid"]
    if not fresh:
        return []
    try:
        with RunStore(db) as store:
            run_ids = store.ingest_verify_payload(
                {"records": fresh}, git_rev=current_git_rev(),
                source="verify")
    except Exception as exc:  # noqa: BLE001 - observability is optional
        log.warning("could not ingest into %s: %s", db, exc)
        return None
    log.info("ingested %d run(s) into %s", len(run_ids), db)
    return run_ids


def ingest_payload(payload, db):
    """Fold a bench ``--json`` payload into the run-history store at
    ``db``; returns the new run ids.  This is what the ``--db`` flags of
    the bench mains call so every table/figure run lands in the same
    history that ``repro explain`` and ``repro obs diff`` read."""
    from repro.obs.store import RunStore, current_git_rev

    with RunStore(db) as store:
        return store.ingest_bench_payload(
            payload, git_rev=current_git_rev(),
            source=payload.get("bench"))
