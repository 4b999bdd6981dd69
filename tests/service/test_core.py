"""VerificationService: submission, cache consult, dispatch, events.

These drive the service directly — the HTTP layer rides the exact same
code path and has its own tests; the CI smoke script exercises a real
``repro serve`` process.
"""

import pytest

from repro.aig.aiger import write_aag
from repro.genmul.faults import inject_visible_fault
from repro.genmul.multiplier import generate_multiplier
from repro.service.core import (
    SubmitError,
    VerificationService,
    config_from_options,
)


@pytest.fixture(scope="module")
def aag_text():
    return write_aag(generate_multiplier("SP-AR-RC", 4))


@pytest.fixture(scope="module")
def buggy_text():
    aig = generate_multiplier("SP-AR-RC", 4)
    return write_aag(inject_visible_fault(aig, kind="gate-type", seed=0))


@pytest.fixture()
def service(tmp_path):
    svc = VerificationService(db=str(tmp_path / "runs.db"), workers=1)
    svc.start()
    yield svc
    svc.shutdown()


def _wait(service, job, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while not job.finished:
        if time.monotonic() > deadline:
            raise AssertionError(f"{job.id} still {job.state}")
        time.sleep(0.02)
    return job


class TestOptions:
    def test_valid_options_build_a_config(self):
        config = config_from_options({"width_a": 4, "signed": True,
                                      "monomial_budget": 1000})
        assert config.width_a == 4
        assert config.signed is True
        assert config.monomial_budget == 1000

    def test_unknown_option_is_refused(self):
        with pytest.raises(SubmitError, match="unknown job option"):
            config_from_options({"widht_a": 4})

    def test_bad_value_is_refused(self):
        with pytest.raises(SubmitError, match="bad job options"):
            config_from_options({"method": "nonesuch"})

    @pytest.mark.parametrize("threshold", [
        float("nan"), float("inf"), "x", True, 0, -1.0],
        ids=["nan", "inf", "str", "bool", "zero", "negative"])
    def test_bad_threshold_is_refused(self, threshold):
        with pytest.raises(SubmitError, match="initial_threshold"):
            config_from_options({"initial_threshold": threshold})

    def test_threshold_option_reaches_the_config(self):
        config = config_from_options({"initial_threshold": 0.2})
        assert config.initial_threshold == 0.2


class TestSubmit:
    def test_clean_design_verifies(self, service, aag_text):
        job = _wait(service, service.submit("m.aag", aag_text))
        assert job.state == "done"
        assert job.record["status"] == "correct"
        assert job.record["cache_hit"] is False
        assert job.record["fingerprint"]
        assert job.source is None  # AAG text released after the run

    def test_buggy_design_has_counterexample(self, service, buggy_text):
        job = _wait(service, service.submit("buggy.aag", buggy_text))
        assert job.record["status"] == "buggy"
        cex = job.record["counterexample"]
        assert cex["a"] is not None and cex["b"] is not None

    def test_garbage_is_a_submit_error(self, service):
        with pytest.raises(SubmitError, match="unparseable"):
            service.submit("x.aag", "this is not an aag")

    def test_bad_options_refused_before_queueing(self, service, aag_text):
        with pytest.raises(SubmitError):
            service.submit("m.aag", aag_text, options={"bogus": 1})
        assert service.jobs == {}

    def test_event_stream_brackets_the_run(self, service, aag_text):
        job = _wait(service, service.submit("m.aag", aag_text))
        kinds = [e["ev"] for e in job.events]
        assert kinds[0] == "submitted"
        assert "task_begin" in kinds and "task_end" in kinds
        assert "run_begin" in kinds and "run_end" in kinds

    def test_event_stream_folds_to_the_record_counters(self, service,
                                                       aag_text):
        from repro.obs.view import fold_events

        job = _wait(service, service.submit("m.aag", aag_text))
        assert "summary" in [e["ev"] for e in job.events]
        assert job.record["counters"]
        assert fold_events(job.events).counters == job.record["counters"]


class TestCache:
    def test_resubmission_is_answered_at_submit_time(self, service,
                                                     aag_text):
        first = _wait(service, service.submit("m.aag", aag_text))
        assert first.record["cache_hit"] is False
        second = service.submit("again.aag", aag_text)
        # no _wait: a cache hit completes inside submit()
        assert second.finished and second.state == "done"
        assert second.record["cache_hit"] is True
        assert second.record["status"] == "correct"
        assert second.record["fingerprint"] == \
            first.record["fingerprint"]
        assert [e["ev"] for e in second.events] == \
            ["submitted", "cache_hit"]
        assert service.cache_hits == 1

    def test_no_cache_forces_a_fresh_run(self, service, aag_text):
        _wait(service, service.submit("m.aag", aag_text))
        fresh = _wait(service, service.submit("again.aag", aag_text,
                                              use_cache=False))
        assert fresh.record["cache_hit"] is False

    def test_cache_survives_service_restart(self, tmp_path, aag_text):
        db = str(tmp_path / "shared.db")
        first = VerificationService(db=db, workers=1).start()
        _wait(first, first.submit("m.aag", aag_text))
        first.shutdown()
        second = VerificationService(db=db, workers=1).start()
        try:
            job = second.submit("m.aag", aag_text)
            assert job.finished and job.record["cache_hit"] is True
        finally:
            second.shutdown()

    def test_buggy_variant_misses_the_clean_certificate(
            self, service, aag_text, buggy_text):
        clean = _wait(service, service.submit("m.aag", aag_text))
        buggy = _wait(service, service.submit("buggy.aag", buggy_text))
        assert buggy.record["cache_hit"] is False
        assert buggy.record["status"] == "buggy"
        assert buggy.record["fingerprint"] != clean.record["fingerprint"]


class TestQueries:
    def test_stats_and_listing(self, service, aag_text):
        _wait(service, service.submit("m.aag", aag_text))
        service.submit("again.aag", aag_text)  # cache hit
        stats = service.stats()
        assert stats["jobs"]["done"] == 2
        assert stats["cache_hits"] == 1
        assert stats["certificates"] == 1
        rows = service.list_jobs()
        assert [row["id"] for row in rows] == ["job-0001", "job-0002"]
        assert rows[1]["cache_hit"] is True

    def test_priority_orders_queued_jobs(self, tmp_path, aag_text,
                                         buggy_text):
        # no started service: jobs stack up in the queue unserved
        svc = VerificationService(db=None, workers=1)
        low = svc.submit("low.aag", aag_text, priority=9)
        high = svc.submit("high.aag", buggy_text, priority=1)
        assert svc.queue.get().id == high.id
        assert svc.queue.get().id == low.id


class TestConcurrentDispatch:
    def test_jobs_in_flight_keep_their_own_streams(self, tmp_path):
        """More dispatcher threads than cores, a short switch interval:
        every job's stream holds its own task alone, and its record's
        counters are those of its own run."""
        import sys

        from repro.obs.view import fold_events

        texts = [write_aag(generate_multiplier(arch, width))
                 for arch in ("SP-AR-RC", "SP-WT-CL", "SP-DT-LF")
                 for width in (3, 4)]
        svc = VerificationService(db=str(tmp_path / "runs.db"),
                                  workers=4).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            jobs = [svc.submit(f"d{index}.aag", text)
                    for index, text in enumerate(texts)]
            for job in jobs:
                _wait(svc, job, timeout=120)
        finally:
            sys.setswitchinterval(interval)
            svc.shutdown()
        for job in jobs:
            assert job.state == "done"
            assert job.record["status"] == "correct"
            kinds = [event["ev"] for event in job.events]
            assert [e["design"] for e in job.events
                    if e["ev"] == "task_begin"] == [job.id]
            assert kinds.count("run_end") == 1 and kinds[-1] == "task_end"
            assert fold_events(job.events).counters == \
                job.record["counters"]
