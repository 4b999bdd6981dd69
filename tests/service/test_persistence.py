"""The shared persistence API: verdict records and the certificate
cache semantics (what may be replayed, what must never be)."""

import pytest

from repro.core.pipeline import Pipeline, VerifyConfig
from repro.genmul.multiplier import generate_multiplier
from repro.obs.store import RunStore
from repro.service.fingerprint import design_fingerprint
from repro.service.persistence import (
    CACHEABLE_STATUSES,
    cache_lookup,
    cache_store,
    ingest_verify_records,
    result_from_record,
    verdict_record,
)


@pytest.fixture(scope="module")
def verified():
    aig = generate_multiplier("SP-AR-RC", 4)
    result = Pipeline(VerifyConfig(record_trace=True,
                                   record_certificate=True)).run(aig)
    return aig, result


class TestVerdictRecord:
    def test_shape(self, verified):
        aig, result = verified
        record = verdict_record(result, input_path="m.aag")
        assert record["status"] == "correct"
        assert record["cache_hit"] is False
        assert record["input"] == "m.aag"
        assert record["summary"] == result.summary()
        assert record["timed_out"] is False
        assert "certificate" in record

    def test_round_trip_through_result(self, verified):
        aig, result = verified
        record = verdict_record(result)
        replayed = result_from_record(record)
        assert replayed.status == result.status
        assert replayed.method == result.method
        assert replayed.seconds == record["seconds"]
        assert replayed.sizes() == result.sizes()
        # the one-liner agrees apart from the (rounded) wall time
        assert replayed.summary().split(" in ")[0] == \
            result.summary().split(" in ")[0]


class TestCacheSemantics:
    def test_only_final_verdicts_are_cacheable(self):
        assert CACHEABLE_STATUSES == {"correct", "buggy"}

    def test_store_then_lookup(self, verified):
        aig, result = verified
        fingerprint = design_fingerprint(aig)
        record = verdict_record(result)
        with RunStore() as store:
            assert cache_store(store, fingerprint, record, design="m")
            hit = cache_lookup(store, fingerprint)
        assert hit["cache_hit"] is True
        assert hit["fingerprint"] == fingerprint
        assert hit["cache_hits"] == 1
        assert hit["status"] == record["status"]
        # the payload fields replay exactly
        for key in ("method", "seconds", "stats", "summary",
                    "certificate"):
            assert hit[key] == record[key], key

    def test_miss_returns_none(self):
        with RunStore() as store:
            assert cache_lookup(store, "0" * 64) is None

    @pytest.mark.parametrize("status", ["timeout", "invalid", "unknown"])
    def test_non_final_statuses_are_refused(self, status):
        with RunStore() as store:
            assert not cache_store(store, "a" * 64, {"status": status})
            assert cache_lookup(store, "a" * 64) is None

    def test_replayed_hit_is_never_recached(self, verified):
        aig, result = verified
        fingerprint = design_fingerprint(aig)
        with RunStore() as store:
            cache_store(store, fingerprint, verdict_record(result))
            hit = cache_lookup(store, fingerprint)
            # a cache-hit record must not overwrite/extend the cache
            assert not cache_store(store, "b" * 64, hit)

    def test_first_writer_wins(self, verified):
        aig, result = verified
        fingerprint = design_fingerprint(aig)
        record = verdict_record(result)
        with RunStore() as store:
            assert cache_store(store, fingerprint, record)
            assert not cache_store(store, fingerprint, record)
            assert len(store.certificates()) == 1

    def test_lookup_without_counting(self, verified):
        aig, result = verified
        fingerprint = design_fingerprint(aig)
        with RunStore() as store:
            cache_store(store, fingerprint, verdict_record(result))
            cache_lookup(store, fingerprint, count_hit=False)
            hit = cache_lookup(store, fingerprint)
            assert hit["cache_hits"] == 1

    def test_adder_verdict_is_not_replayed_for_a_multiplier(self):
        from repro.service.task import cached_record

        # as an adder the product bits are a wrong sum
        aig = generate_multiplier("SP-AR-RC", 3)
        adder = VerifyConfig(spec="adder")
        with RunStore() as store:
            first = Pipeline(adder).run(aig, store=store)
            assert first.status == "buggy"
            assert cached_record(store, aig, adder)["status"] == "buggy"
            assert cached_record(store, aig, VerifyConfig()) is None
            second = Pipeline(VerifyConfig()).run(aig, store=store)
            assert second.status == "correct"
            assert not second.stats["cache_hit"]


class TestIngest:
    def test_cache_hits_are_not_reingested(self, verified, tmp_path):
        aig, result = verified
        db = str(tmp_path / "runs.db")
        record = verdict_record(result, input_path="m.aag")
        ingest_verify_records([record], db)
        replay = dict(record)
        replay["cache_hit"] = True
        ingest_verify_records([replay, record], db)
        with RunStore(db) as store:
            assert len(store) == 2  # the replay was skipped

    def test_invalid_records_are_not_ingested(self, verified, tmp_path):
        aig, result = verified
        db = str(tmp_path / "runs.db")
        invalid = {"input": "odd.aag", "status": "invalid",
                   "timed_out": False, "cache_hit": False,
                   "summary": "invalid: odd input count",
                   "diagnostics": [{"code": "RA030"}]}
        record = verdict_record(result, input_path="m.aag")
        assert len(ingest_verify_records([invalid, record], db)) == 1
        with RunStore(db) as store:
            assert [run["design"] for run in store.runs()] == ["m"]

    def test_broken_db_is_best_effort(self, verified, tmp_path):
        aig, result = verified
        bad = tmp_path / "not-a-dir" / "x" / "runs.db"
        record = verdict_record(result, input_path="m.aag")
        assert ingest_verify_records([record], str(bad)) is None
