"""Tests for repro.obs.store: the SQLite run-history database."""

import json

import pytest

from repro.core import verify_multiplier
from repro.errors import ObsDataError
from repro.genmul import generate_multiplier
from repro.obs import Recorder, RunStore, current_git_rev
from repro.obs.recorder import TRACE_HEADER
from repro.obs.store import SCHEMA_VERSION


def _events(seconds=1.0, sizes=(4, 9, 3), backtracks=1, status="correct",
            method="dyposub"):
    """A minimal synthetic event stream shaped like a real trace."""
    events = [{"ev": "run_begin", "t": 0.0, "method": method, "nodes": 10,
               "width_a": 4, "width_b": 4, "signed": False}]
    for index, size in enumerate(sizes, start=1):
        events.append({"ev": "step", "t": 0.1 * index, "i": index,
                       "comp": index - 1, "kind": "FA", "size": size,
                       "threshold": 0.1})
    for _ in range(backtracks):
        events.append({"ev": "backtrack", "t": 0.5, "comp": 0,
                       "growth": 2.0, "threshold": 0.1})
    events.append({"ev": "span", "t": 0.0, "name": "rewrite",
                   "path": "rewrite", "dur": 0.8})
    events.append({"ev": "run_end", "t": seconds, "status": status,
                   "seconds": seconds, "steps": len(sizes),
                   "max_poly_size": max(sizes)})
    return events


class TestEmptyStore:
    def test_fresh_store_is_empty(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            assert len(store) == 0
            assert store.runs() == []
            assert store.series() == []
            assert store.run(1) is None
            assert store.latest("x", "none", "dyposub") is None

    def test_in_memory_store(self):
        with RunStore() as store:
            assert len(store) == 0

    def test_reopen_preserves_rows(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            store.add_run("d", "dyposub", seconds=1.0)
        with RunStore(path) as store:
            assert len(store) == 1

    def test_unknown_metric_raises(self):
        with RunStore() as store:
            store.add_run("d", "dyposub", seconds=1.0)
            with pytest.raises(ValueError):
                store.history("d", "none", "dyposub", "bogus")


class TestSchemaStamp:
    """A store opens only when empty or stamped with exactly this
    build's schema version; it is a re-creatable history and cache, so
    any other file is refused and left as it was."""

    @pytest.mark.parametrize("stamp", ["4", "99", "abc", None])
    def test_other_stamp_is_refused_untouched(self, tmp_path, stamp):
        import os
        import sqlite3
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            store.add_run("d", "dyposub", seconds=1.0)
        conn = sqlite3.connect(path)
        if stamp is None:
            conn.execute("DELETE FROM meta")
        else:
            conn.execute("UPDATE meta SET value = ? "
                         "WHERE key = 'schema_version'", (stamp,))
        conn.commit()
        conn.close()
        before = path.read_bytes()
        message = (f"{path}: not a v{SCHEMA_VERSION} run store "
                   f"(schema_version {stamp!r}); start a new store file")
        with pytest.raises(ObsDataError) as refused:
            RunStore(path)
        assert str(refused.value) == message
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).parents[2] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--db", str(path)], capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"serve: {message}"]
        assert path.read_bytes() == before


class TestAddRun:
    def test_add_run_round_trip(self):
        with RunStore() as store:
            run_id = store.add_run(
                "SP-DT-LF 8x8", "dyposub", optimization="dc2",
                status="correct", seconds=1.5, steps=3, max_poly_size=9,
                backtracks=1, threshold_doublings=0,
                phases={"rewrite": 0.8, "spec": 0.1},
                commits=[{"step": 1, "component": 0, "kind": "FA",
                          "size": 4, "threshold": 0.1}, 9, 3],
                metrics={"counter:rewrite.commits": 3},
                git_rev="abc123", meta={"nodes": 10})
            run = store.run(run_id)
            assert run["design"] == "SP-DT-LF 8x8"
            assert run["optimization"] == "dc2"
            assert run["status"] == "correct"
            assert run["git_rev"] == "abc123"
            assert run["meta"] == {"nodes": 10}
            assert run["phases"] == {"rewrite": 0.8, "spec": 0.1}
            assert run["commit_count"] == 3
            # bare sizes become anonymous commit rows at their index
            assert store.sizes(run_id) == [4, 9, 3]
            commits = store.commits(run_id)
            assert commits[0]["kind"] == "FA"
            assert commits[1]["component"] is None

    def test_series_and_latest(self):
        with RunStore() as store:
            store.add_run("a", "dyposub", seconds=1.0)
            store.add_run("a", "dyposub", seconds=2.0)
            store.add_run("b", "static", optimization="dc2", seconds=3.0)
            assert store.series() == [("a", "none", "dyposub"),
                                      ("b", "dc2", "static")]
            assert store.latest("a", "none", "dyposub")["seconds"] == 2.0

    def test_history_orders_and_filters(self):
        with RunStore() as store:
            store.add_run("a", "dyposub", seconds=1.0,
                          phases={"rewrite": 0.5})
            store.add_run("a", "dyposub", seconds=2.0,
                          phases={"rewrite": 0.7},
                          metrics={"attr:sp0:size": 3.0})
            history = store.history("a", "none", "dyposub", "seconds")
            assert [value for _, value in history] == [1.0, 2.0]
            phase = store.history("a", "none", "dyposub", "phase:rewrite")
            assert [value for _, value in phase] == [0.5, 0.7]
            metric = store.history("a", "none", "dyposub",
                                   "metric:attr:sp0:size")
            assert [value for _, value in metric] == [3.0]


class TestIngestEvents:
    def test_single_trace(self):
        with RunStore() as store:
            run_id = store.ingest_events(_events(), design="m8")
            run = store.run(run_id)
            assert run["method"] == "dyposub"
            assert run["status"] == "correct"
            assert run["steps"] == 3
            assert run["max_poly_size"] == 9
            assert run["backtracks"] == 1
            assert store.sizes(run_id) == [4, 9, 3]
            assert run["phases"] == {"rewrite": 0.8}

    def test_single_event_stream(self):
        # a trace that died right after run_begin must still ingest
        with RunStore() as store:
            run_id = store.ingest_events(
                [{"ev": "run_begin", "t": 0.0, "method": "static",
                  "nodes": 4}], design="crashed")
            run = store.run(run_id)
            assert run["method"] == "static"
            assert run["status"] is None
            assert run["steps"] is None
            assert store.sizes(run_id) == []

    def test_trace_file_tolerates_truncation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [json.dumps(event) for event in [TRACE_HEADER, *_events()]]
        lines.append('{"ev": "step", "i": 4, "si')  # killed mid-write
        path.write_text("\n".join(lines), encoding="utf-8")
        with RunStore() as store:
            run_id, skipped = store.ingest_trace_file(path)
            assert skipped == 1
            assert store.run(run_id)["design"] == "trace"

    def test_real_run_ingests(self, tmp_path):
        aig = generate_multiplier("SP-AR-RC", 4)
        recorder = Recorder()
        result = verify_multiplier(aig, record_trace=True,
                                   recorder=recorder)
        with RunStore() as store:
            run_id = store.ingest_events(recorder.events, design="sp-ar-rc")
            run = store.run(run_id)
            assert run["status"] == "correct"
            assert run["steps"] == result.stats["steps"]
            assert store.sizes(run_id) == result.sizes()


class TestIngestPayloads:
    def test_verify_payload(self):
        payload = {"command": "verify", "records": [{
            "input": "designs/m8.aag", "method": "dyposub",
            "status": "correct", "seconds": 1.25,
            "stats": {"steps": 2, "max_poly_size": 7, "backtracks": 0,
                      "threshold_doublings": 0, "nodes": 10},
            "sizes": [5, 7], "phases": {"rewrite": 0.9},
            "counters": {"rewrite.commits": 2},
        }]}
        with RunStore() as store:
            run_ids = store.ingest_verify_payload(payload)
            assert len(run_ids) == 1
            run = store.run(run_ids[0])
            assert run["design"] == "m8"
            assert run["max_poly_size"] == 7
            assert store.sizes(run_ids[0]) == [5, 7]
            assert run["metrics"] == {"counter:rewrite.commits": 2}

    def test_bench_payload(self):
        payload = {"bench": "table1", "cases": [{
            "architecture": "SP-DT-LF", "size": "8x8",
            "optimization": "dc2",
            "methods": {
                "dyposub": {"method": "dyposub", "status": "correct",
                            "seconds": 1.0, "stats": {"steps": 3}},
                "revsca-static": None,
            },
        }]}
        with RunStore() as store:
            run_ids = store.ingest_bench_payload(payload)
            assert len(run_ids) == 1
            run = store.run(run_ids[0])
            assert run["design"] == "SP-DT-LF 8x8"
            assert run["optimization"] == "dc2"

    def test_ingest_file_sniffs_shapes(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        trace.write_text("\n".join(json.dumps(e) for e in
                                   [TRACE_HEADER, *_events()]),
                         encoding="utf-8")
        verify = tmp_path / "verify.json"
        verify.write_text(json.dumps({"command": "verify", "records": []}),
                          encoding="utf-8")
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"bench": "table2", "cases": []}),
                         encoding="utf-8")
        with RunStore() as store:
            assert len(store.ingest_file(trace)) == 1
            assert store.ingest_file(verify) == []
            assert store.ingest_file(bench) == []
            bogus = tmp_path / "bogus.json"
            bogus.write_text('{"what": "ever"}', encoding="utf-8")
            with pytest.raises(ValueError):
                store.ingest_file(bogus)

    @pytest.mark.parametrize("text", ["", "not a trace\n"] + [
        json.dumps(payload) for payload in (
            [1, 2],
            {"cases": 5},
            {"cases": [{"methods": {"x": 3}}]},
            {"command": "verify", "records": [1]},
            # a good record ahead of a bad one must not be stored either
            {"command": "verify",
             "records": [{"input": "m.aag"}, {"stats": 1}]},
            # the baseline format of the deleted kernel microbenchmark
            {"bench": "rewriting-" "microbench", "calibration_seconds": 0.05,
             "scales": {"small": {"budget": 50_000, "phases": {
                 "dynamic_rewrite": {"seconds": 2.0, "normalized": 40.0}}}}},
        )])
    def test_ingest_file_rejects_malformed_input(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with RunStore() as store:
            with pytest.raises(ValueError):
                store.ingest_file(path)
            assert len(store) == 0


class TestSchemaV2:
    def test_resources_round_trip(self):
        with RunStore() as store:
            run_id = store.add_run(
                "d", "dyposub", seconds=1.0, status="correct",
                resources={"rewrite": {"rss_peak_kb": 50000,
                                       "tracemalloc_kb": 100.0,
                                       "tracemalloc_peak_kb": 200.0,
                                       "gc_collections": 3}})
            resources = store.resources(run_id)
            assert resources["rewrite"]["rss_peak_kb"] == 50000
            assert resources["rewrite"]["gc_collections"] == 3
            # run() carries the child table
            assert "rewrite" in store.run(run_id)["resources"]

    def test_rerun_phase_keeps_merged_resources(self):
        """Two ``phase_resources`` events of one phase (the threshold
        fallback reruns ``rewrite``) merge max-for-peaks and
        sum-for-deltas instead of keeping the last one."""
        events = [{"ev": "run_begin", "t": 0.0, "method": "dyposub"}]
        for peak, delta in ((900.0, 1.5), (500.0, 2.0)):
            events.append({"ev": "phase_resources", "t": 0.1,
                           "phase": "rewrite", "rss_kb": peak,
                           "rss_peak_kb": peak, "tracemalloc_kb": delta,
                           "tracemalloc_peak_kb": peak,
                           "gc_collections": 1})
        with RunStore() as store:
            row = store.resources(store.ingest_events(events, "d"))
        assert row["rewrite"] == {"rss_peak_kb": 900.0,
                                  "tracemalloc_kb": 3.5,
                                  "tracemalloc_peak_kb": 900.0,
                                  "gc_collections": 2}

    def test_fallback_run_persists_the_tracker_resources(self):
        """BP-AR-RC 4x4 trips a 4,000-monomial budget from threshold 0.5
        but not from the paper's 10%, so ``rewrite`` runs twice."""
        from repro.obs.resources import ResourceTracker

        tracker = ResourceTracker(Recorder(), interval=None)
        result = verify_multiplier(generate_multiplier("BP-AR-RC", 4),
                                   initial_threshold=0.5,
                                   monomial_budget=4_000, recorder=tracker)
        tracker.close()
        assert result.status == "correct"
        assert [e["ev"] for e in tracker.events].count("rewrite_retry") == 1
        rewrites = [e for e in tracker.events
                    if e["ev"] == "phase_resources"
                    and e["phase"] == "rewrite"]
        assert len(rewrites) == 2
        with RunStore() as store:
            stored = store.resources(store.ingest_events(tracker.events,
                                                         "BP-AR-RC-4"))
        for phase, merged in tracker.phase_resources.items():
            for key in ("rss_peak_kb", "tracemalloc_kb",
                        "tracemalloc_peak_kb", "gc_collections"):
                assert stored[phase][key] == merged[key], (phase, key)


class TestSchemaV3:
    def test_attribution_round_trip(self):
        cells = [{"stage": "fsa", "rule": "FA/compact", "seconds": 0.4,
                  "growth": 120, "commits": 7, "samples": 3},
                 {"stage": "ppg", "rule": "HA/compact", "seconds": 0.1,
                  "growth": 0, "commits": 12, "samples": 0}]
        with RunStore() as store:
            run_id = store.add_run("d", "dyposub", status="correct",
                                   attribution=cells)
            stored = store.attribution(run_id)
            assert [(c["stage"], c["rule"]) for c in stored] == \
                [("fsa", "FA/compact"), ("ppg", "HA/compact")]
            assert stored[0]["growth"] == 120
            assert stored[0]["samples"] == 3
            # run() carries the cells too
            assert store.run(run_id)["attribution"] == stored

    def test_trace_ingest_stores_attribution_cells_and_metrics(self):
        events = [
            {"ev": "run_begin", "t": 0.0, "method": "dyposub",
             "nodes": 10, "width_a": 4, "width_b": 4, "signed": False},
            {"ev": "stage_map", "t": 0.01, "architecture": "ripple",
             "risk_factor": 1.2, "risk_score": 55.0,
             "regions": {"ppg": 4, "ppa": 3, "fsa": 3},
             "components": {"0": "fsa", "1": "ppg"}},
            {"ev": "rewrite_begin", "t": 0.1, "size": 10,
             "components": 2, "ring": "exact"},
            {"ev": "attempt", "t": 0.15, "comp": 0, "kind": "FA",
             "before": 10, "size": 14, "compact": False, "growth": 0.4},
            {"ev": "step", "t": 0.2, "i": 1, "comp": 0, "kind": "FA",
             "size": 14, "threshold": 0.5},
            {"ev": "attempt", "t": 0.25, "comp": 1, "kind": "HA",
             "before": 14, "size": 8, "compact": True, "growth": -0.4},
            {"ev": "step", "t": 0.3, "i": 2, "comp": 1, "kind": "HA",
             "size": 8, "threshold": 0.5},
            {"ev": "span", "t": 0.1, "name": "rewrite",
             "path": "rewrite", "dur": 0.25},
            {"ev": "run_end", "t": 0.4, "status": "correct",
             "seconds": 0.4},
        ]
        with RunStore() as store:
            run_id = store.ingest_events(events, design="d")
            cells = store.attribution(run_id)
            assert {(c["stage"], c["rule"]) for c in cells} == \
                {("fsa", "FA/expand"), ("ppg", "HA/compact")}
            record = store.run(run_id)
            metrics = record["metrics"]
            assert metrics["attr:stage:fsa:growth"] == 4
            assert metrics["attr:stage:ppg:growth"] == 0
            assert metrics["attr:risk:score"] == 55.0
            assert metrics["attr:sp0:size"] == 10
            assert record["meta"]["architecture"] == "ripple"
            history = store.history(
                "d", "none", "dyposub", "metric:attr:stage:fsa:seconds")
            assert len(history) == 1


class TestSchemaV4:
    RECORD = {"status": "correct", "method": "dyposub", "seconds": 1.5,
              "summary": "dyposub: correct in 1.50s",
              "stats": {"ring": "exact", "width_a": 4, "width_b": 4,
                        "signed": False, "nodes": 104}}

    def test_certificate_round_trip(self):
        with RunStore() as store:
            assert store.put_certificate("f" * 64, self.RECORD,
                                         design="m.aag", run_id=7)
            entry = store.get_certificate("f" * 64)
            assert entry["record"] == self.RECORD
            assert entry["design"] == "m.aag"
            assert entry["run_id"] == 7
            assert entry["status"] == "correct"
            assert entry["width_a"] == 4 and entry["signed"] == 0

    def test_hits_are_counted(self):
        with RunStore() as store:
            store.put_certificate("f" * 64, self.RECORD)
            # a counted get returns the post-bump tally
            assert store.get_certificate("f" * 64)["hits"] == 1
            assert store.get_certificate("f" * 64)["hits"] == 2
            peek = store.get_certificate("f" * 64, count_hit=False)
            assert peek["hits"] == 2
            assert store.get_certificate("f" * 64)["hits"] == 3

    def test_first_writer_wins(self):
        with RunStore() as store:
            assert store.put_certificate("f" * 64, self.RECORD)
            other = dict(self.RECORD, status="buggy")
            assert not store.put_certificate("f" * 64, other)
            assert store.get_certificate("f" * 64)["status"] == "correct"

    def test_listing_filters_by_status(self):
        with RunStore() as store:
            store.put_certificate("a" * 64, self.RECORD)
            store.put_certificate("b" * 64,
                                  dict(self.RECORD, status="buggy"))
            assert len(store.certificates()) == 2
            buggy = store.certificates(status="buggy")
            assert [c["fingerprint"] for c in buggy] == ["b" * 64]
            assert "record" not in buggy[0]  # listing skips payloads

    def test_certificates_survive_run_pruning(self):
        with RunStore() as store:
            store.add_run("d", "dyposub", seconds=1.0)
            store.put_certificate("f" * 64, self.RECORD)
            store.prune(keep_last=0, vacuum=False)
            assert len(store) == 0
            assert store.get_certificate("f" * 64) is not None


class TestConcurrentWriters:
    def test_file_store_runs_in_wal_mode(self, tmp_path):
        with RunStore(tmp_path / "runs.db") as store:
            mode = store._conn.execute(
                "PRAGMA journal_mode").fetchone()[0]
            assert mode.lower() == "wal"
            timeout = store._conn.execute(
                "PRAGMA busy_timeout").fetchone()[0]
            assert timeout >= 1000  # milliseconds

    def test_memory_store_skips_wal(self):
        with RunStore() as store:
            mode = store._conn.execute(
                "PRAGMA journal_mode").fetchone()[0]
            assert mode.lower() == "memory"

    def test_two_writers_interleave_without_losses(self, tmp_path):
        """The service scenario: several worker processes (modelled as
        threads with *separate connections* — SQLite locking is
        per-connection) write runs and certificates into one store
        concurrently.  WAL + busy_timeout must absorb the contention
        without `database is locked` errors or lost rows."""
        import threading

        path = tmp_path / "runs.db"
        rounds = 25
        errors = []

        def writer(slot):
            try:
                with RunStore(path, busy_timeout=30.0) as store:
                    for index in range(rounds):
                        store.add_run(f"w{slot}", "dyposub",
                                      seconds=0.1 * index)
                        store.put_certificate(
                            f"{slot}:{index}",
                            {"status": "correct", "seconds": 0.1},
                            design=f"w{slot}")
                        # both race on the same shared fingerprint
                        store.put_certificate(
                            "shared", {"status": "correct"})
                        store.get_certificate("shared")
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        with RunStore(path) as store:
            assert len(store) == 2 * rounds
            assert len(store.certificates()) == 2 * rounds + 1
            shared = store.get_certificate("shared", count_hit=False)
            assert shared["hits"] == 2 * rounds  # every replay counted


class TestPrune:
    def _seed(self, store):
        for index in range(4):
            store.add_run("a", "dyposub", seconds=1.0 + index,
                          created_at=100.0 + index,
                          phases={"rewrite": 0.5})
        store.add_run("b", "dyposub", seconds=9.0, created_at=50.0,
                      resources={"rewrite": {"rss_peak_kb": 1}})

    def test_keep_last_is_per_series(self):
        with RunStore() as store:
            self._seed(store)
            result = store.prune(keep_last=2, vacuum=False)
            assert result["deleted"] == 2  # only series "a" had extras
            assert result["remaining"] == 3
            # newest two of "a" survive, "b"'s single run survives
            assert [r["seconds"] for r in store.runs(design="a")] == \
                [3.0, 4.0]
            assert len(store.runs(design="b")) == 1

    def test_before_cutoff_composes_with_keep_last(self):
        with RunStore() as store:
            self._seed(store)
            result = store.prune(keep_last=3, before=101.5)
            # keep_last=3 dooms a's oldest; before=101.5 dooms a's first
            # two and b's run — the union is 3 deletions
            assert result["deleted"] == 3
            assert result["remaining"] == 2
            assert store.runs(design="b") == []

    def test_children_cascade_and_counts_report(self):
        with RunStore() as store:
            self._seed(store)
            before = store.table_counts()
            assert before["phases"] == 4
            assert before["resources"] == 1
            result = store.prune(keep_last=1)
            tables = result["tables"]
            assert tables["runs"] == 2
            assert tables["phases"] == 1  # cascaded with their runs
            assert tables["resources"] == 1

    def test_prune_on_disk_store_vacuums(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            self._seed(store)
            result = store.prune(keep_last=1, vacuum=True)
            assert result["remaining"] == 2

    def test_noop_prune(self):
        with RunStore() as store:
            self._seed(store)
            result = store.prune(keep_last=10, vacuum=False)
            assert result["deleted"] == 0
            assert result["remaining"] == 5


class TestGitRev:
    def test_current_git_rev_in_repo(self):
        rev = current_git_rev()
        # the repo under test is a git checkout; outside one this
        # degrades to None rather than raising
        assert rev is None or (isinstance(rev, str) and rev)

    def test_current_git_rev_outside_repo(self, tmp_path):
        assert current_git_rev(cwd=tmp_path) is None
