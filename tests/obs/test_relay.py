"""Batch traces: one run per task, split for the store, refused by the
per-run readers.

A batch ``repro verify a.aag b.aag --trace-out`` writes one trace of
every task.
"""

import json

import pytest

from repro import cli
from repro.aig.aiger import write_aag
from repro.genmul.multiplier import generate_multiplier
from repro.obs import split_worker_runs
from repro.obs.recorder import TRACE_HEADER


class TestSplitWorkerRuns:
    def test_untagged_events_form_one_segment(self):
        events = [{"ev": "run_begin"}, {"ev": "step", "i": 1}]
        runs = split_worker_runs(events)
        assert len(runs) == 1
        assert runs[0][0] is None
        assert runs[0][1] == events


@pytest.fixture()
def trace(tmp_path, capsys):
    """A two-task ``verify --trace-out`` batch trace."""
    paths = []
    for arch in ("SP-AR-RC", "SP-WT-CL"):
        path = tmp_path / f"{arch}.aag"
        path.write_text(write_aag(generate_multiplier(arch, 4)),
                        encoding="ascii")
        paths.append(str(path))
    trace = tmp_path / "batch.jsonl"
    assert cli.main(["verify", *paths, "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    return trace


class TestEndToEndJobs:
    def test_serial_jobs1_batch_still_merges_a_trace(self, trace):
        header, *events = [json.loads(line) for line in
                           trace.read_text(encoding="utf-8").splitlines()]
        assert header == TRACE_HEADER
        # one clock for the whole batch (a span is stamped at its start)
        stamps = [event["t"] for event in events if event["ev"] != "span"]
        assert stamps == sorted(stamps)
        assert [e["design"] for e in events if e["ev"] == "task_begin"] \
            == [str(trace.parent / "SP-AR-RC.aag"),
                str(trace.parent / "SP-WT-CL.aag")]
        ends = [e for e in events if e["ev"] == "run_end"]
        assert [e["status"] for e in ends] == ["correct", "correct"]

    def test_merged_trace_feeds_report_and_ingest(self, trace, tmp_path,
                                                  capsys):
        from repro.obs import RunStore

        db = str(tmp_path / "runs.db")
        with RunStore(db) as store:
            run_ids, skipped = store.ingest_trace_file(trace)
            assert skipped == 0
            assert len(run_ids) == 2
            runs = [store.run(run_id) for run_id in run_ids]
            assert [run["design"] for run in runs] == ["SP-AR-RC",
                                                       "SP-WT-CL"]
            for run in runs:
                assert run["status"] == "correct"
            # each task's summary counts that task alone
            commits = [run["metrics"]["counter:rewrite.commits"]
                       for run in runs]
            assert commits == [run["commit_count"] for run in runs]
        # the per-run command the batch refusal names works on each id
        for run_id in run_ids:
            assert cli.main(["explain", f"run:{run_id}", "--db", db]) == 0
            assert capsys.readouterr().out


class TestSerialBatchTrace:
    @pytest.mark.parametrize("argv, hint", [
        (["report"], "`repro explain run:ID --db DB`"),
        (["explain"], "`repro explain run:ID --db DB`"),
        (["obs", "diff", "TRACE"], "`repro obs diff run:A run:B --db DB`"),
    ], ids=["report", "explain", "obs-diff"])
    def test_batch_trace_is_refused_per_run(self, trace, argv, hint,
                                            capsys):
        argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
        assert cli.main([*argv, str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{trace} is a batch trace of 2 runs" in captured.err
        assert f"`repro obs ingest --db DB {trace}`" in captured.err
        assert hint in captured.err
