"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


class TestCli:
    def test_generate_and_verify(self, tmp_path, capsys):
        path = tmp_path / "m.aag"
        assert main(["generate", "SP-DT-LF", "4", "-o", str(path)]) == 0
        assert path.exists()
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "correct" in out

    def test_optimize_round(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        dst = tmp_path / "opt.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["optimize", str(src), "--script", "resyn3",
                     "-o", str(dst)]) == 0
        assert main(["verify", str(dst)]) == 0

    def test_inject_and_catch(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        bug = tmp_path / "bug.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["inject", str(src), "--kind", "gate-type",
                     "-o", str(bug)]) == 0
        assert main(["verify", str(bug)]) == 1
        out = capsys.readouterr().out
        assert "buggy" in out
        assert "counterexample" in out

    def test_timeout_exit_code(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-DT-LF", "8", "-o", str(src)])
        assert main(["verify", str(src), "--budget", "10"]) == 2

    def test_stats(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["stats", str(src)]) == 0
        out = capsys.readouterr().out
        assert "ands:" in out
        assert "full_adders:" in out

    def test_static_method_flag(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), "--method", "static"]) == 0

    def test_rectangular_width(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-WT-RC", "4", "--width-b", "3",
              "-o", str(src)])
        assert main(["verify", str(src), "--width-a", "4"]) == 0

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "SP-AR-RC", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("aag ")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_bad_threshold_exits_two_in_one_line(self, threshold, tmp_path,
                                                 capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        capsys.readouterr()
        assert main(["verify", str(src), f"--threshold={threshold}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verify: initial_threshold must be")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("threshold", ["x", "true"])
    def test_non_number_threshold_is_a_usage_error(self, threshold,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "m.aag", "--threshold", threshold])
        assert exc.value.code == 2
        assert "invalid float value" in capsys.readouterr().err


class TestBoundaryErrors:
    """Bad generator parameters and output paths in a missing directory
    end in one ``<command>: <message>`` line with exit 2, before any
    work is done (for ``verify``, ``lint`` and ``analyze``, exit 1
    would read as a finding)."""

    @pytest.mark.parametrize("argv", [["NOPE", "4"], ["SP-AR-RC", "0"]])
    def test_generate_rejects_bad_parameters(self, argv, capsys):
        assert main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("generate: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["generate", "SP-AR-RC", "4", "-o", "{missing}"],
        ["optimize", "{design}", "--script", "dc2", "-o", "{missing}"],
        ["inject", "{design}", "-o", "{missing}"],
        ["verify", "{design}", "--json", "{missing}"],
        ["verify", "{design}", "--trace-out", "{missing}"],
        ["lint", "{design}", "--sarif", "{missing}"],
        ["analyze", "{design}", "--json", "{missing}"],
        ["explain", "run.jsonl", "--json", "{missing}"],
        ["obs", "diff", "a.jsonl", "b.jsonl", "--json", "{missing}"],
        ["submit", "{design}", "--json", "{missing}"],
    ], ids=["generate", "optimize", "inject", "verify-json",
            "verify-trace-out", "lint", "analyze", "explain", "obs-diff",
            "submit"])
    def test_output_in_a_missing_directory(self, command, tmp_path, capsys):
        design = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(design)])
        capsys.readouterr()
        missing = tmp_path / "nowhere" / "out"
        argv = [arg.format(design=design, missing=missing)
                for arg in command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{command[0]}: cannot write {missing}: "
                                f"no directory {missing.parent}\n")
        assert not missing.parent.exists()


class TestObservabilityCli:
    def test_trace_out_writes_valid_jsonl(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        trace = tmp_path / "run.jsonl"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), "--trace-out", str(trace)]) == 0
        from repro.obs import read_events

        events = read_events(str(trace))
        kinds = [event["ev"] for event in events]
        assert kinds[0] == "run_begin"
        assert kinds[-1] == "summary"
        assert "run_end" in kinds
        assert "step" in kinds and "span" in kinds

    def test_report_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        trace = tmp_path / "run.jsonl"
        main(["generate", "SP-DT-LF", "4", "-o", str(src)])
        main(["verify", str(src), "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "# outcome: correct" in out
        assert "SP_i size per committed rewriting step" in out
        assert "Backward-rewriting dynamics" in out

    def test_verbose_logging_goes_to_stderr(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        assert main(["generate", "SP-AR-RC", "4", "-o", str(src),
                     "-v"]) == 0
        err = capsys.readouterr().err
        assert "repro.cli" in err
        assert "AND nodes" in err

    def test_quiet_suppresses_info(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        assert main(["generate", "SP-AR-RC", "4", "-o", str(src),
                     "-q"]) == 0
        assert "repro.cli" not in capsys.readouterr().err


class TestLiveVerifyCli:
    def test_live_flag_runs_clean(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), "--live",
                     "--stall-budget", "60"]) == 0
        captured = capsys.readouterr()
        assert "correct" in captured.out
        # no stall on a sub-second run
        assert "RP011" not in captured.err

    def test_live_with_trace_keeps_the_stream(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        trace = tmp_path / "run.jsonl"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), "--live", "--trace-out",
                     str(trace)]) == 0
        from repro.obs import read_events

        events = read_events(str(trace))
        kinds = [event["ev"] for event in events]
        steps = [event for event in events if event["ev"] == "step"]
        assert steps and all("candidates" in event for event in steps)
        assert kinds[-1] == "summary"

    def test_serial_batch_watchdog_sees_the_running_task(
            self, tmp_path, capsys, monkeypatch):
        """A ``--live`` batch streams each task's events while it runs,
        so a task that goes silent is flagged before it finishes, by
        the name of its design."""
        import json
        import time

        from repro.service import task

        run_design = task.run_design

        def silent_start(source, config, *, recorder, **kwargs):
            time.sleep(0.8)   # the task goes silent past the budget
            return run_design(source, config, recorder=recorder, **kwargs)

        monkeypatch.setattr(task, "run_design", silent_start)
        paths = []
        for arch in ("SP-AR-RC", "SP-WT-CL"):
            path = tmp_path / f"{arch}.aag"
            main(["generate", arch, "4", "-o", str(path)])
            paths.append(str(path))
        out = tmp_path / "batch.json"
        assert main(["verify", *paths, "--live", "--stall-budget", "0.2",
                     "--json", str(out)]) == 0
        err = capsys.readouterr().err
        for path in paths:
            assert f"RP011 warning: {path}: no rewriting commit" in err
        payload = json.loads(out.read_text())
        assert [r["status"] for r in payload["records"]] == ["correct"] * 2


class TestObsCli:
    def _trace(self, tmp_path, name="run.jsonl", arch="SP-AR-RC"):
        src = tmp_path / f"{name}.aag"
        trace = tmp_path / name
        main(["generate", arch, "4", "-o", str(src)])
        main(["verify", str(src), "--trace-out", str(trace)])
        return trace

    def test_ingest_adds_a_run_per_call(self, tmp_path, capsys):
        from repro.obs import RunStore

        db = tmp_path / "runs.db"
        trace = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["obs", "ingest", "--db", str(db), str(trace)]) == 0
        assert main(["obs", "ingest", "--db", str(db), str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"{trace}: ingested 1 run(s)" in out
        assert f"{db}: 2 run(s) total" in out
        with RunStore(db) as store:
            # design label from the trace stem
            assert [run["design"] for run in store.runs()] == ["run", "run"]

    def test_ingest_malformed_payload_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"command": "verify", "records": [1]}',
                       encoding="utf-8")
        assert main(["obs", "ingest", "--db", str(tmp_path / "runs.db"),
                     str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"obs ingest: {bad}: malformed payload" in err

    def test_verify_db_auto_ingests(self, tmp_path, capsys):
        from repro.obs import RunStore

        db = tmp_path / "runs.db"
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), "--db", str(db)]) == 0
        with RunStore(db) as store:
            assert len(store) == 1
            run = store.latest("m", "none", "dyposub")
            assert run["status"] == "correct"
            assert store.sizes(run["id"])  # commit trajectory landed

    def test_batch_verify_db_and_json_rows_carry_sizes(self, tmp_path,
                                                       capsys):
        import json

        from repro.obs import RunStore

        db = tmp_path / "runs.db"
        out_json = tmp_path / "batch.json"
        a = tmp_path / "a.aag"
        b = tmp_path / "b.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(a)])
        main(["generate", "SP-DT-LF", "4", "-o", str(b)])
        assert main(["verify", str(a), str(b), "--json", str(out_json),
                     "--db", str(db)]) == 0
        payload = json.loads(out_json.read_text())
        for record in payload["records"]:
            assert record["sizes"], record["input"]
            assert record["commits"], record["input"]
        with RunStore(db) as store:
            assert len(store) == 2

    def test_diff_two_traces(self, tmp_path, capsys):
        trace_a = self._trace(tmp_path, "a.jsonl", arch="SP-AR-RC")
        trace_b = self._trace(tmp_path, "b.jsonl", arch="SP-DT-LF")
        capsys.readouterr()
        assert main(["obs", "diff", str(trace_a), str(trace_b)]) == 0
        out = capsys.readouterr().out
        assert "first substitution-order divergence" in out
        assert "peak SP_i size" in out

    def test_diff_store_ref_against_trace(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        trace = self._trace(tmp_path)
        main(["obs", "ingest", "--db", str(db), str(trace)])
        capsys.readouterr()
        assert main(["obs", "diff", "run:1", str(trace),
                     "--db", str(db), "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "none (identical substitution order)" in out

    def test_diff_unknown_run_ref(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        trace = self._trace(tmp_path)
        assert main(["obs", "diff", "run:99", str(trace),
                     "--db", str(db)]) == 2
        assert "obs diff" in capsys.readouterr().err

    def test_prune_keep_last(self, tmp_path, capsys):
        from repro.obs import RunStore

        db = tmp_path / "runs.db"
        with RunStore(db) as store:
            for seconds in (1.0, 2.0, 3.0):
                store.add_run("m8", "dyposub", seconds=seconds)
        assert main(["obs", "prune", "--db", str(db),
                     "--keep-last", "1"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 run(s), 1 remaining" in out
        assert "rows:" in out
        with RunStore(db) as store:
            assert len(store) == 1
            assert store.runs()[0]["seconds"] == 3.0

    def test_prune_before_date(self, tmp_path, capsys):
        from repro.obs import RunStore

        db = tmp_path / "runs.db"
        with RunStore(db) as store:
            store.add_run("m8", "dyposub", seconds=1.0,
                          created_at=100.0)  # 1970: ancient
            store.add_run("m8", "dyposub", seconds=2.0)  # now
        assert main(["obs", "prune", "--db", str(db),
                     "--before", "2020-01-01"]) == 0
        assert "pruned 1 run(s), 1 remaining" in capsys.readouterr().out

    def test_prune_requires_a_filter(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert main(["obs", "prune", "--db", str(db)]) == 2
        assert "prune" in capsys.readouterr().err

    def test_prune_rejects_bad_date(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert main(["obs", "prune", "--db", str(db),
                     "--before", "not-a-date"]) == 2
        assert "--before" in capsys.readouterr().err


class TestObsBoundaries:
    """Wrong-typed trace fields, wrong-typed run values and store files
    that are not SQLite databases end each command with exit 2 and one
    ``<command>: ...`` line, never a traceback."""

    HEADER = '{"trace_format": 1}\n'
    BAD_TRACES = {
        "step": '{"ev": "step", "size": "big", "i": "a"}',
        "span": '{"ev": "span", "name": "rewrite", "path": 5, "dur": "x"}',
    }

    @pytest.mark.parametrize("kind", sorted(BAD_TRACES))
    @pytest.mark.parametrize("command", ["ingest", "report", "explain"])
    def test_wrong_typed_trace_field_exits_2(self, tmp_path, capsys, kind,
                                             command):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(self.HEADER + self.BAD_TRACES[kind] + "\n",
                         encoding="utf-8")
        db = tmp_path / "runs.db"
        argv = {"ingest": ["obs", "ingest", "--db", str(db), str(trace)],
                "report": ["report", str(trace)],
                "explain": ["explain", str(trace)]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        prefix = "obs ingest" if command == "ingest" else command
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{prefix}: {trace}: event 1 ({kind}): ")
        if command == "ingest":
            from repro.obs.store import RunStore

            with RunStore(db) as store:
                assert len(store) == 0

    def test_wrong_typed_run_values_are_not_ingested(self, tmp_path,
                                                     capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(self.HEADER + '{"ev": "run_end", "seconds": "x", '
                         '"status": 5}\n', encoding="utf-8")
        db = tmp_path / "runs.db"
        for _ in range(2):
            assert main(["obs", "ingest", "--db", str(db), str(trace)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"obs ingest: {trace}: event 1 (run_end)")
        from repro.obs.store import RunStore

        with RunStore(db) as store:
            assert len(store) == 0

    def test_wrong_typed_payload_run_value_is_refused(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"command": "verify", "records": '
                       '[{"input": "m.aag", "seconds": "x"}]}',
                       encoding="utf-8")
        db = tmp_path / "runs.db"
        assert main(["obs", "ingest", "--db", str(db), str(bad)]) == 2
        assert "malformed payload: run seconds is str 'x'" in \
            capsys.readouterr().err

    @staticmethod
    def _not_a_store(tmp_path, kind):
        path = tmp_path / f"{kind}.db"
        if kind == "directory":
            path.mkdir()
            return path
        if kind == "text":
            path.write_text("not a database\n" * 200, encoding="utf-8")
            return path
        from repro.obs.store import RunStore

        real = tmp_path / "real.db"
        with RunStore(real) as store:
            for index in range(100):
                store.add_run(f"d{index % 5}", "dyposub", seconds=1.0,
                              commits=list(range(1, 40)))
        data = real.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        return path

    @pytest.mark.parametrize("kind", ["text", "truncated", "directory"])
    def test_obs_commands_refuse_a_file_that_is_not_a_store(
            self, tmp_path, capsys, kind):
        db = self._not_a_store(tmp_path, kind)
        trace = tmp_path / "empty.jsonl"
        trace.write_text(self.HEADER + '{"ev": "run_begin", "t": 0.0}\n',
                         encoding="utf-8")
        for argv, prefix in ((["obs", "prune", "--db", str(db),
                               "--keep-last", "1"], "obs prune"),
                             (["obs", "ingest", "--db", str(db),
                               str(trace)], "obs ingest")):
            assert main(argv) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"{prefix}: {db}: not a run store")

    @pytest.mark.parametrize("kind", ["text", "truncated", "directory"])
    def test_serve_refuses_a_file_that_is_not_a_store(self, tmp_path,
                                                      kind):
        import os
        import subprocess
        import sys

        db = self._not_a_store(tmp_path, kind)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).parents[2] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--db", str(db)], capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"serve: {db}: not a run store")


class TestTelemetryFlags:
    def test_verify_resources_prints_the_table(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), "--resources"]) == 0
        out = capsys.readouterr().out
        assert "Resource usage" in out
        assert "rewrite" in out
        assert "run total: peak RSS" in out

    def test_verify_profile_sample_prints_hotspots(self, tmp_path,
                                                   capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "6", "-o", str(src)])
        assert main(["verify", str(src), "--profile-sample"]) == 0
        out = capsys.readouterr().out
        assert "Sampling profiler" in out

    def test_report_hotspots_from_trace(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        trace = tmp_path / "run.jsonl"
        main(["generate", "SP-AR-RC", "6", "-o", str(src)])
        assert main(["verify", str(src), "--profile-sample",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace), "--hotspots"]) == 0
        assert "Sampling profiler" in capsys.readouterr().out

    def test_report_hotspots_hint_without_profile(self, tmp_path,
                                                  capsys):
        src = tmp_path / "m.aag"
        trace = tmp_path / "run.jsonl"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        main(["verify", str(src), "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["report", str(trace), "--hotspots"]) == 0
        assert "--profile-sample" in capsys.readouterr().out


class TestLintCommand:
    def test_clean_design_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["lint", str(src)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_faulty_design_exits_one_with_ra032(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        bug = tmp_path / "bug.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        main(["inject", str(src), "--kind", "gate-type", "-o", str(bug)])
        assert main(["lint", str(bug)]) == 1
        out = capsys.readouterr().out
        assert "RA032" in out and "dirty" in out

    def test_json_and_sarif_export(self, tmp_path):
        import json

        src = tmp_path / "m.aag"
        bug = tmp_path / "bug.aag"
        report_json = tmp_path / "lint.json"
        report_sarif = tmp_path / "lint.sarif"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        main(["inject", str(src), "--kind", "wrong-wire", "-o", str(bug)])
        main(["lint", str(bug), "--json", str(report_json),
              "--sarif", str(report_sarif)])
        payload = json.loads(report_json.read_text())
        assert payload["reports"][0]["verdict"] == "dirty"
        codes = [d["code"] for d in payload["reports"][0]["diagnostics"]]
        assert "RA032" in codes
        sarif = json.loads(report_sarif.read_text())
        assert sarif["version"] == "2.1.0"

    def test_unparseable_file_is_a_report_not_a_crash(self, tmp_path, capsys):
        bad = tmp_path / "bad.aag"
        bad.write_text("aag 3 2 0 1 1\n2\n4\n6\n")  # truncated
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RA002" in out

    def test_lint_batch_mixes_clean_and_dirty(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        bug = tmp_path / "bug.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        main(["inject", str(src), "--kind", "input-negation",
              "-o", str(bug)])
        assert main(["lint", str(src), str(bug)]) == 1
        out = capsys.readouterr().out
        assert "clean" in out and "dirty" in out


class TestAnalyzeCli:
    def test_clean_simple_design_exits_zero(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-WT-CL", "6", "-o", str(src)])
        assert main(["analyze", str(src)]) == 0
        out = capsys.readouterr().out
        assert "simple-tree-lookahead" in out
        assert "RS001" in out

    def test_booth_findings_exit_one(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "BP-WT-RC", "6", "-o", str(src)])
        assert main(["analyze", str(src)]) == 1
        out = capsys.readouterr().out
        assert "booth-tree-ripple" in out
        assert "RS020" in out

    def test_unparseable_input_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.aag"
        bad.write_text("not aiger\n")
        assert main(["analyze", str(bad)]) == 3
        out = capsys.readouterr().out
        assert "RA001" in out

    def test_json_and_sarif_export(self, tmp_path):
        import json

        src = tmp_path / "m.aag"
        arch_json = tmp_path / "arch.json"
        arch_sarif = tmp_path / "arch.sarif"
        main(["generate", "SP-AR-RC", "6", "-o", str(src)])
        main(["analyze", str(src), "--json", str(arch_json),
              "--sarif", str(arch_sarif)])
        payload = json.loads(arch_json.read_text())
        assert payload["command"] == "analyze"
        record = payload["reports"][0]
        assert record["architecture"] == "simple-array-ripple"
        assert record["stages"]["fsa"]["label"] == "ripple"
        sarif = json.loads(arch_sarif.read_text())
        assert sarif["version"] == "2.1.0"
        assert any(res["ruleId"] == "RS001"
                   for res in sarif["runs"][0]["results"])


class TestVerifyPreflightCli:
    def test_invalid_design_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.aag"
        bad.write_text("aag 3 2 0 1 1\n2\n4\n6\n")
        assert main(["verify", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "RA002" in err

    def test_odd_input_count_exits_three_with_report(self, tmp_path,
                                                     capsys):
        odd = tmp_path / "odd.aag"
        odd.write_text("aag 3 3 0 1 0\n2\n4\n6\n2\n")
        assert main(["verify", str(odd)]) == 3
        err = capsys.readouterr().err
        assert "RA030" in err and "Traceback" not in err

    def test_missing_file_exits_three_with_report(self, tmp_path, capsys):
        missing = tmp_path / "missing.aag"
        assert main(["verify", str(missing)]) == 3
        err = capsys.readouterr().err
        assert "RA005" in err and "Traceback" not in err

    def test_binary_file_exits_three_with_report(self, tmp_path, capsys):
        binary = tmp_path / "m.aig"
        binary.write_bytes(b"aig 3 2 0 1 1\n\xff\xfe\x00\x81")
        assert main(["verify", str(binary)]) == 3
        assert "RA005" in capsys.readouterr().err

    def test_batch_marks_missing_file_invalid(self, tmp_path, capsys):
        import json

        src = tmp_path / "m.aag"
        out = tmp_path / "batch.json"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), str(tmp_path / "missing.aag"),
                     "--json", str(out)]) == 3
        statuses = [r["status"] for r in
                    json.loads(out.read_text())["records"]]
        assert statuses == ["correct", "invalid"]

    @pytest.mark.parametrize("command,code", [("lint", 1), ("analyze", 3),
                                              ("stats", 3)])
    def test_missing_file_is_a_report_for(self, command, code, tmp_path,
                                          capsys):
        assert main([command, str(tmp_path / "missing.aag")]) == code
        captured = capsys.readouterr()
        assert "RA005" in captured.out + captured.err

    def test_check_invariants_flag(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        assert main(["verify", str(src), "--check-invariants"]) == 0
        assert "correct" in capsys.readouterr().out

    def test_batch_skips_invalid_inputs(self, tmp_path, capsys):
        src = tmp_path / "m.aag"
        bad = tmp_path / "bad.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        bad.write_text("not an aiger file\n")
        assert main(["verify", str(src), str(bad)]) == 3
        out = capsys.readouterr().out
        assert "correct" in out and "invalid" in out


class TestServiceCli:
    """The verification-as-a-service surface of the CLI."""

    def _designs(self, tmp_path):
        src = tmp_path / "m.aag"
        bug = tmp_path / "bug.aag"
        main(["generate", "SP-AR-RC", "4", "-o", str(src)])
        main(["inject", str(src), "--kind", "gate-type", "-o", str(bug)])
        return src, bug

    def test_verify_db_replays_from_cache(self, tmp_path, capsys):
        src, _ = self._designs(tmp_path)
        db = tmp_path / "runs.db"
        assert main(["verify", str(src), "--db", str(db)]) == 0
        assert "[cache hit]" not in capsys.readouterr().out
        assert main(["verify", str(src), "--db", str(db)]) == 0
        assert "[cache hit]" in capsys.readouterr().out

    def test_no_cache_forces_a_fresh_run(self, tmp_path, capsys):
        src, _ = self._designs(tmp_path)
        db = tmp_path / "runs.db"
        main(["verify", str(src), "--db", str(db)])
        capsys.readouterr()
        assert main(["verify", str(src), "--db", str(db),
                     "--no-cache"]) == 0
        assert "[cache hit]" not in capsys.readouterr().out

    def test_batch_consults_cache_before_spawning(self, tmp_path, capsys):
        import json

        src, bug = self._designs(tmp_path)
        db = tmp_path / "runs.db"
        out_json = tmp_path / "batch.json"
        assert main(["verify", str(src), "--db", str(db)]) == 0
        capsys.readouterr()
        assert main(["verify", str(src), str(bug), "--db", str(db),
                     "--json", str(out_json)]) == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "[cache hit]" in lines[0]      # replayed, input order kept
        assert "[cache hit]" not in lines[1]  # the fault is a miss
        records = json.loads(out_json.read_text())["records"]
        assert [r["input"] for r in records] == [str(src), str(bug)]
        assert records[0]["cache_hit"] is True
        assert records[1]["cache_hit"] is False
        assert records[1]["status"] == "buggy"

    def test_submit_and_status_against_a_live_service(self, tmp_path,
                                                      capsys):
        import threading

        from repro.service.client import ServiceClient
        from repro.service.core import VerificationService
        from repro.service.server import run_server

        src, bug = self._designs(tmp_path)
        service = VerificationService(db=str(tmp_path / "runs.db"),
                                      workers=1)
        box = {}
        up = threading.Event()

        def on_ready(server):
            box["port"] = server.port
            up.set()

        thread = threading.Thread(target=run_server, args=(service,),
                                  kwargs={"port": 0, "ready": on_ready},
                                  daemon=True)
        thread.start()
        assert up.wait(timeout=30)
        port = str(box["port"])
        capsys.readouterr()
        try:
            assert main(["submit", str(src), str(bug),
                         "--port", port]) == 1
            out = capsys.readouterr().out
            assert "correct" in out and "buggy" in out
            assert "counterexample" in out
            # the resubmission replays from the cache inside the POST
            assert main(["submit", str(src), "--port", port]) == 0
            assert "[cache hit]" in capsys.readouterr().out
            assert main(["status", "--port", port]) == 0
            out = capsys.readouterr().out
            assert "job-0001" in out and "1 hit(s)" in out
            assert main(["status", "job-0001", "--port", port]) == 0
            assert "done" in capsys.readouterr().out
            assert main(["status", "job-0001", "--port", port,
                         "--events"]) == 0
            assert '"ev": "run_end"' in capsys.readouterr().out
        finally:
            ServiceClient(port=box["port"]).shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_submit_against_a_dead_service_fails_cleanly(self, tmp_path,
                                                         capsys):
        src, _ = self._designs(tmp_path)
        assert main(["submit", str(src), "--port", "1"]) == 2
        assert "submit:" in capsys.readouterr().err
        assert main(["status", "--port", "1"]) == 2
        assert "status:" in capsys.readouterr().err


class TestTraceInputs:
    """``report``, ``explain`` and ``obs diff`` load traces through one
    helper, ``obs ingest`` through the store: unreadable inputs and
    traces of another format exit 2 with a ``<command>: ...`` message,
    never a traceback."""

    FIXTURES = Path(__file__).parents[1] / "obs" / "fixtures"

    def test_report_of_a_missing_trace_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("report: ")
        assert "missing.jsonl" in err and "Traceback" not in err

    def test_report_warns_about_skipped_lines(self, tmp_path, capsys):
        trace = tmp_path / "cut.jsonl"
        trace.write_text('{"trace_format": 1}\n'
                         '{"ev": "run_begin", "t": 0.0, "method": "d"}\n'
                         '{"ev": "step", "t"', encoding="utf-8")
        assert main(["report", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "# run: method=d" in captured.out
        assert "skipped 1 unparseable line(s)" in captured.err

    @pytest.mark.parametrize("first", [
        '{"ev": "run_begin", "t": 0.0, "method": "d"}',
        '{"trace_format": 2}'], ids=["no-header", "format-2"])
    @pytest.mark.parametrize("command", [
        ["report"], ["explain"], ["obs", "ingest", "--db", "DB"],
        ["obs", "diff", "single.jsonl"]],
        ids=["report", "explain", "obs-ingest", "obs-diff"])
    def test_trace_of_another_format_exits_two(self, tmp_path, capsys,
                                               monkeypatch, first,
                                               command):
        """Every trace file is read behind the one format check: a file
        without this build's header ends each reader in one line."""
        monkeypatch.chdir(self.FIXTURES)
        trace = tmp_path / "other.jsonl"
        trace.write_text(first + '\n{"ev": "run_end", "t": 0.1, '
                         '"status": "correct", "seconds": 0.1}\n',
                         encoding="utf-8")
        argv = [str(tmp_path / "runs.db") if arg == "DB" else arg
                for arg in command]
        assert main([*argv, str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        prefix = " ".join(command[:2]) if command[0] == "obs" else command[0]
        assert lines[0].startswith(f"{prefix}: {trace}: ")
        assert "trace" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["report", "single.jsonl", "--hotspots"],
        ["explain", "single.jsonl"],
        ["obs", "diff", "single.jsonl", "single.jsonl"],
    ])
    def test_closed_stdout_ends_quietly(self, argv):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], cwd=self.FIXTURES,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        proc.stdout.close()   # the reader is gone before any write
        err = proc.stderr.read()
        assert proc.wait() == 0
        assert "Traceback" not in err and "BrokenPipeError" not in err
