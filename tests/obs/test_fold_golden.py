"""Golden snapshot of every consumer of a recorded event stream.

A committed trace under ``fixtures/`` feeds ``repro report`` (with and
without hotspots), ``repro explain --json`` (from the trace and from
the store) and the run-history store rows written by
``RunStore.ingest_trace_file``.  Their outputs are recorded
in ``fixtures/fold_golden.json``; any change to how the stream is
folded shows up here as a byte difference.

* ``single.jsonl`` — ``repro verify SP-DT-LF-4.aag --resources
  --profile-sample --profile-interval 0.001 --explain --trace-out ...``
  on a generated 4x4 Dadda multiplier.  ``--profile-interval`` and
  ``--explain`` have since been removed; the trace keeps the
  ``attribution`` event ``--explain`` wrote, which no reader folds, so
  an event kind the fold does not know is skipped.

It starts with the trace-format header a ``JsonlSink`` writes.

Regenerate (only after an intended behaviour change) with::

    PYTHONPATH=src python tests/obs/test_fold_golden.py --update
"""

import contextlib
import io
import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).with_name("fixtures")
GOLDEN = FIXTURES / "fold_golden.json"
TRACES = ("single",)


def _cli(*argv):
    """Run the CLI in-process; returns ``[exit code, stdout]``."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return [code, out.getvalue()]


def _store_rows(store, run_id):
    run = store.run(run_id)
    for volatile in ("created_at", "git_rev"):
        run.pop(volatile)
    return {"run": run, "commits": store.commits(run_id),
            "attribution": store.attribution(run_id),
            "resources": store.resources(run_id)}


def snapshot(tmp_dir):
    """Every consumer's output over the committed traces."""
    from repro.obs.report import report_from_file
    from repro.obs.store import RunStore

    golden = {"report": {}, "report_hotspots": {}, "explain": {},
              "explain_store": {}, "store": {}}
    with contextlib.chdir(FIXTURES):
        for name in TRACES:
            trace = f"{name}.jsonl"
            golden["report"][name] = report_from_file(trace)
            golden["report_hotspots"][name] = report_from_file(
                trace, hotspots=True)
            db = str(Path(tmp_dir) / f"{name}.db")
            with RunStore(db) as store:
                run_ids, _ = store.ingest_trace_file(trace, source=name)
                if not isinstance(run_ids, list):
                    run_ids = [run_ids]
                golden["store"][name] = [_store_rows(store, run_id)
                                         for run_id in run_ids]
            golden["explain"][name] = _cli("explain", trace, "--json", "-")
            golden["explain_store"][name] = _cli(
                "explain", f"run:{run_ids[0]}", "--db", db, "--json", "-")
    return golden


def test_fold_consumers_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = json.loads(json.dumps(snapshot(tmp_path)))
    for section in golden:
        assert current[section] == golden[section], section
    assert set(current) == set(golden)


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = snapshot(tmp)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
