"""Tests for repro.obs.diff: run normalization and structural diffing."""

from repro.core import verify_multiplier
from repro.genmul import generate_multiplier
from repro.obs import Recorder, RunStore
from repro.obs.diff import (
    diff_views,
    first_divergence,
    render_diff,
    view_from_record,
    view_from_store,
)
from repro.obs.view import RunView, fold_events


def _commits(components, sizes):
    return [{"step": i + 1, "component": comp, "kind": "FA", "size": size,
             "threshold": None}
            for i, (comp, size) in enumerate(zip(components, sizes))]


def _view(label, components, sizes, seconds=1.0, backtracks=0):
    return RunView(label=label, status="correct", seconds=seconds,
                   phases={"rewrite": seconds * 0.8},
                   commits=_commits(components, sizes),
                   backtracks=backtracks)


class TestFirstDivergence:
    def test_identical_orders(self):
        commits = _commits([0, 1, 2], [3, 4, 5])
        assert first_divergence(commits, commits) is None

    def test_divergence_at_step(self):
        a = _commits([0, 1, 2], [3, 4, 5])
        b = _commits([0, 2, 1], [3, 9, 5])
        divergence = first_divergence(a, b)
        assert divergence["step"] == 1
        assert divergence["a"]["component"] == 1
        assert divergence["b"]["component"] == 2

    def test_prefix_length_mismatch(self):
        a = _commits([0, 1], [3, 4])
        b = _commits([0, 1, 2], [3, 4, 5])
        divergence = first_divergence(a, b)
        assert divergence["step"] == 2
        assert divergence["a"] is None
        assert divergence["b"]["component"] == 2


class TestDiffViews:
    def test_peak_gap_and_ratio(self):
        a = _view("dynamic", [0, 1, 2], [3, 5, 2])
        b = _view("static", [0, 2, 1], [3, 50, 2])
        diff = diff_views(a, b)
        assert diff["peak"] == {"a": 5, "b": 50, "gap": 45, "ratio": 10.0}
        assert diff["divergence"]["step"] == 1
        assert diff["steps"] == {"a": 3, "b": 3}

    def test_phase_deltas_sorted_by_magnitude(self):
        a = _view("a", [0], [3], seconds=1.0)
        b = _view("b", [0], [3], seconds=3.0)
        b.phases["spec"] = 0.01
        diff = diff_views(a, b)
        assert diff["phases"][0]["phase"] == "rewrite"
        assert diff["phases"][0]["delta"] > 0
        # a phase present on only one side is reported without a delta
        spec = [p for p in diff["phases"] if p["phase"] == "spec"][0]
        assert spec["delta"] is None

    def test_render_contains_headline_numbers(self):
        a = _view("dynamic", [0, 1], [3, 5], backtracks=2)
        b = _view("static", [1, 0], [3, 50])
        text = render_diff(diff_views(a, b))
        assert "first substitution-order divergence: step 1" in text
        assert "peak SP_i size" in text
        assert "Fig. 5 overlay" in text
        assert "backtracks" in text

    def test_render_without_plot(self):
        a = _view("a", [0], [3])
        b = _view("b", [0], [3])
        text = render_diff(diff_views(a, b), plot=False)
        assert "Fig. 5 overlay" not in text
        assert "none (identical substitution order)" in text


class TestViewSources:
    def test_views_agree_across_sources(self, tmp_path):
        """Events, store rows and result_record dicts must normalize to
        the same trajectory."""
        from repro.core.result import result_record

        aig = generate_multiplier("SP-AR-RC", 4)
        recorder = Recorder()
        result = verify_multiplier(aig, record_trace=True,
                                   recorder=recorder)
        from_events = fold_events(recorder.events, label="events")
        record = result_record(result, recorder)
        from_record = view_from_record(record, label="record")
        with RunStore() as store:
            run_id = store.ingest_events(recorder.events, design="m4")
            from_store = view_from_store(store, run_id, label="store")
        # one view type whatever the source, so diff_views takes one input
        for view in (from_events, from_record, from_store):
            assert isinstance(view, RunView)
        assert (from_events.sizes == from_record.sizes
                == from_store.sizes == result.sizes())
        orders = [[c["component"] for c in view.commits]
                  for view in (from_events, from_record, from_store)]
        assert orders[0] == orders[1] == orders[2]
        # self-diff: no divergence, zero peak gap
        diff = diff_views(from_events, from_store)
        assert diff["divergence"] is None
        assert diff["peak"]["gap"] == 0

    def test_static_vs_dynamic_diff(self):
        """The acceptance scenario: static vs dynamic order on the same
        multiplier reports a divergence point and the peak gap."""
        aig = generate_multiplier("SP-WT-CL", 8)
        views = {}
        # the static order blows up on this design; a budget stops it
        # early while still leaving a trajectory that diverges
        budgets = {"dyposub": {}, "static": {"monomial_budget": 20000}}
        for method in ("dyposub", "static"):
            recorder = Recorder()
            verify_multiplier(aig, method=method, record_trace=True,
                              recorder=recorder, **budgets[method])
            views[method] = fold_events(recorder.events, label=method)
        diff = diff_views(views["dyposub"], views["static"])
        assert diff["peak"]["a"] > 0 and diff["peak"]["b"] > 0
        # the orders genuinely differ on this design, so the diff must
        # locate a first divergence and render it
        assert diff["divergence"] is not None
        text = render_diff(diff)
        assert "first substitution-order divergence: step" in text

    def test_view_from_store_unknown_run(self):
        import pytest

        with RunStore() as store:
            with pytest.raises(ValueError):
                view_from_store(store, 42)
