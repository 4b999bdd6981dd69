"""Tests for repro.obs.prometheus: a golden exposition test and the
format rules scrapers rely on, over a seeded in-memory run store."""

import re

from repro.obs import RunStore
from repro.obs.prometheus import render_prometheus


def _seeded_store():
    """Deterministic in-memory store: two runs of one series (only the
    latest is exported), with phases, commits and resources."""
    store = RunStore()
    store.add_run(
        "SP-AR-RC 4", method="paper", status="correct", seconds=0.100,
        steps=6, max_poly_size=9, backtracks=0, threshold_doublings=0,
        phases={"model": 0.02, "rewrite": 0.07, "rewrite.reduce": 0.05},
        commits=[9, 7, 5, 4, 3, 1], git_rev="abc1234", created_at=100.0)
    store.add_run(
        "SP-AR-RC 4", method="paper", status="correct", seconds=0.120,
        steps=6, max_poly_size=9, backtracks=0, threshold_doublings=0,
        phases={"model": 0.03, "rewrite": 0.08, "rewrite.reduce": 0.06},
        commits=[9, 7, 5, 4, 3, 1],
        resources={"rewrite": {"rss_peak_kb": 51000,
                               "tracemalloc_kb": 120.5,
                               "tracemalloc_peak_kb": 300.0,
                               "gc_collections": 2},
                   "model": {"rss_peak_kb": 48000,
                             "tracemalloc_kb": 40.0,
                             "tracemalloc_peak_kb": 90.0,
                             "gc_collections": 1}},
        git_rev="abc1234", created_at=200.0)
    return store


class TestPrometheusExposition:
    def test_golden_exposition_snapshot(self):
        """The exact text-format export of the seeded store.  This is
        the wire format external scrapers parse — any change to it must
        be deliberate and show up in this diff."""
        with _seeded_store() as store:
            text = render_prometheus(store)
        labels = ('{design="SP-AR-RC 4",optimization="none",'
                  'method="paper"}')
        phase = lambda p: ('{design="SP-AR-RC 4",optimization="none",'  # noqa: E731
                           f'method="paper",phase="{p}"}}')
        expected = "\n".join([
            "# HELP repro_runs_total Verification runs recorded in the "
            "store.",
            "# TYPE repro_runs_total counter",
            "repro_runs_total 2",
            "# HELP repro_run_seconds Wall-clock seconds of the latest "
            "run.",
            "# TYPE repro_run_seconds gauge",
            f"repro_run_seconds{labels} 0.12",
            "# HELP repro_run_steps Committed rewriting steps of the "
            "latest run.",
            "# TYPE repro_run_steps gauge",
            f"repro_run_steps{labels} 6",
            "# HELP repro_run_max_poly_size Peak SP_i size (monomials) "
            "of the latest run.",
            "# TYPE repro_run_max_poly_size gauge",
            f"repro_run_max_poly_size{labels} 9",
            "# HELP repro_run_backtracks Algorithm 2 backtracks of the "
            "latest run.",
            "# TYPE repro_run_backtracks gauge",
            f"repro_run_backtracks{labels} 0",
            "# HELP repro_phase_seconds Per-phase wall-clock seconds of "
            "the latest run.",
            "# TYPE repro_phase_seconds gauge",
            f"repro_phase_seconds{phase('model')} 0.03",
            f"repro_phase_seconds{phase('rewrite')} 0.08",
            f"repro_phase_seconds{phase('rewrite.reduce')} 0.06",
            "# HELP repro_run_peak_rss_kb Peak resident-set size (KiB) "
            "of the latest run.",
            "# TYPE repro_run_peak_rss_kb gauge",
            f"repro_run_peak_rss_kb{labels} 51000.0",
        ]) + "\n"
        assert text == expected

    def test_exposition_format_invariants(self):
        """Structural rules every Prometheus scraper relies on: HELP
        and TYPE precede their samples, sample lines parse, and no
        metric name appears with two different TYPEs."""
        with _seeded_store() as store:
            text = render_prometheus(store)
        assert text.endswith("\n")
        typed = {}
        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$")
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert typed.setdefault(name, kind) == kind
                continue
            if line.startswith("#"):
                continue
            assert sample_re.match(line), line
            name = line.split("{", 1)[0].split(" ", 1)[0]
            assert name in typed, f"sample before TYPE: {line}"

    def test_label_values_are_escaped(self):
        with RunStore() as store:
            store.add_run('weird "design"\n', method="paper",
                          seconds=1.0, status="correct")
            text = render_prometheus(store)
        assert r'design="weird \"design\"\n"' in text

