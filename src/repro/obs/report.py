"""Run reports reconstructed from recorded event streams.

``python -m repro report run.jsonl`` replays the JSONL trace written by
``python -m repro verify --trace-out run.jsonl`` and rebuilds, without
re-running the verification:

* the paper's Fig.-5-style curve — ``SP_i`` size at every committed
  rewriting step (from the ``step`` events);
* the backtracking summary — restore-from-snapshot rejections and
  threshold doublings of Algorithm 2 (from ``backtrack`` /
  ``threshold`` events);
* the per-phase wall-clock breakdown (from the ``span`` events);
* the resource table and the sampling-profiler hotspots, when
  recorded.

The report renders a :class:`~repro.obs.view.RunView`, the one fold of
the event stream (:func:`repro.obs.view.fold_events`).
"""

from __future__ import annotations


def render_phase_table(phases, total=None):
    """ASCII table of per-phase wall-clock time."""
    from repro.bench.render import render_table

    if not phases:
        return "(no span events recorded)"
    if total is None:
        # top-level spans (no dot in the path) partition the run
        total = sum(dur for path, dur in phases.items() if "." not in path)
    rows = []
    for path, dur in sorted(phases.items(), key=lambda kv: -kv[1]):
        share = f"{100.0 * dur / total:.1f}%" if total else "-"
        rows.append([path, f"{dur:.4f}", share])
    return render_table(["phase", "seconds", "share"], rows)


def render_report(view, plot_width=72, plot_height=14, hotspots=False):
    """Human-readable run report (the ``repro report`` output).

    ``hotspots`` appends the sampling-profiler hotspot table when the
    trace carries a ``profile`` event (``verify --profile-sample``).
    """
    from repro.bench.render import render_table, render_trace_plot

    lines = []
    if view.meta:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(view.meta.items()))
        lines.append(f"# run: {pairs}")
    if view.status is not None:
        timing = (f" in {view.seconds:.2f}s" if view.seconds is not None
                  else "")
        lines.append(f"# outcome: {view.status}{timing}")
    sizes = view.sizes
    if sizes:
        lines.append("")
        lines.append(render_trace_plot(
            {"SP_i": sizes}, width=plot_width, height=plot_height,
            title="SP_i size per committed rewriting step (Fig. 5)"))
        lines.append(f"peak SP_i size: {max(sizes)} monomials "
                     f"over {len(sizes)} steps")
    else:
        lines.append("(no step events: run recorded without rewriting "
                     "instrumentation)")
    dynamics = [["substitution attempts", view.attempts],
                ["committed steps", len(view.commits)],
                ["backtracks (snapshot restores)", view.backtracks],
                ["threshold doublings", view.threshold_doublings],
                ["final threshold",
                 view.thresholds[-1] if view.thresholds else "-"]]
    if view.stalls:
        dynamics.append(["stalls flagged (watchdog)", view.stalls])
    if view.anomalies_recorded:
        dynamics.append(["commit anomalies flagged",
                         view.anomalies_recorded])
    if view.retries:
        dynamics.append(["abandoned runs (threshold fallback)",
                         view.retries])
    lines.append("")
    lines.append(render_table(["metric", "value"], dynamics,
                              title="Backward-rewriting dynamics"))
    if view.opt_passes:
        rows = [[p.get("script", "?"), p.get("pass", "?"),
                 p.get("before", "-"), p.get("after", "-"),
                 p.get("after", 0) - p.get("before", 0)]
                for p in view.opt_passes]
        lines.append("")
        lines.append(render_table(
            ["script", "pass", "nodes before", "nodes after", "delta"],
            rows, title="Optimization passes"))
    if view.phases:
        lines.append("")
        lines.append("Per-phase wall clock")
        lines.append("--------------------")
        lines.append(render_phase_table(view.phases))
    if view.stage_map:
        stage_map = view.stage_map
        regions = stage_map.get("regions") or {}
        region_text = ", ".join(f"{name}={count}"
                                for name, count in sorted(regions.items()))
        lines.append("")
        lines.append(
            f"Stage map: {stage_map.get('architecture', '?')} "
            f"(AND vars per region: {region_text}) — run `repro explain` "
            "on this trace for the full cost attribution")
    if view.phase_resources or view.resources_summary:
        from repro.obs.resources import render_resource_table

        lines.append("")
        lines.append(render_resource_table(view.phase_resources,
                                           view.resources_summary))
    if hotspots:
        from repro.obs.resources import render_hotspot_table

        lines.append("")
        lines.append("Sampling profiler\n-----------------")
        lines.append(render_hotspot_table(view.profile) if view.profile
                     else "(trace has no profile event; record one with "
                          "`verify --profile-sample --trace-out ...`)")
    return "\n".join(lines)


def report_from_file(path, plot_width=72, plot_height=14, hotspots=False):
    """Read a JSONL trace and render the full report."""
    from repro.obs.recorder import read_events
    from repro.obs.view import fold_events

    return render_report(fold_events(read_events(path)),
                         plot_width=plot_width, plot_height=plot_height,
                         hotspots=hotspots)
