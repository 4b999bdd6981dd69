"""Structural diffing of two verification runs (Fig.-5-style replay).

The paper's headline evidence is a *comparison*: static vs. dynamic
backward rewriting on the same optimized multiplier (Fig. 5), and
pre- vs. post-optimization run times (Tables 1-2).  This module takes
two recorded runs — trace JSONL files (folded by
:func:`repro.obs.view.fold_events`), run-history store rows, or
``--json`` records — as :class:`~repro.obs.view.RunView` s, and reports

* per-phase wall-clock deltas,
* the per-commit ``SP_i`` size trajectories, their peaks and the peak
  gap (the Fig. 5 number),
* the first *substitution-order divergence*: the first committed step
  where the two runs substituted different components,
* backtrack / threshold-doubling deltas.

``repro obs diff a.jsonl b.jsonl`` (or ``run:ID`` refs against a store)
renders the report with an overlaid ASCII Fig.-5 plot.
"""

from __future__ import annotations

from repro.bench.render import render_table, render_trace_plot
from repro.obs.view import RunView


def view_from_store(store, run_id, label=None):
    """The :class:`RunView` of one run-history store row."""
    run = store.run(run_id)
    if run is None:
        raise ValueError(f"run {run_id} is not in the store")
    return RunView(
        label=label or (f"run:{run_id} {run['design']} "
                        f"{run['optimization']} {run['method']}"),
        status=run.get("status"), seconds=run.get("seconds"),
        phases=dict(run.get("phases") or {}),
        commits=store.commits(run_id),
        backtracks=run.get("backtracks") or 0,
        threshold_doublings=run.get("threshold_doublings") or 0,
        meta=dict(run.get("meta") or {}))


def view_from_record(record, label=None):
    """The :class:`RunView` of a ``result_record`` dict (bench /
    ``verify --json``)."""
    stats = record.get("stats", {}) or {}
    commits = record.get("commits") or [
        {"step": i + 1, "component": None, "kind": None, "size": size,
         "threshold": None}
        for i, size in enumerate(record.get("sizes") or ())]
    return RunView(
        label=label or record.get("input") or record.get("method", "run"),
        status=record.get("status"), seconds=record.get("seconds"),
        phases=dict(record.get("phases") or {}), commits=list(commits),
        backtracks=stats.get("backtracks") or 0,
        threshold_doublings=stats.get("threshold_doublings") or 0,
        meta={key: stats[key] for key in ("nodes", "width_a", "width_b")
              if key in stats})


def first_divergence(commits_a, commits_b):
    """First committed step at which the substitution orders differ.

    Compares the component id sequence; returns a dict with the
    0-based ``step`` index and both sides' commit records, or None when
    one order is a prefix of the other and lengths match.  When only
    the lengths differ, the divergence is at the end of the shorter
    trace (the longer one kept substituting).
    """
    for index, (a, b) in enumerate(zip(commits_a, commits_b)):
        if a.get("component") != b.get("component"):
            return {"step": index, "a": dict(a), "b": dict(b)}
    if len(commits_a) != len(commits_b):
        index = min(len(commits_a), len(commits_b))
        longer = commits_a if len(commits_a) > len(commits_b) else commits_b
        side = "a" if len(commits_a) > len(commits_b) else "b"
        return {"step": index, "a": None, "b": None,
                side: dict(longer[index])}
    return None


def diff_views(a, b):
    """Structural diff of two :class:`RunView` s (see module docstring)."""
    phases = []
    for path in sorted(set(a.phases) | set(b.phases)):
        sec_a = a.phases.get(path)
        sec_b = b.phases.get(path)
        delta = (sec_b - sec_a) if (sec_a is not None and sec_b is not None) \
            else None
        ratio = (sec_b / sec_a if sec_a else None) \
            if (sec_a is not None and sec_b is not None) else None
        phases.append({"phase": path, "a": sec_a, "b": sec_b,
                       "delta": delta, "ratio": ratio})
    phases.sort(key=lambda p: -(abs(p["delta"]) if p["delta"] is not None
                                else 0.0))
    sizes_a, sizes_b = a.sizes, b.sizes
    peak_a = max(sizes_a, default=0)
    peak_b = max(sizes_b, default=0)
    return {
        "labels": (a.label, b.label),
        "status": (a.status, b.status),
        "seconds": {"a": a.seconds, "b": b.seconds,
                    "delta": (b.seconds - a.seconds
                              if a.seconds is not None
                              and b.seconds is not None else None)},
        "phases": phases,
        "peak": {"a": peak_a, "b": peak_b, "gap": peak_b - peak_a,
                 "ratio": (peak_b / peak_a) if peak_a else None},
        "steps": {"a": len(sizes_a), "b": len(sizes_b)},
        "divergence": first_divergence(a.commits, b.commits),
        "backtracks": {"a": a.backtracks, "b": b.backtracks,
                       "delta": b.backtracks - a.backtracks},
        "threshold_doublings": {
            "a": a.threshold_doublings, "b": b.threshold_doublings,
            "delta": b.threshold_doublings - a.threshold_doublings},
        "sizes": {"a": sizes_a, "b": sizes_b},
    }


def _fmt_opt(value, spec=".4f"):
    return "-" if value is None else format(value, spec)


def render_diff(diff, plot=True, plot_width=72, plot_height=14):
    """Human-readable diff report (the ``repro obs diff`` output)."""
    label_a, label_b = diff["labels"]
    lines = [f"# A: {label_a}", f"# B: {label_b}",
             f"# status: A={diff['status'][0]} B={diff['status'][1]}"]
    if plot and (diff["sizes"]["a"] or diff["sizes"]["b"]):
        lines.append("")
        lines.append(render_trace_plot(
            {f"A {label_a}"[:28]: diff["sizes"]["a"],
             f"B {label_b}"[:28]: diff["sizes"]["b"]},
            width=plot_width, height=plot_height,
            title="SP_i size per committed step (Fig. 5 overlay)"))
    peak = diff["peak"]
    divergence = diff["divergence"]
    if divergence is None:
        divergence_cell = "none (identical substitution order)"
    else:
        a = divergence.get("a")
        b = divergence.get("b")
        parts = [f"step {divergence['step'] + 1}"]
        if a and b:
            parts.append(f"A->comp {a['component']} ({a['kind']}), "
                         f"B->comp {b['component']} ({b['kind']})")
        elif a or b:
            side, commit = ("A", a) if a else ("B", b)
            parts.append(f"{side} continued with comp "
                         f"{commit['component']} ({commit['kind']})")
        divergence_cell = ", ".join(parts)
    lines.append("")
    lines.append(render_table(
        ["metric", "A", "B", "delta"],
        [["seconds", _fmt_opt(diff["seconds"]["a"], ".2f"),
          _fmt_opt(diff["seconds"]["b"], ".2f"),
          _fmt_opt(diff["seconds"]["delta"], "+.2f")],
         ["committed steps", diff["steps"]["a"], diff["steps"]["b"],
          diff["steps"]["b"] - diff["steps"]["a"]],
         ["peak SP_i size", peak["a"], peak["b"], f"{peak['gap']:+d}"],
         ["peak ratio (B/A)", "", "",
          _fmt_opt(peak["ratio"], ".2f")],
         ["backtracks", diff["backtracks"]["a"], diff["backtracks"]["b"],
          f"{diff['backtracks']['delta']:+d}"],
         ["threshold doublings", diff["threshold_doublings"]["a"],
          diff["threshold_doublings"]["b"],
          f"{diff['threshold_doublings']['delta']:+d}"]],
        title="Run comparison"))
    lines.append("")
    lines.append(f"first substitution-order divergence: {divergence_cell}")
    gated = [p for p in diff["phases"] if p["delta"] is not None]
    if gated:
        lines.append("")
        lines.append(render_table(
            ["phase", "A(s)", "B(s)", "delta(s)", "ratio"],
            [[p["phase"], _fmt_opt(p["a"]), _fmt_opt(p["b"]),
              _fmt_opt(p["delta"], "+.4f"), _fmt_opt(p["ratio"], ".2f")]
             for p in gated],
            title="Per-phase wall clock"))
    return "\n".join(lines)
