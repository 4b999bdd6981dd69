"""Dynamic cost attribution: commit / rule / stage-level forensics.

PR 8's static analyzer predicts *where* a design should blow up; this
module measures where a run's cost actually landed and closes the loop.
It reads the commit-level facts :func:`repro.obs.view.fold_events`
collects from one traced verification — ``rewrite_begin`` windows,
per-commit records, the pipeline's ``stage_map`` provenance, sampling-
profiler ``by_commit`` buckets, and ``resource_sample`` telemetry — and
attributes three costs:

* **wall-time**: the gap between consecutive ``step`` timestamps inside
  the rewrite window is the cost of constructing the upcoming commit
  (failed attempts and backtracks between commits included); the time
  after the final commit is the explicitly reported *unattributed tail*,
  never silently dropped;
* **SP_i growth**: the positive size delta of each commit, anchored at
  the ``rewrite_begin`` SP_0 size;
* **peak RSS**: ``resource_sample`` events binned into commit windows.

Each commit is labelled with its *rule* (substitution kind x
compact/expand, joined from the most recent ``attempt`` for the same
component) and its *stage region* (PPG/PPA/FSA via the ``stage_map``
component provenance), so a run renders as "78% of SP_i growth landed
in 12 commits inside the fsa region".

On top of attribution:

* :class:`CommitAnomalyDetector` — streaming commit-level outlier
  detection (EWMA baseline with a noise floor), optionally armed with a
  per-design peak baseline from the run-history store
  (:func:`design_baseline`); fires RP012/RP013 diagnostics
  through :class:`~repro.obs.live.LiveMonitor` and replays over every
  folded trace;
* a calibration layer — :func:`stage_cost_metrics` writes observed
  per-stage cost back into the store (``attr:*`` metrics + the
  ``attribution`` table) and :func:`calibration_from_store` reports
  predicted-risk vs observed-cost agreement over the stored runs, so
  the PR 8 Spearman check is continuously measured.

Entry point: ``repro explain <trace-or-run:ID>`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Attribution coverage bar: ``repro explain`` reports (and its CI
#: consumers gate on) at least this fraction of measured rewrite
#: wall-time and SP_i growth being assigned to a commit+rule+stage.
COVERAGE_TARGET = 0.95

#: Bucket label for commits whose component maps to no stage region
#: (e.g. traces recorded before the ``stage_map`` event existed).
UNKNOWN = "?"


# ----------------------------------------------------------------------
# Run attribution
# ----------------------------------------------------------------------

def rule_label(kind, compact):
    """Substitution-rule label: component kind x replacement flavor."""
    if kind is None:
        return UNKNOWN
    if compact is None:
        return str(kind)
    return f"{kind}/{'compact' if compact else 'expand'}"


def _rollup(rows):
    """Sum commit records (or stored cells) by stage, by rule and by
    (stage, rule) cell; a commit record counts as one commit."""
    by_stage, by_rule, cells = {}, {}, {}
    for row in rows:
        for table, key in ((by_stage, row["stage"]), (by_rule, row["rule"]),
                           (cells, (row["stage"], row["rule"]))):
            agg = table.setdefault(key, {"seconds": 0.0, "growth": 0,
                                         "commits": 0, "samples": 0})
            agg["seconds"] += row["seconds"] or 0.0
            agg["growth"] += row["growth"] or 0
            agg["commits"] += row.get("commits", 1) or 0
            agg["samples"] += row["samples"] or 0
    return by_stage, by_rule, cells


def _coverage(by_stage, by_rule, wall, growth):
    """Round the stage/rule aggregates, add their wall and growth
    shares, and return the ``wall``/``growth`` coverage sections.

    ``wall`` is ``(total, attributed, unattributed)`` seconds and
    ``growth`` is ``(total, attributed)`` monomials.
    """
    total_wall, known_wall, unknown_wall = wall
    total_growth, known_growth = growth
    for table in (by_stage, by_rule):
        for agg in table.values():
            agg["seconds"] = round(agg["seconds"], 6)
            agg["share_seconds"] = (round(agg["seconds"] / total_wall, 4)
                                    if total_wall else 0.0)
            agg["share_growth"] = (round(agg["growth"] / total_growth, 4)
                                   if total_growth else 0.0)
    return {
        "rewrite_seconds": round(total_wall, 6),
        "attributed_seconds": round(known_wall, 6),
        "unattributed_seconds": round(unknown_wall, 6),
        "attributed_fraction": (round(known_wall / total_wall, 4)
                                if total_wall else 1.0),
    }, {
        "total": total_growth,
        "attributed": known_growth,
        "unattributed": total_growth - known_growth,
        "attributed_fraction": (round(known_growth / total_growth, 4)
                                if total_growth else 1.0),
    }


def attribute_view(view):
    """Attribute one folded run (:func:`repro.obs.view.fold_events`).

    Spans every rewrite run the fold kept: each ``rewrite_begin``
    opened its own wall window.  Returns a JSON-ready dict; see
    :func:`render_attribution` for the human rendering.
    """
    stage_map = view.stage_map
    comp_stages = {int(idx): stage for idx, stage in
                   ((stage_map or {}).get("components") or {}).items()}
    commits = [{"run": c["run"], "step": c["step"], "comp": c["component"],
                "kind": c["kind"], "rule": c["rule"],
                "stage": comp_stages.get(c["component"]) or UNKNOWN,
                "seconds": c["seconds"], "growth": c["growth"],
                "size": c["size"], "samples": 0}
               for c in view.commits if c["run"]]
    windows = view.rewrite_windows
    total_wall = sum(end - start for start, end in windows)
    attributed_wall = sum(record["seconds"] for record in commits)
    tail = max(total_wall - attributed_wall, 0.0)

    # profiler samples: by_commit buckets are keyed by the upcoming
    # step; attach them to the final rewrite run (the decisive one)
    samples_unassigned = 0
    if view.profile is not None:
        buckets = {int(step): count for step, count in
                   (view.profile.get("commits") or {}).items()}
        final = {record["step"]: record for record in commits
                 if record["run"] == view.rewrite_runs}
        for step, count in buckets.items():
            if step in final:
                final[step]["samples"] += count
            else:
                samples_unassigned += count

    by_stage, by_rule, cells = _rollup(commits)
    known_wall = sum(record["seconds"] for record in commits
                     if record["stage"] != UNKNOWN)
    known_growth = sum(record["growth"] for record in commits
                       if record["stage"] != UNKNOWN)
    wall, growth = _coverage(
        by_stage, by_rule,
        (total_wall, known_wall, tail + (attributed_wall - known_wall)),
        (sum(record["growth"] for record in commits), known_growth))
    return {
        "source": "events",
        "meta": view.meta,
        "status": view.status,
        "seconds": view.seconds,
        "architecture": (stage_map or {}).get("architecture"),
        "risk": ({"factor": stage_map.get("risk_factor"),
                  "score": stage_map.get("risk_score")}
                 if stage_map else None),
        "regions": (stage_map or {}).get("regions"),
        "rewrite_runs": view.rewrite_runs,
        "sp0": view.sp0,
        "commits": commits,
        "by_stage": by_stage,
        "by_rule": by_rule,
        "cells": [{"stage": stage, "rule": rule, **agg}
                  for (stage, rule), agg in sorted(cells.items())],
        "wall": wall,
        "growth": growth,
        "samples_unassigned": samples_unassigned,
        "anomalies_recorded": view.anomalies_recorded,
        "rss": _attribute_rss(view.resource_samples, commits, windows),
        "anomalies": [diag.as_dict() for diag in view.anomalies],
    }


def _attribute_rss(samples, commits, windows):
    """Peak-RSS deltas binned into commit windows, rolled up by stage.

    Returns None when the run carried no ``resource_sample`` telemetry
    (``verify --resources`` off).
    """
    stamped = [(event.get("t"), event.get("rss_kb")) for event in samples
               if event.get("t") is not None
               and event.get("rss_kb") is not None]
    if not stamped or not windows:
        return None
    stamped.sort()
    start = min(w[0] for w in windows)
    end = max(w[1] for w in windows)
    inside = [(t, rss) for t, rss in stamped if start <= t <= end]
    before = [rss for t, rss in stamped if t < start]
    baseline = before[-1] if before else (inside[0][1] if inside
                                          else stamped[0][1])
    if not inside:
        return {"samples": 0, "baseline_kb": baseline, "peak_kb": baseline,
                "delta_kb": 0.0, "by_stage": {}}
    peak = max(rss for _, rss in inside)
    # commit wall windows reconstructed from the per-commit seconds
    # within each rewrite window; a sample belongs to the commit whose
    # window contains its timestamp (the commit being constructed)
    by_stage = {}
    per_run = {}
    for record in sorted(commits, key=lambda r: (r["run"], r["step"])):
        per_run.setdefault(record["run"], []).append(record)
    spans = []
    for run_index, run_commits in per_run.items():
        t = windows[run_index - 1][0]
        for record in run_commits:
            end_t = t + record["seconds"]
            spans.append((t, end_t, record["stage"]))
            t = end_t
    spans.sort()
    for t, rss in inside:
        stage = None
        for s, e, st in spans:
            if s <= t <= e:
                stage = st
                break
        key = stage or UNKNOWN
        slot = by_stage.setdefault(key, {"peak_kb": rss, "samples": 0})
        slot["peak_kb"] = max(slot["peak_kb"], rss)
        slot["samples"] += 1
    for slot in by_stage.values():
        slot["delta_kb"] = round(slot["peak_kb"] - baseline, 1)
    return {"samples": len(inside), "baseline_kb": baseline,
            "peak_kb": peak, "delta_kb": round(peak - baseline, 1),
            "by_stage": by_stage}


# ----------------------------------------------------------------------
# Streaming anomaly detection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AnomalyConfig:
    """Knobs of the commit-level outlier detector.

    ``tolerance`` is the ratio over the run-local EWMA that flags an
    RP012 outlier; ``alpha`` the weight of newer commits in the EWMA
    (as in :func:`ewma`); ``floor`` the SP_i size under which commits
    are never flagged (a noise floor, in monomials); ``min_history``
    the commits required before the EWMA gates; ``baseline_margin``
    the headroom over the per-design store baseline before RP013
    fires.
    """

    tolerance: float = 3.0
    alpha: float = 0.3
    floor: int = 64
    min_history: int = 3
    baseline_margin: float = 0.25


class CommitAnomalyDetector:
    """Streaming commit-size outlier detection for one verification.

    Two signals, both over an EWMA with a noise floor:

    * **RP012** — a commit whose SP_i size exceeds ``tolerance`` x the
      run-local EWMA of earlier commits (and the noise floor): a local
      blow-up outlier.  The EWMA then absorbs the new level, so a
      genuine regime change fires once instead of on every subsequent
      commit.
    * **RP013** — the run crossed the per-design peak baseline learned
      from the run-history store (see :func:`design_baseline`); fires
      at most once per rewrite run.

    Feed ``observe_step(fields)`` every ``step`` event and ``reset()``
    on every ``rewrite_begin``; :class:`~repro.obs.view.RunFold` does
    both for the detector it is given.
    """

    def __init__(self, config=None, baseline=None, design=None):
        self.config = config or AnomalyConfig()
        self.baseline = baseline
        self.design = design
        self.anomalies = []
        self._ewma = None
        self._seen = 0
        self._baseline_fired = False

    def reset(self):
        """New rewrite run (threshold-fallback re-run): run-local state
        over."""
        self._ewma = None
        self._seen = 0
        self._baseline_fired = False

    def observe_step(self, fields):
        """Observe one ``step`` event; returns newly fired diagnostics."""
        from repro.analysis.diagnostics import Diagnostic

        size = fields.get("size")
        if size is None:
            return []
        config = self.config
        fired = []
        if size >= config.floor:
            if (self._ewma is not None and self._seen >= config.min_history
                    and size > self._ewma * config.tolerance):
                ratio = size / self._ewma
                fired.append(Diagnostic(
                    code="RP012",
                    message=(f"commit {fields.get('i')}: SP_i jumped to "
                             f"{size} monomials, {ratio:.1f}x the EWMA "
                             f"baseline ({self._ewma:.0f})"),
                    context={"step": fields.get("i"), "size": size,
                             "baseline": round(self._ewma, 1),
                             "ratio": round(ratio, 2),
                             "comp": fields.get("comp"),
                             "kind": fields.get("kind")}))
            peak = (self.baseline or {}).get("peak")
            if (peak and not self._baseline_fired
                    and size > peak * (1.0 + config.baseline_margin)):
                self._baseline_fired = True
                ratio = size / peak
                fired.append(Diagnostic(
                    code="RP013",
                    message=(f"commit {fields.get('i')}: SP_i {size} "
                             f"exceeds the stored per-design peak "
                             f"baseline ({peak:.0f}, "
                             f"{(self.baseline or {}).get('runs', 0)} "
                             f"run(s)) by {ratio:.1f}x"),
                    context={"step": fields.get("i"), "size": size,
                             "baseline": round(peak, 1),
                             "ratio": round(ratio, 2),
                             "design": self.design}))
        self._ewma = (float(size) if self._ewma is None
                      else config.alpha * size
                      + (1.0 - config.alpha) * self._ewma)
        self._seen += 1
        self.anomalies.extend(fired)
        return fired


def ewma(values, alpha=0.3):
    """Exponentially weighted moving average, oldest to newest."""
    values = list(values)
    if not values:
        return None
    acc = float(values[0])
    for value in values[1:]:
        acc = alpha * float(value) + (1.0 - alpha) * acc
    return acc


def design_baseline(store, design, optimization="none", method="dyposub",
                    alpha=0.3):
    """Per-design peak baseline from the run-history store: the EWMA of
    the series' ``max_poly_size`` history.  None without history."""
    history = store.history(design, optimization, method, "max_poly_size")
    if not history:
        return None
    return {"peak": ewma([value for _, value in history], alpha),
            "runs": len(history)}


# ----------------------------------------------------------------------
# Store integration: persisted attribution + calibration
# ----------------------------------------------------------------------

def stage_cost_metrics(report):
    """Flatten one attribution report into store metrics rows.

    These are the ``attr:*`` metrics the calibration layer and the
    trend gate read back: per-stage/per-rule observed cost, the
    unattributed remainder, the SP_0 anchor, and the static risk
    prediction carried along so predicted-vs-observed agreement can be
    computed from the store alone.
    """
    metrics = {}
    for stage, agg in report["by_stage"].items():
        metrics[f"attr:stage:{stage}:seconds"] = agg["seconds"]
        metrics[f"attr:stage:{stage}:growth"] = agg["growth"]
    for rule, agg in report["by_rule"].items():
        metrics[f"attr:rule:{rule}:seconds"] = agg["seconds"]
        metrics[f"attr:rule:{rule}:growth"] = agg["growth"]
    metrics["attr:wall:rewrite:seconds"] = report["wall"]["rewrite_seconds"]
    metrics["attr:unattributed:seconds"] = (
        report["wall"]["unattributed_seconds"])
    metrics["attr:unattributed:growth"] = report["growth"]["unattributed"]
    if report.get("risk"):
        if report["risk"].get("factor") is not None:
            metrics["attr:risk:factor"] = report["risk"]["factor"]
        if report["risk"].get("score") is not None:
            metrics["attr:risk:score"] = report["risk"]["score"]
    return metrics


def attribute_store_run(store, run_id):
    """Rebuild an attribution report from the store's rows.

    Per-commit wall-time is not persisted (only the (stage, rule)
    aggregation is), so the commit list carries growth recomputed from
    the stored SP_i curve; aggregates and coverage come back exactly.
    Raises ``ValueError`` for unknown runs; a run ingested without
    attribution rows (a trace without step events) yields a report
    with everything in the unattributed bucket.
    """
    record = store.run(run_id)
    if record is None:
        raise ValueError(f"run:{run_id}: no such run in the store")
    cells = store.attribution(run_id)
    metrics = record.get("metrics", {})
    commits = store.commits(run_id)

    by_stage, by_rule, _ = _rollup(cells)
    total_wall = metrics.get("attr:wall:rewrite:seconds",
                             sum(agg["seconds"]
                                 for agg in by_stage.values()))
    known_wall = sum(agg["seconds"] for stage, agg in by_stage.items()
                     if stage != UNKNOWN)
    known_growth = sum(agg["growth"] for stage, agg in by_stage.items()
                       if stage != UNKNOWN)
    wall, growth = _coverage(
        by_stage, by_rule,
        (total_wall, known_wall, max(total_wall - known_wall, 0.0)),
        (sum(agg["growth"] for agg in by_stage.values()), known_growth))

    sp0 = metrics.get("attr:sp0:size")
    commit_rows = []
    prev = sp0
    for row in commits:
        commit_rows.append({"run": 1, "step": row["step"],
                            "comp": row["component"], "kind": row["kind"],
                            "rule": UNKNOWN, "stage": UNKNOWN,
                            "seconds": 0.0,
                            "growth": (max(row["size"] - prev, 0)
                                       if prev is not None else 0),
                            "size": row["size"], "samples": 0})
        prev = row["size"]

    risk = None
    if "attr:risk:factor" in metrics or "attr:risk:score" in metrics:
        risk = {"factor": metrics.get("attr:risk:factor"),
                "score": metrics.get("attr:risk:score")}
    meta = record.get("meta") or {}
    return {
        "source": "store",
        "run_id": run_id,
        "meta": meta,
        "design": record.get("design"),
        "optimization": record.get("optimization"),
        "method": record.get("method"),
        "status": record.get("status"),
        "seconds": record.get("seconds"),
        "architecture": meta.get("architecture"),
        "risk": risk,
        "regions": None,
        "rewrite_runs": 1 if commits else 0,
        "commits": commit_rows,
        "by_stage": by_stage,
        "by_rule": by_rule,
        "cells": cells,
        "wall": wall,
        "growth": growth,
        "samples_unassigned": 0,
        "anomalies_recorded": 0,
        "anomalies": [],
        "rss": None,
    }


def calibration_from_store(store, method="dyposub", optimization=None):
    """Predicted-risk vs observed-cost agreement over stored runs.

    The continuously-measured version of PR 8's one-off Spearman check:
    every series that ingested an ``attr:risk:score`` prediction is
    compared against its observed ``max_poly_size`` history (via
    :func:`repro.analysis.structure.risk_calibration`, same agreement
    shape), and the observed per-stage cost distribution rides along so
    the report can say which region actually dominated each design.
    """
    from repro.analysis.structure import risk_calibration

    entries = []
    for design, opt, meth in store.series():
        if meth != method:
            continue
        if optimization is not None and opt != optimization:
            continue
        history = store.history(design, opt, meth, "metric:attr:risk:score")
        if not history:
            continue
        entries.append((design, opt, history[-1][1]))

    calibration = risk_calibration(store, entries, method=method)
    stage_costs = {}
    for design, opt, _score in entries:
        latest = store.latest(design, opt, method)
        if latest is None:
            continue
        growth = {}
        for name, value in latest.get("metrics", {}).items():
            if name.startswith("attr:stage:") and name.endswith(":growth"):
                stage = name[len("attr:stage:"):-len(":growth")]
                growth[stage] = value
        total = sum(growth.values())
        stage_costs[f"{design}/{opt}"] = {
            "growth": growth,
            "shares": {stage: round(value / total, 4)
                       for stage, value in sorted(growth.items())}
            if total else {},
            "peak": latest.get("max_poly_size"),
            "risk_score": latest.get("metrics", {}).get("attr:risk:score"),
        }
    return {"method": method, "samples": len(entries),
            "risk_vs_peak": calibration, "stage_costs": stage_costs}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt_seconds(value):
    return f"{value:.4f}"


def render_attribution(report, top=10):
    """Human-readable attribution report (the ``repro explain`` output)."""
    from repro.bench.render import render_table

    lines = []
    head = []
    design = (report.get("design")
              or (report.get("meta") or {}).get("design"))
    if design:
        head.append(str(design))
    if report.get("architecture"):
        head.append(f"architecture {report['architecture']}")
    if report.get("risk") and report["risk"].get("factor") is not None:
        head.append(f"risk factor {report['risk']['factor']:.2f}")
    if report.get("status"):
        head.append(f"outcome {report['status']}")
    if head:
        lines.append("# " + ", ".join(head))

    growth = report["growth"]
    wall = report["wall"]
    by_stage = report["by_stage"]
    if by_stage and growth["total"]:
        dominant = max(by_stage.items(), key=lambda kv: kv[1]["growth"])
        stage, agg = dominant
        lines.append(
            f"{agg['share_growth']:.0%} of SP_i growth landed in "
            f"{agg['commits']} commit(s) inside the {stage} region "
            f"({agg['growth']} of {growth['total']} monomials)")
    lines.append(
        f"wall attribution: {wall['attributed_fraction']:.1%} of "
        f"{wall['rewrite_seconds']:.4f}s rewrite time assigned "
        f"({wall['unattributed_seconds']:.4f}s unattributed remainder); "
        f"growth attribution: {growth['attributed_fraction']:.1%} "
        f"({growth['unattributed']} monomial(s) unattributed)")

    if by_stage:
        rows = []
        for stage, agg in sorted(by_stage.items(),
                                 key=lambda kv: -kv[1]["growth"]):
            rows.append([stage, agg["commits"],
                         _fmt_seconds(agg["seconds"]),
                         f"{agg['share_seconds']:.1%}", agg["growth"],
                         f"{agg['share_growth']:.1%}", agg["samples"]])
        lines.append("")
        lines.append(render_table(
            ["stage", "commits", "seconds", "wall%", "growth", "growth%",
             "samples"], rows, title="Cost by stage region"))
    if report["by_rule"]:
        rows = []
        for rule, agg in sorted(report["by_rule"].items(),
                                key=lambda kv: -kv[1]["growth"]):
            rows.append([rule, agg["commits"],
                         _fmt_seconds(agg["seconds"]),
                         f"{agg['share_seconds']:.1%}", agg["growth"],
                         f"{agg['share_growth']:.1%}"])
        lines.append("")
        lines.append(render_table(
            ["rule", "commits", "seconds", "wall%", "growth", "growth%"],
            rows, title="Cost by substitution rule"))

    commits = report["commits"]
    if commits and top:
        costly = sorted(commits, key=lambda r: (-r["growth"],
                                                -r["seconds"]))[:top]
        rows = [[r["step"], r["comp"] if r["comp"] is not None else "-",
                 r["rule"], r["stage"], r["size"], r["growth"],
                 _fmt_seconds(r["seconds"]), r["samples"]]
                for r in costly]
        lines.append("")
        lines.append(render_table(
            ["step", "comp", "rule", "stage", "SP_i", "growth", "seconds",
             "samples"], rows,
            title=f"Top {len(costly)} commits by SP_i growth"))

    rss = report.get("rss")
    if rss and rss.get("by_stage"):
        rows = [[stage, slot["peak_kb"], slot["delta_kb"],
                 slot["samples"]]
                for stage, slot in sorted(rss["by_stage"].items())]
        lines.append("")
        lines.append(render_table(
            ["stage", "peak RSS kB", "delta kB", "samples"], rows,
            title=f"Peak RSS by stage (baseline {rss['baseline_kb']} kB)"))

    anomalies = report.get("anomalies") or []
    if anomalies:
        lines.append("")
        lines.append(f"Anomalies ({len(anomalies)}):")
        for diag in anomalies:
            lines.append(f"  {diag['code']} {diag['severity']}: "
                         f"{diag['message']}")
    elif report.get("anomalies_recorded"):
        lines.append("")
        lines.append(f"({report['anomalies_recorded']} anomaly event(s) "
                     "recorded in the trace)")
    return "\n".join(lines)


def render_calibration(calibration):
    """Human rendering of :func:`calibration_from_store`'s report."""
    from repro.bench.render import render_table

    lines = []
    risk = calibration["risk_vs_peak"]
    if risk.get("spearman") is None:
        lines.append(f"calibration: {risk['samples']} sample(s) — need at "
                     "least 2 series with stored risk + peak history")
        return "\n".join(lines)
    agreement = risk["agreement"]
    lines.append(
        f"calibration over {risk['samples']} stored series: Spearman "
        f"{risk['spearman']:+.3f}, top-{agreement['count']} agreement "
        f"{agreement['top']}/{agreement['count']}, bottom "
        f"{agreement['bottom']}/{agreement['count']}")
    rows = []
    for label, risk_score, peak in sorted(
            zip(risk["labels"], risk["risks"], risk["peaks"]),
            key=lambda item: -item[1]):
        cost = calibration["stage_costs"].get(label, {})
        shares = cost.get("shares") or {}
        dominant = (max(shares.items(), key=lambda kv: kv[1])
                    if shares else None)
        rows.append([label, f"{risk_score:.0f}", peak,
                     (f"{dominant[0]} {dominant[1]:.0%}"
                      if dominant else "-")])
    lines.append("")
    lines.append(render_table(
        ["series", "risk score", "observed peak", "dominant stage"],
        rows, title="Predicted risk vs observed cost"))
    return "\n".join(lines)

