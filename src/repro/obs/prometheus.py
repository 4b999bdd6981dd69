"""Prometheus text exposition of the run-history store.

``repro serve`` answers ``GET /metrics`` with :func:`render_prometheus`
over its store, followed by the service's own queue and cache gauges,
so an external scraper tracks the latest run of every series.
"""

from __future__ import annotations


def _prom_escape(value):
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _labels(design, optimization, method, **extra):
    pairs = [("design", design), ("optimization", optimization),
             ("method", method)] + sorted(extra.items())
    body = ",".join(f'{key}="{_prom_escape(value)}"'
                    for key, value in pairs)
    return "{" + body + "}"


def render_prometheus(store):
    """Prometheus text-format snapshot: the latest run of every series.

    Gauges: ``repro_run_seconds``, ``repro_run_steps``,
    ``repro_run_max_poly_size``, ``repro_run_backtracks``,
    ``repro_phase_seconds{phase=...}``,
    ``repro_attr_growth{stage=...}`` /
    ``repro_attr_seconds{stage=...}`` (cost attribution per stage
    region); plus the ``repro_runs_total`` counter over the whole
    store.
    """
    lines = [
        "# HELP repro_runs_total Verification runs recorded in the store.",
        "# TYPE repro_runs_total counter",
        f"repro_runs_total {len(store)}",
    ]
    gauges = (("repro_run_seconds", "seconds",
               "Wall-clock seconds of the latest run."),
              ("repro_run_steps", "steps",
               "Committed rewriting steps of the latest run."),
              ("repro_run_max_poly_size", "max_poly_size",
               "Peak SP_i size (monomials) of the latest run."),
              ("repro_run_backtracks", "backtracks",
               "Algorithm 2 backtracks of the latest run."))
    samples = {name: [] for name, _, _ in gauges}
    phase_samples = []
    rss_samples = []
    attr_samples = []
    for design, optimization, method in store.series():
        latest = store.latest(design, optimization, method)
        if latest is None:
            continue
        labels = _labels(design, optimization, method)
        for name, column, _help in gauges:
            value = latest.get(column)
            if value is not None:
                samples[name].append(f"{name}{labels} {value}")
        for path, seconds in sorted((latest.get("phases") or {}).items()):
            phase_labels = _labels(design, optimization, method, phase=path)
            phase_samples.append(
                f"repro_phase_seconds{phase_labels} {seconds}")
        resources = latest.get("resources") or {}
        rss_values = [data.get("rss_peak_kb") for data in resources.values()
                      if data.get("rss_peak_kb") is not None]
        if rss_values:
            rss_samples.append(
                f"repro_run_peak_rss_kb{labels} {max(rss_values)}")
        by_stage = {}
        for cell in latest.get("attribution") or ():
            slot = by_stage.setdefault(cell["stage"], [0.0, 0])
            slot[0] += cell.get("seconds") or 0.0
            slot[1] += cell.get("growth") or 0
        for stage, (seconds, growth) in sorted(by_stage.items()):
            stage_labels = _labels(design, optimization, method,
                                   stage=stage)
            attr_samples.append(
                f"repro_attr_seconds{stage_labels} {round(seconds, 6)}")
            attr_samples.append(
                f"repro_attr_growth{stage_labels} {growth}")
    for name, _column, help_text in gauges:
        if samples[name]:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.extend(samples[name])
    if phase_samples:
        lines.append("# HELP repro_phase_seconds Per-phase wall-clock "
                     "seconds of the latest run.")
        lines.append("# TYPE repro_phase_seconds gauge")
        lines.extend(phase_samples)
    if rss_samples:
        lines.append("# HELP repro_run_peak_rss_kb Peak resident-set "
                     "size (KiB) of the latest run.")
        lines.append("# TYPE repro_run_peak_rss_kb gauge")
        lines.extend(rss_samples)
    if attr_samples:
        lines.append("# HELP repro_attr_seconds Attributed rewrite "
                     "wall-time per stage region (latest run).")
        lines.append("# TYPE repro_attr_seconds gauge")
        lines.extend(s for s in attr_samples
                     if s.startswith("repro_attr_seconds"))
        lines.append("# HELP repro_attr_growth Attributed SP_i growth "
                     "(monomials) per stage region (latest run).")
        lines.append("# TYPE repro_attr_growth gauge")
        lines.extend(s for s in attr_samples
                     if s.startswith("repro_attr_growth"))
    return "\n".join(lines) + "\n"
