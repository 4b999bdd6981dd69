"""Regression trends over the run-history store.

For every (design, optimization, method) series in a
:class:`~repro.obs.store.RunStore` and every gateable metric — total
seconds, per-phase wall-clock, peak ``SP_i`` size, and free-form
metrics such as the cost-attribution slices — the newest
value is compared against an *EWMA baseline* of the older history:

``baseline = ewma(history[:-1], alpha)``, newest first weighted, so a
slow drift moves the baseline while a sudden jump stands out.  A
verdict is machine-readable (one dict per series x metric):

* ``ok`` / ``regression`` / ``improved`` — gated comparison
  (``ratio = current / baseline`` against ``1 ± tolerance``);
* ``no-history`` — fewer than ``min_history + 1`` points;
* ``noise-floor`` — time-valued metrics whose baseline *seconds* sit
  under ``floor`` (timer/allocator noise, reported but not gated).
  Attribution wall-time slices (``metric:attr:*:seconds``) borrow the
  floor decision from ``phase:rewrite``, the phase they are fractions
  of.

``repro obs trends --check`` fails on any ``regression`` verdict, so a
store of past runs gates the newest run against its own history.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.render import render_table


@dataclass(frozen=True)
class TrendConfig:
    """Knobs of the trend detector.

    ``tolerance`` is the allowed relative regression (0.25 = +25%);
    ``alpha`` the EWMA smoothing weight of newer history points;
    ``floor`` the seconds below which time metrics are noise;
    ``min_history`` the baseline points required before gating.
    """

    tolerance: float = 0.25
    alpha: float = 0.3
    floor: float = 0.005
    min_history: int = 1


def ewma(values, alpha=0.3):
    """Exponentially weighted moving average, oldest to newest."""
    values = list(values)
    if not values:
        return None
    acc = float(values[0])
    for value in values[1:]:
        acc = alpha * float(value) + (1.0 - alpha) * acc
    return acc


def _is_time_metric(metric):
    return metric == "seconds" or metric.startswith("phase:")


def _floor_baseline(store, design, optimization, method, metric, config):
    """The *seconds* baseline used for the noise-floor decision, or
    None when the metric has no time twin."""
    if _is_time_metric(metric):
        history = [v for _, v in store.history(design, optimization,
                                               method, metric)]
        return ewma(history[:-1], config.alpha)
    if metric.startswith("metric:attr:") and metric.endswith(":seconds"):
        # attribution wall-time slices are fractions of the rewrite
        # phase; borrow its history as the noise-floor twin so a
        # microsecond jitter in a sub-floor run never gates, falling
        # back to the metric's own history for stores without spans
        history = [v for _, v in store.history(design, optimization,
                                               method, "phase:rewrite")]
        if not history:
            history = [v for _, v in store.history(design, optimization,
                                                   method, metric)]
        if history:
            return ewma(history[:-1] or history, config.alpha)
    return None


def trend_for(store, design, optimization, method, metric, config=None):
    """One verdict dict for one series x metric (see module docstring)."""
    config = config or TrendConfig()
    history = store.history(design, optimization, method, metric)
    verdict = {
        "design": design,
        "optimization": optimization,
        "method": method,
        "metric": metric,
        "points": len(history),
        "baseline": None,
        "current": None,
        "ratio": None,
        "verdict": "no-history",
    }
    if len(history) < config.min_history + 1:
        return verdict
    values = [value for _, value in history]
    baseline = ewma(values[:-1], config.alpha)
    current = values[-1]
    verdict["baseline"] = round(baseline, 6)
    verdict["current"] = round(float(current), 6)
    verdict["run_id"] = history[-1][0]
    floor_seconds = _floor_baseline(store, design, optimization, method,
                                    metric, config)
    if floor_seconds is not None and floor_seconds < config.floor:
        verdict["verdict"] = "noise-floor"
        return verdict
    if baseline <= 0:
        verdict["verdict"] = "ok" if current <= 0 else "regression"
        verdict["ratio"] = None if current <= 0 else float("inf")
        return verdict
    ratio = float(current) / baseline
    verdict["ratio"] = round(ratio, 4)
    if ratio > 1.0 + config.tolerance:
        verdict["verdict"] = "regression"
    elif ratio < 1.0 / (1.0 + config.tolerance):
        verdict["verdict"] = "improved"
    else:
        verdict["verdict"] = "ok"
    return verdict


def detect_trends(store, config=None, metrics=None):
    """All verdicts across the store, one per series x metric.

    ``metrics`` restricts the metric set; by default every metric the
    series has data for is examined (run columns, ``phase:*``,
    ``metric:*``).
    """
    config = config or TrendConfig()
    verdicts = []
    for design, optimization, method in store.series():
        names = (list(metrics) if metrics is not None
                 else store.metric_names(design, optimization, method))
        for metric in names:
            verdict = trend_for(store, design, optimization, method,
                                metric, config)
            if metrics is None and verdict["points"] == 0:
                continue
            verdicts.append(verdict)
    return verdicts


def regressions(verdicts):
    """The subset of verdicts that must fail a gate."""
    return [v for v in verdicts if v["verdict"] == "regression"]


def render_trends(verdicts, title="Run-history trends"):
    """ASCII verdict table (the ``repro obs trends`` output)."""
    if not verdicts:
        return "(no series with history in the store)"
    rows = []
    for v in sorted(verdicts, key=lambda v: (v["verdict"] != "regression",
                                             v["design"], v["optimization"],
                                             v["method"], v["metric"])):
        rows.append([
            v["design"], v["optimization"], v["method"], v["metric"],
            "-" if v["baseline"] is None else f"{v['baseline']:.4g}",
            "-" if v["current"] is None else f"{v['current']:.4g}",
            "-" if v["ratio"] is None else f"{v['ratio']:.3f}",
            v["points"],
            v["verdict"].upper() if v["verdict"] == "regression"
            else v["verdict"],
        ])
    return render_table(
        ["design", "opt", "method", "metric", "baseline", "current",
         "ratio", "n", "verdict"], rows, title=title)
