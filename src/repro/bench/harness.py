"""Benchmark harness: configuration, AIG caching and method dispatch.

Scaling knobs (environment variables):

``REPRO_BENCH_SCALE``
    ``small`` (default, laptop-friendly: 4/8-bit, pure Python finishes
    in minutes), ``medium`` (8/16-bit) or ``large`` (16/32-bit; hours).
``REPRO_BENCH_BUDGET``
    Monomial budget standing in for the paper's 24 h time-out
    (default depends on scale).
``REPRO_BENCH_TIME``
    Per-case wall-clock budget in seconds.

Generated (and optimized) AIGs are cached as AIGER files under
``.bench_cache`` so repeated benchmark runs skip the expensive
optimization scripts.
"""

from __future__ import annotations

import os
import pathlib

from repro.aig.aiger import read_aag, write_aag
from repro.aig.ops import cleanup
from repro.baselines import BASELINES
from repro.core.result import VerificationResult
from repro.core.verifier import verify_multiplier
from repro.errors import ConfigError, DesignLintError
from repro.genmul.multiplier import generate_multiplier
from repro.opt.scripts import optimize

_SCALES = {
    "small": {"sizes": (4, 8), "booth_sizes": (4,), "budget": 50_000,
              "time": 60.0, "industrial_sizes": (4, 5), "epfl_size": 6,
              "fig5_size": 8},
    "medium": {"sizes": (8, 16), "booth_sizes": (4, 6), "budget": 150_000,
               "time": 240.0, "industrial_sizes": (4, 5, 6),
               "epfl_size": 8, "fig5_size": 16},
    "large": {"sizes": (16, 32), "booth_sizes": (8,), "budget": 1_000_000,
              "time": 1800.0, "industrial_sizes": (4, 5, 6, 8),
              "epfl_size": 12, "fig5_size": 16},
}


def bench_config():
    """Resolve the benchmark configuration from the environment."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale not in _SCALES:
        raise ConfigError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}",
            scale=scale)
    config = dict(_SCALES[scale])
    config["scale"] = scale
    if "REPRO_BENCH_BUDGET" in os.environ:
        config["budget"] = int(os.environ["REPRO_BENCH_BUDGET"])
    if "REPRO_BENCH_TIME" in os.environ:
        config["time"] = float(os.environ["REPRO_BENCH_TIME"])
    return config


def cache_dir():
    path = pathlib.Path(os.environ.get("REPRO_BENCH_CACHE", ".bench_cache"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached_aig(key, builder):
    """Fetch an AIG from the cache, building and storing it on a miss.

    The store is a temp-file + atomic rename, so concurrent processes
    racing on the same key never observe a partially written AIGER
    file.
    """
    path = cache_dir() / f"{key}.aag"
    if path.exists():
        return read_aag(str(path))
    aig = cleanup(builder())
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="ascii") as handle:
        handle.write(write_aag(aig))
    os.replace(tmp, path)
    return aig


def benchmark_multiplier(architecture, width, optimization="none"):
    """Generate (and optionally optimize) a Table I benchmark, cached."""
    key = f"{architecture}_{width}x{width}_{optimization}"
    return cached_aig(
        key, lambda: optimize(generate_multiplier(architecture, width),
                              optimization))


# Method table: DyPoSub, its static-order twin, and the prior-art
# baselines (paper reference tags in comments).
def _dyposub(aig, **kw):
    return verify_multiplier(aig, method="dyposub", **kw)


def _static(aig, **kw):
    return verify_multiplier(aig, method="static", **kw)


def _dyposub_modular(aig, **kw):
    # one rewrite run mod a prime above the design's CRT bound
    return verify_multiplier(aig, method="dyposub", ring="modular", **kw)


METHODS = {
    "dyposub": _dyposub,            # this paper
    "dyposub-modular": _dyposub_modular,  # + mod-p coefficient ring
    "revsca-static": BASELINES["revsca-static"],          # [13]
    "polycleaner-static": BASELINES["polycleaner-static"],  # [10]
    "naive-static": BASELINES["naive-static"],            # [5]/[11]
    "columnwise-static": BASELINES["columnwise-static"],  # [8]/[16]
}


def run_method(method, aig, budget, time_budget, recorder=None, **kwargs):
    """Run one verification method with budgets; returns the result.

    A design that fails the verifier's pre-flight lint is reported as
    ``status="invalid"`` (with the diagnostics in ``stats``) instead of
    crashing the benchmark sweep — one broken case must not take down a
    whole table run.
    """
    fn = METHODS[method]
    try:
        return fn(aig, monomial_budget=budget, time_budget=time_budget,
                  recorder=recorder, **kwargs)
    except DesignLintError as exc:
        return VerificationResult(
            status="invalid", method=method,
            stats={"diagnostics": exc.report.as_dicts()
                   if exc.report is not None else [],
                   "error": str(exc)})


def ingest_payload(payload, db):
    """Fold a bench ``--json`` payload into the run-history store at
    ``db``; returns the new run ids.  Delegates to the shared
    persistence API (:mod:`repro.service.persistence`) so the bench
    mains, the CLI and the verification service all write the same
    history that ``repro explain`` and ``repro obs diff`` read."""
    from repro.service.persistence import ingest_payload as _ingest

    return _ingest(payload, db)


def runtime_cell(result):
    """Format a run-time table cell the way the paper does (TO on
    budget exhaustion)."""
    if result.timed_out:
        return "TO"
    if result.status == "invalid":
        return "INVALID"
    if result.status == "buggy":
        return f"BUG({result.seconds:.2f})"
    return f"{result.seconds:.2f}"
