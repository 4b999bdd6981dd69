"""Top-level SCA verification — Algorithm 1 of the paper.

``verify_multiplier`` is the historical entry point, kept as a thin
compatibility shim: it packs its arguments into a frozen
:class:`~repro.core.pipeline.VerifyConfig` and runs the staged
:class:`~repro.core.pipeline.Pipeline` (``preflight → spec → atomic →
vanishing → components → implications → rewrite → decide``).  All
behaviour — stage spans, events, stats, timeout semantics — lives in
:mod:`repro.core.pipeline`; baselines, the bench harness and the batch
CLI keep calling this function unchanged.

``ring`` selects the coefficient ring of the rewrite stage, ``"exact"``
or ``"modular"``; see the pipeline module for the modular run's
soundness argument.
"""

from __future__ import annotations

from repro.core.pipeline import (DEFAULT_MONOMIAL_BUDGET, Pipeline,
                                 VerifyConfig)

__all__ = ["DEFAULT_MONOMIAL_BUDGET", "verify_multiplier"]


def verify_multiplier(aig, *args, recorder=None, **options):
    """Formally verify a multiplier AIG; returns a
    :class:`~repro.core.result.VerificationResult`.

    The positional and keyword arguments after ``aig`` are exactly those
    of :class:`~repro.core.pipeline.VerifyConfig` (``width_a``,
    ``width_b``, ``method``, ``ring``, ``monomial_budget``, ...), which
    documents and validates every option; an invalid option raises
    :class:`~repro.errors.ConfigError` before any pipeline work.
    ``recorder`` is an optional :class:`repro.obs.Recorder` that times
    every stage as a span and receives the rewriting engine's events.

    Never raises on timeout — budget exhaustion is reported as
    ``status="timeout"``.
    """
    return Pipeline(VerifyConfig(*args, **options)).run(aig, recorder=recorder)
