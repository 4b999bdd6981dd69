"""Dynamic backward rewriting — Algorithm 2, the paper's contribution.

At every step the eligible candidates are sorted by the number of
occurrences of their outputs in ``SP_i`` (ascending: substituting a
variable occurring ``k`` times by a ``k``-monomial polynomial can add
``k*(k-1)`` monomials, Example 6).  A substitution is accepted only when
it grows ``SP_i`` by less than a threshold (initially 10%); otherwise
``SP_i`` is restored from the snapshot and the next candidate is tried
(Example 7).  When every candidate fails, the threshold doubles and the
scan restarts — so the algorithm always terminates with a full rewrite.
"""

from __future__ import annotations

from repro.core.rewriting import AttemptTooLarge
from repro.errors import BudgetExceeded, VerificationError

_TOO_LARGE = object()


def dynamic_backward_rewriting(engine, initial_threshold=0.1,
                               threshold_factor=2.0):
    """Run Algorithm 2 on a prepared :class:`RewritingEngine`.

    Returns the remainder polynomial.  Raises
    :class:`~repro.errors.BudgetExceeded` when the engine's monomial or
    time budget trips — the stand-in for the paper's 24 h time-out.
    """
    if initial_threshold <= 0:
        raise VerificationError("threshold must be positive")
    engine.last_threshold = initial_threshold
    while not engine.finished():
        if not engine.candidates():
            raise VerificationError("component DAG has a dependency cycle")
        occurrences = engine.occurrence_counts()
        # Candidates whose outputs no longer occur in SP_i substitute as
        # no-ops; retire them immediately instead of paying for attempts.
        silent = [idx for idx, count in occurrences.items() if count == 0]
        if silent:
            for idx in silent:
                engine.commit(idx, engine.sp)
            continue
        sorted_candidates = sorted(
            occurrences, key=lambda idx: (occurrences[idx], idx))
        sp_old = engine.sp
        old_size = max(len(sp_old), 1)
        threshold = initial_threshold
        j = 0
        # Substitution attempts are deterministic for a fixed SP_i, so
        # re-scans after a threshold doubling reuse cached results
        # instead of recomputing the substitution.
        attempts = {}
        while True:
            engine.check_time()
            index = sorted_candidates[j]
            cached = attempts.get(index)
            if cached is None:
                try:
                    cached = engine.attempt(index)
                except AttemptTooLarge:
                    cached = _TOO_LARGE
                attempts[index] = cached
            if cached is not _TOO_LARGE:
                growth = (len(cached) - old_size) / old_size
                if growth < threshold:
                    engine.commit(index, cached, threshold=threshold)
                    break
                engine.note_backtrack(index, growth=round(growth, 4),
                                      threshold=threshold)
            else:
                engine.note_backtrack(index, threshold=threshold)
            # restore SP_i (immutable arenas make this free) and try
            # the next candidate; double the threshold after a full scan
            j += 1
            if j >= len(sorted_candidates):
                j = 0
                threshold *= threshold_factor
                engine.note_threshold(threshold)
                finite = [idx for idx in sorted_candidates
                          if attempts.get(idx) is not _TOO_LARGE]
                if not finite:
                    raise BudgetExceeded(
                        "every substitution attempt exceeded the hard "
                        "monomial cap", kind="monomials",
                        steps_done=engine.steps, max_size=engine.max_size)
                if (engine.monomial_budget is not None
                        and threshold > engine.monomial_budget):
                    # Once the threshold allows any growth up to the
                    # budget, accept the least-occurrence viable
                    # candidate; the commit enforces the budget itself.
                    engine.commit(finite[0], attempts[finite[0]],
                                  threshold=threshold)
                    break
    return engine.remainder()
