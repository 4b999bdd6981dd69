"""Dynamic backward rewriting — Algorithm 2, the paper's contribution.

At every step the eligible candidates are sorted by the number of
occurrences of their outputs in ``SP_i`` (ascending: substituting a
variable occurring ``k`` times by a ``k``-monomial polynomial can add
``k*(k-1)`` monomials, Example 6).  A substitution is accepted only when
it grows ``SP_i`` by less than a threshold ``τ`` (initially
:data:`INITIAL_THRESHOLD`); otherwise ``SP_i`` is restored from the
snapshot and the next candidate is tried (Example 7).  When every
candidate fails, the threshold doubles and the scan restarts — so the
algorithm always terminates with a full rewrite.

Every attempt is bounded: it pauses once its partial size passes
``SLACK * (1 + τ) * |SP_i|`` and counts as a rejection at that ``τ``,
so a candidate that would blow ``SP_i`` up is never built in full just
to be thrown away.  A paused attempt is resumed where it stopped, never
restarted, once a doubled threshold lifts the bound to its partial
size.  Pausing is a heuristic — a partial result can still shrink
through cancellation — which the slack leaves room for.
"""

from __future__ import annotations

import math

from repro.core.rewriting import AttemptTooLarge
from repro.errors import BudgetExceeded, VerificationError

# An attempt pauses once its partial size passes SLACK times the size
# the threshold would accept.
SLACK = 2

#: Algorithm 2's initial growth threshold ``τ``, measured on this
#: reproduction's Table I blow-up designs (EXPERIMENTS.md, "Growth
#: threshold"): it rejects fewer attempts than the paper's 10%.
INITIAL_THRESHOLD = 0.5
#: The paper's ``τ`` (Algorithm 2, line 8); the pipeline falls back to
#: it when a run from a larger threshold exhausts the monomial budget.
PAPER_THRESHOLD = 0.1


def dynamic_backward_rewriting(engine, initial_threshold=INITIAL_THRESHOLD,
                               threshold_factor=2.0):
    """Run Algorithm 2 on a prepared :class:`RewritingEngine`.

    Returns the remainder polynomial.  Raises
    :class:`~repro.errors.BudgetExceeded` when the engine's monomial or
    time budget trips — the stand-in for the paper's 24 h time-out.
    """
    if not 0 < initial_threshold < math.inf:
        raise VerificationError("threshold must be finite and positive")
    while not engine.finished():
        if not engine.candidates():
            raise VerificationError("component DAG has a dependency cycle")
        engine.last_threshold = initial_threshold
        occurrences = engine.occurrence_counts()
        # Candidates whose outputs no longer occur in SP_i substitute as
        # no-ops; retire them immediately instead of paying for attempts.
        silent = [idx for idx, count in occurrences.items() if count == 0]
        if silent:
            for idx in silent:
                engine.commit(idx, engine.sp)
            continue
        order = sorted(occurrences, key=lambda idx: (occurrences[idx], idx))
        index, new_sp, threshold = _choose(engine, order, initial_threshold,
                                           threshold_factor)
        engine.commit(index, new_sp, threshold=threshold)
    return engine.remainder()


def _choose(engine, order, threshold, threshold_factor):
    """Algorithm 2's scan for one step: the first candidate in ``order``
    whose substitution grows ``SP_i`` by less than the threshold,
    doubling the threshold after every fully rejected scan.  Returns
    ``(index, new_sp, threshold)``."""
    old_size = max(len(engine.sp), 1)
    # One step's attempts, kept across threshold doublings: SP_i is
    # fixed within the step, so a finished attempt is reused and a
    # paused one resumes where it stopped.  Attempts still paused when
    # the step ends are closed, which records them.
    attempts = {}
    j = 0
    try:
        while True:
            engine.check_time()
            index = order[j]
            attempt = attempts.get(index)
            if attempt is None:
                attempt = attempts[index] = engine.start(index)
            try:
                new_sp = attempt.advance(SLACK * (1 + threshold) * old_size)
            except AttemptTooLarge:
                new_sp = None
            if new_sp is not None:
                growth = (len(new_sp) - old_size) / old_size
                if growth < threshold:
                    return index, new_sp, threshold
                engine.note_backtrack(index, growth=round(growth, 4),
                                      threshold=threshold)
            else:
                engine.note_backtrack(index, threshold=threshold)
            # restore SP_i (immutable arenas make this free) and try
            # the next candidate; double the threshold after a full scan
            j += 1
            if j < len(order):
                continue
            j = 0
            threshold *= threshold_factor
            engine.note_threshold(threshold)
            if (engine.monomial_budget is not None
                    and threshold > engine.monomial_budget):
                # Once the threshold allows any growth up to the budget,
                # accept the least-occurrence viable candidate, finishing
                # it if it is paused; the commit enforces the budget.
                for idx in order:
                    try:
                        return idx, attempts[idx].advance(None), threshold
                    except AttemptTooLarge:
                        pass
            if all(attempt.too_large for attempt in attempts.values()):
                raise BudgetExceeded(
                    "every substitution attempt exceeded the hard "
                    "monomial cap", kind="monomials",
                    steps_done=engine.steps, max_size=engine.max_size)
    finally:
        for attempt in attempts.values():
            attempt.close()
