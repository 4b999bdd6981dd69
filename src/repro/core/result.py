"""Verification results, structured rewriting traces and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceStep:
    """One committed backward-rewriting substitution.

    ``threshold`` is the Algorithm 2 growth threshold in force when the
    substitution was accepted; ``None`` for static-order runs and for
    no-op retirements of components whose outputs no longer occur.
    """

    step: int
    component: int
    kind: str
    size: int
    threshold: float = None

    def as_dict(self):
        record = {"step": self.step, "component": self.component,
                  "kind": self.kind, "size": self.size}
        if self.threshold is not None:
            record["threshold"] = self.threshold
        return record


class Trace:
    """Sequence of :class:`TraceStep` records for one rewriting run.

    Iterating yields the structured records; :meth:`sizes` gives the
    flat ``SP_i``-size curve that the Fig. 5 plots and benchmarks
    consume (the shape of the old ``list[int]`` trace).
    """

    __slots__ = ("_steps",)

    def __init__(self, steps=()):
        self._steps = list(steps)

    def append(self, step):
        self._steps.append(step)

    def extend(self, steps):
        self._steps.extend(steps)

    def __len__(self):
        return len(self._steps)

    def __bool__(self):
        return bool(self._steps)

    def __iter__(self):
        return iter(self._steps)

    def __getitem__(self, index):
        return self._steps[index]

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self._steps == other._steps
        return NotImplemented

    def __repr__(self):
        return f"Trace({len(self._steps)} steps)"

    def sizes(self):
        """``SP_i`` size after every committed step (Fig. 5 y-values)."""
        return [record.size for record in self._steps]

    def as_dicts(self):
        """JSON-ready list of step records."""
        return [record.as_dict() for record in self._steps]


@dataclass
class VerificationResult:
    """Outcome of one verification run.

    ``status`` is one of

    * ``"correct"`` — the remainder is zero (Algorithm 1 returns TRUE);
    * ``"buggy"`` — the remainder is non-zero; ``counterexample`` (when
      requested) maps input variables to bits witnessing the bug;
    * ``"timeout"`` — the monomial or wall-clock budget tripped, the
      reproduction's analogue of the paper's 24 h TO entries;
    * ``"invalid"`` — the design failed pre-flight lint and was never
      verified (benchmark harness only; ``stats["diagnostics"]`` holds
      the findings).
    """

    status: str
    method: str
    remainder: object = None
    counterexample: dict = None
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)
    trace: Trace = field(default_factory=Trace)

    @property
    def ok(self):
        return self.status == "correct"

    @property
    def timed_out(self):
        return self.status == "timeout"

    def sizes(self):
        """The recorded ``SP_i``-size curve (empty without a trace)."""
        if hasattr(self.trace, "sizes"):
            return self.trace.sizes()
        return list(self.trace)

    def summary(self):
        """One-line human-readable summary for logs and examples."""
        core = f"{self.method}: {self.status} in {self.seconds:.2f}s"
        if self.stats:
            keys = ["nodes", "components", "atomic_blocks",
                    "vanishing_removed", "max_poly_size", "steps"]
            if self.timed_out:
                # a timeout line must say *which* budget tripped and how
                # far the run got before it did
                keys += ["budget_kind", "threshold"]
            extras = []
            for key in keys:
                if key in self.stats:
                    extras.append(f"{key}={self.stats[key]}")
            if extras:
                core += " (" + ", ".join(extras) + ")"
        return core


def result_record(result, recorder=None):
    """JSON-serializable record of one verification run.

    When ``recorder`` is an enabled :class:`repro.obs.Recorder`, its
    per-phase wall-clock totals and counters are folded in — this is
    what the ``--json`` flags of the bench mains write out.
    """
    record = {
        "method": result.method,
        "status": result.status,
        "seconds": round(result.seconds, 6),
        "stats": dict(result.stats),
        "sizes": result.sizes(),
    }
    # certificates are in-memory verification artifacts, not JSON data
    record["stats"].pop("certificate", None)
    if result.trace and hasattr(result.trace, "as_dicts"):
        # per-commit trajectory (component/kind/size/threshold) so
        # `repro obs diff` works without a full trace file
        record["commits"] = result.trace.as_dicts()
    if recorder is not None and recorder.enabled:
        summary = recorder.summary()
        record["phases"] = summary["phases"]
        record["counters"] = summary["counters"]
    return record
