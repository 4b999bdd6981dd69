"""Static analysis: design lint, pipeline invariants, diagnostics.

The correctness-tooling layer of the pipeline.  Three parts:

* :mod:`repro.analysis.diagnostics` — a compiler-style diagnostics core:
  stable error codes (``RA0xx`` structural, ``RP0xx`` pipeline),
  severities, node/wire/line locations, text rendering and JSON /
  SARIF-style export;
* :mod:`repro.analysis.lint` — static analyzers over AIGs and gate
  netlists plus a cheap random-simulation probe that flags "this is not
  an n x n multiplier" before any polynomial work starts;
* :mod:`repro.analysis.invariants` — cross-phase invariant checkers run
  inside the verifier behind ``--check-invariants``;
* :mod:`repro.analysis.structure` — static architecture recognition
  (PPG/PPA/FSA segmentation + family classification) and blow-up
  prediction, surfaced as ``repro analyze`` and a traced run's
  ``stage_map`` event.

``repro lint <design>`` and ``repro analyze <design>`` are the CLI
entry points; ``repro verify`` and the benchmark harness run the
structural subset as a pre-flight so broken designs are reported and
skipped instead of crashing deep inside spec construction or backward
rewriting.  The re-exports resolve on first use (:mod:`repro._lazy`),
so the pre-flight does not load the architecture recognizer.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.diagnostics": ("CODES", "Diagnostic", "DiagnosticReport",
                                   "Severity", "report_from_error"),
    "repro.analysis.lint": ("lint_aig", "lint_netlist", "lint_design",
                            "preflight", "probe_multiplier"),
    "repro.analysis.invariants": ("InvariantMonitor",
                                  "check_component_coverage",
                                  "check_vanishing_rules"),
    "repro.analysis.structure": ("ArchitectureReport", "StageGuess",
                                 "analyze_aig"),
})
