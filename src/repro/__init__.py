"""DyPoSub reproduction: SCA verification of optimized and industrial
integer multipliers (Mahzoon, Große, Scholl, Drechsler — DATE 2020).

Quickstart::

    from repro import generate_multiplier, verify_multiplier
    aig = generate_multiplier("SP-DT-LF", 8)
    result = verify_multiplier(aig)
    assert result.ok

The package is organized as

* :mod:`repro.aig` — And-Inverter Graph substrate,
* :mod:`repro.poly` — multilinear polynomial algebra,
* :mod:`repro.genmul` — multiplier generators (GenMul/AMG equivalent),
* :mod:`repro.opt` — logic optimization and technology mapping (abc
  equivalent),
* :mod:`repro.gates` — gate-level netlists over a ≤3-input cell library,
* :mod:`repro.core` — the paper's contribution: reverse engineering,
  vanishing-monomial removal and dynamic backward rewriting,
* :mod:`repro.analysis` — static design lint, pipeline invariant
  checking and the diagnostics framework (``repro lint``),
* :mod:`repro.baselines` — prior-art static SCA verifiers,
* :mod:`repro.industrial` — DesignWare/EPFL-like benchmark synthesis,
* :mod:`repro.bench` — the Table I / Table II / Fig. 5 harness.

The re-exports below resolve on first use (:mod:`repro._lazy`), so
``import repro.cli`` loads only what a command runs.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_names, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.aig": ("Aig", "read_aag", "write_aag"),
    "repro.poly": ("Polynomial",),
    "repro.genmul": ("MultiplierSpec", "generate_multiplier",
                     "multiply_reference", "inject_visible_fault"),
    "repro.opt": ("optimize", "resyn3", "dc2", "techmap"),
    "repro.core": ("verify_multiplier", "VerificationResult"),
    "repro.analysis": ("lint_design", "preflight", "DiagnosticReport"),
})
__all__ = [*_names, "__version__"]
