"""The paper's contribution: SCA verification with dynamic backward
rewriting (DyPoSub).

The re-exports resolve on first use (:mod:`repro._lazy`)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.atomic": ("AtomicBlock", "detect_atomic_blocks", "ha_pairs"),
    "repro.core.components": ("Component", "atomic_block_component",
                              "cone_component"),
    "repro.core.cones": ("build_components",),
    "repro.core.counterexample": ("counterexample_for",
                                  "find_nonzero_assignment"),
    "repro.core.dynamic": ("dynamic_backward_rewriting",),
    "repro.core.gatepoly": ("cone_polynomial", "literal_polynomial",
                            "node_tail_polynomial"),
    "repro.core.result": ("VerificationResult", "Trace", "TraceStep"),
    "repro.core.rewriting": ("RewritingEngine",),
    "repro.core.spec": ("multiplier_specification",
                        "operand_word_polynomial", "output_word_polynomial"),
    "repro.core.vanishing": ("VanishingRuleSet", "rules_from_blocks"),
    "repro.core.verifier": ("verify_multiplier",),
    "repro.core.pipeline": ("Pipeline", "VerifyConfig"),
})
