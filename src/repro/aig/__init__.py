"""And-Inverter Graph substrate.

The AIG is the common representation shared by the multiplier generators
(:mod:`repro.genmul`), the optimization passes (:mod:`repro.opt`) and the
SCA verifier (:mod:`repro.core`).
"""

from repro.aig.aig import (
    Aig,
    FALSE,
    TRUE,
    lit,
    lit_var,
    lit_neg,
    lit_is_negated,
    lit_regular,
)
from repro.aig.ops import (
    cleanup,
    copy_aig,
    cone_vars,
    fanout_map,
    mffc,
    reachable_vars,
    check_acyclic,
    structural_signature,
    transitive_fanin_support,
)
from repro.aig.simulate import (
    simulate,
    simulate_words,
    evaluate_single,
    functionally_equal,
    exhaustive_equal,
    exhaustive_truth_tables,
    outputs_as_int,
)
from repro.aig.cuts import cut_functions, enumerate_cuts, nontrivial_cuts
from repro.aig.truth import cone_truth_table
from repro.aig.aiger import read_aag, write_aag

__all__ = [
    "Aig", "FALSE", "TRUE",
    "lit", "lit_var", "lit_neg", "lit_is_negated", "lit_regular",
    "cleanup", "copy_aig", "cone_vars", "fanout_map", "mffc",
    "reachable_vars", "check_acyclic", "structural_signature",
    "transitive_fanin_support",
    "simulate", "simulate_words", "evaluate_single", "functionally_equal",
    "exhaustive_equal", "exhaustive_truth_tables", "outputs_as_int",
    "cut_functions", "enumerate_cuts", "nontrivial_cuts", "cone_truth_table",
    "read_aag", "write_aag",
]
