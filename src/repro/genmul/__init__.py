"""Multiplier generators — the reproduction's GenMul / AMG equivalent."""

from repro.genmul.multiplier import (
    MultiplierSpec,
    generate_multiplier,
    multiply_reference,
)
from repro.genmul.names import (
    FSA_CODES,
    PPA_CODES,
    PPG_CODES,
    all_architectures,
    describe_architecture,
    format_architecture,
    parse_architecture,
)
from repro.genmul.faults import FAULT_KINDS, inject_fault, inject_visible_fault

__all__ = [
    "MultiplierSpec", "generate_multiplier", "multiply_reference",
    "parse_architecture", "format_architecture", "describe_architecture",
    "all_architectures", "PPG_CODES", "PPA_CODES", "FSA_CODES",
    "inject_fault", "inject_visible_fault", "FAULT_KINDS",
]
