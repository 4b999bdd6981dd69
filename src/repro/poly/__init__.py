"""Polynomial algebra for Symbolic Computer Algebra verification."""

from repro.poly.monomial import (
    CONST_MONOMIAL,
    format_monomial,
    monomial,
    monomial_contains,
    monomial_degree,
    monomial_divide_by_var,
    monomial_from_iterable,
    monomial_key,
    monomial_mul,
    monomial_vars,
)
from repro.poly.arena import PolyArena
from repro.poly.polynomial import Polynomial
from repro.poly.parse import VariablePool, parse_polynomial
from repro.poly.ring import (
    EXACT,
    CoefficientRing,
    ExactIntRing,
    ModularRing,
)

__all__ = [
    "CONST_MONOMIAL", "Polynomial", "PolyArena",
    "VariablePool", "parse_polynomial",
    "monomial", "monomial_from_iterable", "monomial_mul", "monomial_degree",
    "monomial_contains", "monomial_divide_by_var", "monomial_key",
    "monomial_vars", "format_monomial",
    "CoefficientRing", "ExactIntRing", "ModularRing", "EXACT",
]
