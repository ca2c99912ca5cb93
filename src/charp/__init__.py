"""Cyclic degree-p algebras over function fields of characteristic p:
exact arithmetic, local invariants, certified descent, length bounds."""

from .ffield import FiniteField
from .poly import Poly, PolyRing, RatFunc, factor_univariate
from .towers import (Elem, FieldTower, StepError, make_step, min_poly, norm,
                     solve_norm)
from .symbols import BrauerExpr, Symbol, merge_same_a, normalize_symbol, reduce_expr
from .invariants import InvariantVector, Place, index_exponent
from .oracle import expr_invariants, is_split, realize
from .certify import Certificate, CertBuilder, verify_certificate
from .descent import (DescentError, InsepTower, SearchConfig, albert_decompose,
                      frobenius_push, insep_splitting_field, reduce_to_cyclic_step)
from .bounds import BoundReport, Scenario, bound
from .drivers import decompose
from .experiment import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "FiniteField", "Poly", "PolyRing", "RatFunc", "factor_univariate",
    "Elem", "FieldTower", "StepError", "make_step", "min_poly", "norm",
    "solve_norm", "BrauerExpr", "Symbol", "merge_same_a",
    "normalize_symbol", "reduce_expr", "InvariantVector", "Place",
    "index_exponent", "expr_invariants", "is_split", "realize", "Certificate",
    "CertBuilder", "verify_certificate", "DescentError", "InsepTower",
    "SearchConfig", "albert_decompose", "frobenius_push",
    "insep_splitting_field", "reduce_to_cyclic_step", "BoundReport",
    "Scenario", "bound", "decompose", "ExperimentConfig", "run_experiment",
]
