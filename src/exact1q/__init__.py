"""exact1q: single-query decidability toolkit for promise Boolean functions.

Decide whether a promise Boolean function can be answered with one exact
quantum query, reduce it to canonical form, extract the degree-1
polynomial behind a positive answer, enumerate the functions a given
weighted algorithm computes, classify all small reduced cases, and
replay every positive answer on a state-vector simulator.
"""

from .core import (
    MAX_ARITY,
    AssignmentMask,
    PartialBooleanFn,
    diff_set,
    from_strings,
    hamming_weight,
    is_symmetric,
    mask_to_string,
    permute_bits,
    sign_vector,
    string_to_mask,
)
from .classify import (
    ClassificationRecord,
    TableReport,
    enumerate_reduced,
    maximal_feasible,
    nontrivial_catalog,
    reproduce_tables,
)
from .construct import GroupedWeightProfile, construct, dj_family, level_solutions, profile
from .feasibility import (
    FarkasWitness,
    FeasibilityResult,
    WeightVector,
    decide,
    decide_reduced,
    decide_with_fixed_zeros,
    verify_decision,
    verify_result,
)
from .poly import Degree1Polynomial, InputClasses, function_of, polynomial, represent
from .reduction import ReducedFn, reduce, reduce_subset
from .simulate import SimulationReport, apply_oracle, prepare, success_probabilities

__version__ = "0.1.0"

__all__ = [
    "MAX_ARITY",
    "AssignmentMask",
    "PartialBooleanFn",
    "ReducedFn",
    "ClassificationRecord",
    "TableReport",
    "GroupedWeightProfile",
    "Degree1Polynomial",
    "InputClasses",
    "FarkasWitness",
    "FeasibilityResult",
    "WeightVector",
    "SimulationReport",
    "decide",
    "decide_reduced",
    "decide_with_fixed_zeros",
    "verify_decision",
    "verify_result",
    "diff_set",
    "from_strings",
    "hamming_weight",
    "is_symmetric",
    "mask_to_string",
    "string_to_mask",
    "permute_bits",
    "sign_vector",
    "reduce",
    "reduce_subset",
    "represent",
    "polynomial",
    "function_of",
    "construct",
    "profile",
    "level_solutions",
    "dj_family",
    "enumerate_reduced",
    "maximal_feasible",
    "nontrivial_catalog",
    "reproduce_tables",
    "prepare",
    "apply_oracle",
    "success_probabilities",
]
