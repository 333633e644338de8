"""Exact minimum independent [1,2]-dominating sets in grid graphs.

Small widths are solved by a min-plus transfer-matrix dynamic program over
admissible column words, wide grids by a repaired diagonal pattern; both are
cross-checked against brute-force oracles.
"""

from .errors import (
    ConstructionError,
    InvalidSetError,
    MalformedSetError,
    MalformedWordError,
    PeriodNotFoundError,
    ResourceCapError,
    UnsupportedGridError,
)
from .grids import GridSet, VerificationReport, Violation, extract_min_set, labeling_of, verify_set
from .oracle import OracleResult, brute_force_min, profile_dp_min
from .pattern import build_big_grid_set, choose_residue
from .solver import (
    PeriodCertificate,
    big_grid_value,
    closed_form,
    detect_period,
    extend_by_period,
    solve_width,
    value,
)
from .tropical import (
    INFINITY,
    TropicalMatrix,
    build_initial_vector,
    build_transition_matrix,
    mat_vec,
)
from .words import (
    WordTable,
    can_follow,
    enumerate_suitable,
    is_final,
    is_initial,
    is_suitable,
    successors,
    zeros,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError",
    "GridSet",
    "INFINITY",
    "InvalidSetError",
    "MalformedSetError",
    "MalformedWordError",
    "OracleResult",
    "PeriodCertificate",
    "PeriodNotFoundError",
    "ResourceCapError",
    "TropicalMatrix",
    "UnsupportedGridError",
    "VerificationReport",
    "Violation",
    "WordTable",
    "big_grid_value",
    "brute_force_min",
    "build_big_grid_set",
    "build_initial_vector",
    "build_transition_matrix",
    "can_follow",
    "choose_residue",
    "closed_form",
    "detect_period",
    "enumerate_suitable",
    "extend_by_period",
    "extract_min_set",
    "is_final",
    "is_initial",
    "is_suitable",
    "labeling_of",
    "mat_vec",
    "profile_dp_min",
    "solve_width",
    "successors",
    "value",
    "verify_set",
    "zeros",
]
