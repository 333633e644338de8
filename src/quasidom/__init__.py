"""Exact minimum independent [1,2]-dominating sets in grid graphs.

Small widths are solved by a min-plus transfer-matrix dynamic program over
admissible column words, wide grids by a repaired diagonal pattern; both are
cross-checked against brute-force oracles.

Names are imported from their home module on first access (PEP 562), so
importing the package, or running a command that needs only the closed
forms, loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, in __all__ order -> the module that defines it
_HOMES = {
    "ConstructionError": "errors",
    "GridSet": "grids",
    "InvalidSetError": "errors",
    "MalformedSetError": "errors",
    "MalformedWordError": "errors",
    "OracleResult": "oracle",
    "PeriodCertificate": "solver",
    "PeriodNotFoundError": "errors",
    "ResourceCapError": "errors",
    "TropicalMatrix": "tropical",
    "UnsupportedGridError": "errors",
    "VerificationReport": "grids",
    "Violation": "grids",
    "WordTable": "words",
    "big_grid_value": "formulas",
    "brute_force_min": "oracle",
    "build_big_grid_set": "pattern",
    "build_initial_vector": "tropical",
    "build_transition_matrix": "tropical",
    "can_follow": "words",
    "choose_residue": "pattern",
    "closed_form": "formulas",
    "detect_period": "solver",
    "enumerate_suitable": "words",
    "extend_by_period": "solver",
    "extract_min_set": "grids",
    "is_final": "words",
    "is_initial": "words",
    "is_suitable": "words",
    "labeling_of": "grids",
    "mat_vec": "tropical",
    "profile_dp_min": "oracle",
    "solve_width": "solver",
    "successors": "words",
    "value": "formulas",
    "verify_set": "grids",
    "zeros": "words",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
