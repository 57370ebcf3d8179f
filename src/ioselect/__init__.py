"""Input/output selection for structured linear systems.

Given the zero/nonzero sparsity patterns of a structured system together
with per-input and per-output costs, this package decides whether the
system is free of structurally fixed modes and computes a low-cost
input/output selection that enables generic arbitrary pole placement.

The pipeline combines a greedy weighted set cover stage (accessibility and
sensability), a minimum-cost bipartite perfect matching stage (disjoint
cycle coverage), and an exact branch and bound for the optimum.
"""

from ioselect.system_model import (
    COMPLETE,
    CompleteK,
    Selection,
    SparsityPattern,
    StructuredSystem,
    format_cost,
    parse_cost,
    restrict,
    selection_cost,
    validate,
)
from ioselect.selector import (
    SelectionReport,
    SfmStatus,
    SystemHasSFMs,
    check_no_sfm,
    detect_special_case,
    select_min_cost_io,
)

__all__ = [
    "COMPLETE",
    "CompleteK",
    "Selection",
    "SelectionReport",
    "SfmStatus",
    "SparsityPattern",
    "StructuredSystem",
    "SystemHasSFMs",
    "check_no_sfm",
    "detect_special_case",
    "format_cost",
    "parse_cost",
    "restrict",
    "select_min_cost_io",
    "selection_cost",
    "validate",
]

__version__ = "0.1.0"
