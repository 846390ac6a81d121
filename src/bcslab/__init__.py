"""Solvers, oracles and generators for edge-balanced connected structures."""

from .graphs import (
    EdgeColor,
    RedBlueGraph,
    ValidationReport,
    Witness,
    WitnessKind,
    parse_graph,
    serialize_graph,
    split_partition,
    validate_witness,
)
from .oracle import OracleBudgetError, SolveMode, oracle_count, oracle_solve
from .shrink import (
    ShrinkPreconditionError,
    shrink_path,
    shrink_subgraph,
    shrink_to_range,
    shrink_tree,
)
from .splitsolver import NotASplitGraphError, solve_split_ebcs
from .colorcoding import (
    colorful_bcs_dp,
    colorful_bt_dp,
    colorful_ebp_dp,
    family_driver,
    greedy_hash_family,
    random_coloring_driver,
)
from .repsets import SetFamily, convolve_extend, reduce_family, solve_ebp_repsets
from .algebra.circuits import (
    Circuit,
    build_circuit_ebcs,
    build_circuit_ebp,
    build_circuit_ebt,
)
from .algebra.mldetect import (
    RandomizedAnswer,
    Substitution,
    WitnessExtractionError,
    detect_multilinear,
    randomized_solve,
)
from .reductions import (
    GeneratedInstance,
    longest_path_from,
    longest_path_split_to_ebp,
    steiner_min_edges,
    steiner_to_ebcs,
)

__version__ = "0.1.0"
