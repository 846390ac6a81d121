import types

import bcslab

# The package's public names: what a solver or the CLI runs. Reference algebra
# that only tests call lives in tests/algebra_reference.py.
PUBLIC = [
    "Circuit", "EdgeColor", "GeneratedInstance", "NotASplitGraphError",
    "OracleBudgetError", "RandomizedAnswer", "RedBlueGraph", "SetFamily",
    "ShrinkPreconditionError", "SolveMode", "Substitution", "ValidationReport",
    "Witness", "WitnessExtractionError", "WitnessKind",
    "build_circuit_ebcs", "build_circuit_ebp", "build_circuit_ebt", "colorful_bcs_dp",
    "colorful_bt_dp", "colorful_ebp_dp", "convolve_extend", "detect_multilinear",
    "family_driver", "greedy_hash_family", "longest_path_from", "longest_path_split_to_ebp",
    "oracle_count", "oracle_solve", "parse_graph", "random_coloring_driver",
    "randomized_solve", "reduce_family", "serialize_graph", "shrink_path", "shrink_subgraph",
    "shrink_to_range", "shrink_tree", "solve_ebp_repsets", "solve_split_ebcs",
    "split_partition", "steiner_min_edges", "steiner_to_ebcs", "validate_witness",
]


def test_public_names():
    # submodules become attributes as they are imported, so they are left out
    names = sorted(n for n in dir(bcslab) if not n.startswith("_")
                   and not isinstance(getattr(bcslab, n), types.ModuleType))
    assert names == PUBLIC


def test_no_group_algebra_module():
    import importlib.util

    assert importlib.util.find_spec("bcslab.algebra.group_algebra") is None
