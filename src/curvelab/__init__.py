"""curvelab: numerical workbench for bilinear operators along polynomial curves."""

from .polynomials import Polynomial, fit_decay_exponent, level_set_measure, real_roots_with_orders, truncate_term
from .report import ExperimentReport
from .signals import GridFunction, hl_maximal, littlewood_paley_piece, lp_norm
from .scales import ScalePartition, classify_scales, shifted_scale_set, verify_cardinality_bound
from .operators import apply_M, apply_Tj, multiplier_Mmn, restricted_Tj_alpha
from .oscillatory import (
    PhasePair,
    SmoothFn,
    dk_norm,
    inverse_derivatives,
    inverse_function,
    oscillatory_integral,
    perturbation_pair_check,
    sublevel_check,
)
from .sharpness import (
    CounterexampleInstance,
    build_counterexample_endpoint,
    build_counterexample_rootorder,
    endpoint_scaling_experiment,
    rootorder_scaling_experiment,
)
from .tiling import (
    DyadicInterval,
    Tile,
    Tree,
    build_tiles,
    greedy_tree_selection,
    set_size,
    tree_size,
    whitney_decompose,
    whitney_pair_properties,
)

__all__ = [
    "Polynomial",
    "truncate_term",
    "real_roots_with_orders",
    "level_set_measure",
    "fit_decay_exponent",
    "ExperimentReport",
    "GridFunction",
    "lp_norm",
    "littlewood_paley_piece",
    "hl_maximal",
    "ScalePartition",
    "classify_scales",
    "verify_cardinality_bound",
    "shifted_scale_set",
    "apply_Tj",
    "apply_M",
    "restricted_Tj_alpha",
    "multiplier_Mmn",
    "SmoothFn",
    "PhasePair",
    "oscillatory_integral",
    "sublevel_check",
    "dk_norm",
    "inverse_function",
    "inverse_derivatives",
    "perturbation_pair_check",
    "CounterexampleInstance",
    "build_counterexample_endpoint",
    "endpoint_scaling_experiment",
    "build_counterexample_rootorder",
    "rootorder_scaling_experiment",
    "DyadicInterval",
    "Tile",
    "Tree",
    "whitney_decompose",
    "whitney_pair_properties",
    "build_tiles",
    "tree_size",
    "set_size",
    "greedy_tree_selection",
]
