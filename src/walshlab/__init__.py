"""Desk-scale laboratory for dyadic time-frequency analysis.

Exact arithmetic in the binary field, grid-sampled wave packets, a
trilinear form with signed scale truncations, tile projections adapted to
diagonal and fiberwise data, greedy tree selection with checkable
certificates, an exceptional-set replacement construction, and a covering
lemma for slanted parallelogram families.
"""

from .walsh import (
    WalshNumber,
    DyadicInterval,
    walsh_add,
    walsh_mul,
    character,
    grid_frequency,
    coset_membership,
)
from .gridfn import GridFunction1D, GridFunction2D
from .wavelets import fwht, fwht_synthesis, haar, walsh_fn, wave_packet
from .tiles import (
    Bitile,
    BitileRows,
    ProjectionMode,
    Tile,
    all_bitiles,
    is_convex,
    le,
    proj_bitile,
    proj_collection,
    proj_tile,
)
from .triform import (
    EpsilonField,
    haar_multiplier,
    lambda_bitile,
    lambda_bitile_sum,
    lambda_direct,
    max_mod_haar,
    telescoping_profile,
)
from .selection import (
    Forest,
    SelectionCertificate,
    Tree,
    select_trees,
    size,
    single_tree_report,
    verify_certificate,
)
from .mfcz import (
    build_good_function,
    exceptional_sets,
    g_norm_report,
    replacement_check,
)
from .covering import (
    Parallelogram,
    ParallelogramRows,
    SlopeField,
    lemma7r_check,
    lk_maximal,
)

__version__ = "0.1.0"

__all__ = [
    "WalshNumber",
    "DyadicInterval",
    "walsh_add",
    "walsh_mul",
    "character",
    "grid_frequency",
    "coset_membership",
    "GridFunction1D",
    "GridFunction2D",
    "fwht",
    "fwht_synthesis",
    "haar",
    "walsh_fn",
    "wave_packet",
    "Tile",
    "Bitile",
    "BitileRows",
    "ProjectionMode",
    "all_bitiles",
    "is_convex",
    "le",
    "proj_tile",
    "proj_bitile",
    "proj_collection",
    "EpsilonField",
    "lambda_direct",
    "lambda_bitile",
    "lambda_bitile_sum",
    "haar_multiplier",
    "max_mod_haar",
    "telescoping_profile",
    "Tree",
    "Forest",
    "SelectionCertificate",
    "select_trees",
    "size",
    "verify_certificate",
    "single_tree_report",
    "exceptional_sets",
    "build_good_function",
    "replacement_check",
    "g_norm_report",
    "Parallelogram",
    "ParallelogramRows",
    "SlopeField",
    "lemma7r_check",
    "lk_maximal",
]
