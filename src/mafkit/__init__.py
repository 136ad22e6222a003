"""mafkit: approximate and exact agreement forests on rooted binary trees.

Computes 3-approximate maximum agreement forests (MAF) and maximum acyclic
agreement forests (MAAF) on k >= 2 rooted binary phylogenetic trees, the
derived rSPR-distance and hybridization-number bounds, and exact brute-force
optima on small instances for verification.
"""

from .forest import Forest, cut_edges, is_agreement_forest, steiner_nodes
from .gen import GenSpec, SeededRng, instance, random_tree, spr_move
from .maaf import (
    ForestDigraph,
    build_gf,
    find_cycle,
    hybridization_upper_bound,
    is_acyclic,
    maaf_approx,
    mapped_roots,
)
from .maf import CutEntry, CutSet, OverlapWitness, find_overlap, maf_approx, rspr_upper_bound
from .newick import NewickError, parse, read_trees, serialize, write_trees
from .oracle import (
    OracleResult,
    exact_hybridization,
    exact_maaf,
    exact_maaf_forest,
    exact_maf,
    exact_maf_forest,
    exact_rspr,
)
from .tree import PhyloTree, lca, restrict
from .triples import Triple, TripleCuts, find_incompatible, locate_cuts

__version__ = "0.1.0"

__all__ = [
    "CutEntry",
    "CutSet",
    "Forest",
    "ForestDigraph",
    "GenSpec",
    "NewickError",
    "OracleResult",
    "OverlapWitness",
    "PhyloTree",
    "SeededRng",
    "Triple",
    "TripleCuts",
    "build_gf",
    "cut_edges",
    "exact_hybridization",
    "exact_maaf",
    "exact_maaf_forest",
    "exact_maf",
    "exact_maf_forest",
    "exact_rspr",
    "find_cycle",
    "find_incompatible",
    "find_overlap",
    "hybridization_upper_bound",
    "instance",
    "is_acyclic",
    "is_agreement_forest",
    "lca",
    "locate_cuts",
    "maaf_approx",
    "maf_approx",
    "mapped_roots",
    "parse",
    "random_tree",
    "read_trees",
    "restrict",
    "rspr_upper_bound",
    "serialize",
    "spr_move",
    "steiner_nodes",
    "write_trees",
]
