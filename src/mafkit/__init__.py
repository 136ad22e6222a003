"""mafkit: approximate and exact agreement forests on rooted binary trees.

Computes 3-approximate maximum agreement forests (MAF) and maximum acyclic
agreement forests (MAAF) on k >= 2 rooted binary phylogenetic trees, the
derived rSPR-distance and hybridization-number bounds, and exact brute-force
optima on small instances for verification.
"""

from .forest import Forest, cut_edges, is_agreement_forest, steiner_nodes
from .gen import GenSpec, SeededRng, instance
from .maaf import build_gf, hybridization_upper_bound, is_acyclic, maaf_approx, mapped_roots
from .maf import CutEntry, CutSet, find_overlap, maf_approx, rspr_upper_bound
from .newick import NewickError, parse, read_trees, serialize, write_trees
from .oracle import exact_maaf, exact_maf, exact_rspr
from .tree import PhyloTree, lca
from .triples import Triple, find_incompatible, locate_cuts

__version__ = "0.1.0"

__all__ = [
    "CutEntry",
    "CutSet",
    "Forest",
    "GenSpec",
    "NewickError",
    "PhyloTree",
    "SeededRng",
    "Triple",
    "build_gf",
    "cut_edges",
    "exact_maaf",
    "exact_maf",
    "exact_rspr",
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
    "read_trees",
    "rspr_upper_bound",
    "serialize",
    "steiner_nodes",
    "write_trees",
]
