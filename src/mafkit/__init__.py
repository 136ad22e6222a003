"""mafkit: approximate and exact agreement forests on rooted binary trees.

Computes 3-approximate maximum agreement forests (MAF) and maximum acyclic
agreement forests (MAAF) on k >= 2 rooted binary phylogenetic trees, the
derived rSPR-distance and hybridization-number bounds, and exact brute-force
optima on small instances for verification.
"""

from .forest import Forest, is_agreement_forest
from .gen import GenSpec, SeededRng, instance
from .maaf import build_gf, hybridization_upper_bound, maaf_approx
from .maf import CutSet, maf_approx
from .newick import NewickError, parse, read_trees, serialize, write_trees
from .oracle import exact_maaf, exact_maf, exact_rspr
from .tree import PhyloTree

__version__ = "0.1.0"

__all__ = [
    "CutSet",
    "Forest",
    "GenSpec",
    "NewickError",
    "PhyloTree",
    "SeededRng",
    "build_gf",
    "exact_maaf",
    "exact_maf",
    "exact_rspr",
    "hybridization_upper_bound",
    "instance",
    "is_agreement_forest",
    "maaf_approx",
    "maf_approx",
    "parse",
    "read_trees",
    "serialize",
    "write_trees",
]
