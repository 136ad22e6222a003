"""Reference cut-edge choices: the overlap and cycle rules as first written.

They test ancestry on preorder visit intervals derived by a walk, and read
each edge's leaf set from a per-node table of taxa, O(n * depth) in all.
The overlap rule is kept so the LCA-map version in ``mafkit.maf`` can be
differential-tested against it; the cycle rule, so a test can show that it
names the left root child, which ``mafkit.maaf`` cuts without asking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from mafkit import PhyloTree, lca

from reference_triples import _below_table


@dataclass(frozen=True)
class PreorderIndex:
    """Preorder visit numbers plus, per node, the [lo, hi] interval of visit
    numbers covered by its subtree. ``u`` is an ancestor of ``v`` exactly when
    visit(v) falls inside u's interval."""

    visit: tuple
    lo: tuple
    hi: tuple

    def is_ancestor(self, u: int, v: int) -> bool:
        """Inclusive: every node is an ancestor of itself."""
        return self.lo[u] <= self.visit[v] <= self.hi[u]


@functools.lru_cache(maxsize=64)
def compute_preorder_index(t: PhyloTree) -> PreorderIndex:
    """Walk the tree and assign visit numbers; do not assume ids are already
    preorder. Cached per tree, as the tree's own slot once cached it."""
    n = t.n_nodes
    visit = [0] * n
    counter = 0
    stack = [t.root]
    order = []
    while stack:
        u = stack.pop()
        visit[u] = counter
        counter += 1
        order.append(u)
        for c in reversed(t.children[u]):
            stack.append(c)
    lo = [0] * n
    hi = [0] * n
    for u in reversed(order):
        lo[u] = visit[u]
        hi[u] = visit[u]
        for c in t.children[u]:
            lo[u] = min(lo[u], lo[c])
            hi[u] = max(hi[u], hi[c])
    return PreorderIndex(tuple(visit), tuple(lo), tuple(hi))


def overlap_cut_edge(comp: PhyloTree, t_i: PhyloTree, meet: int) -> int:
    pidx = compute_preorder_index(t_i)
    leaf_of = t_i.label_node
    below = _below_table(comp)

    def qualifies(v: int) -> bool:
        return all(pidx.is_ancestor(meet, leaf_of[lab]) for lab in below[v])

    quals = [v for v in range(1, comp.n_nodes) if qualifies(v)]
    parent = comp.parent
    maximal = [v for v in quals if parent[v] == comp.root or parent[v] not in set(quals)]
    return max(maximal, key=lambda v: (len(below[v]), -v))


def cycle_cut_edge(comp: PhyloTree, partner: PhyloTree, witness: PhyloTree) -> int:
    ks = comp.children[comp.root]
    if not ks:
        raise ValueError("cannot cut a single-leaf component")
    partner_root = lca(witness, partner.leaf_labels)
    pidx = compute_preorder_index(witness)
    below = _below_table(comp)
    for child in ks:
        side_root = lca(witness, below[child])
        if pidx.is_ancestor(partner_root, side_root):
            return child
    return ks[0]
