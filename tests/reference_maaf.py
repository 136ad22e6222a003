"""Reference acyclicity test: the original Kahn queue.

Peels off vertices of in-degree zero until none is left; the digraph is
acyclic exactly when every vertex gets peeled. It is kept only so that
``mafkit.maaf.is_acyclic``, now a call to ``find_cycle``, can be
differential-tested against it.
"""

from __future__ import annotations

from collections import deque

from mafkit.maaf import ForestDigraph


def is_acyclic(g: ForestDigraph) -> bool:
    indeg = [0] * g.n_vertices
    for (_, j) in g.edges:
        indeg[j] += 1
    queue = deque(v for v in range(g.n_vertices) if indeg[v] == 0)
    done = 0
    succ: dict = {}
    for (i, j) in g.edges:
        succ.setdefault(i, []).append(j)
    while queue:
        v = queue.popleft()
        done += 1
        for j in succ.get(v, ()):
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return done == g.n_vertices
