"""Spans around calls into mafkit's layers, recorded from outside the package.

``traced()`` wraps each public function named in ``LAYERS`` and rebinds the
wrapper wherever a mafkit module holds the function (its home module and
every module that imported it by name), then restores the originals. A
wrapper records a span only while ``Recorder.active`` is set, so checks run
after a pass cost no spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# span name -> (home module, function names behind it)
LAYERS = {
    "newick.read_trees": ("mafkit.newick", ("read_trees",)),
    "newick.serialize": ("mafkit.newick", ("serialize",)),
    "cli.main": ("mafkit.cli", ("main",)),
    "gen.instance": ("mafkit.gen", ("instance",)),
    "triples.find_incompatible": ("mafkit.triples", ("find_incompatible",)),
    "triples.locate_cuts": ("mafkit.triples", ("locate_cuts",)),
    "tree.restricted_canonical": ("mafkit.tree", ("restricted_canonical",)),
    "tree.lca": ("mafkit.tree", ("lca",)),
    "forest.cut_edges": ("mafkit.forest", ("cut_edges",)),
    "forest.is_agreement_forest": ("mafkit.forest", ("is_agreement_forest",)),
    "forest.steiner_nodes": ("mafkit.forest", ("steiner_nodes",)),
    "maf.maf_approx": ("mafkit.maf", ("maf_approx",)),
    "maf.find_overlap": ("mafkit.maf", ("find_overlap",)),
    "maaf.maaf_approx": ("mafkit.maaf", ("maaf_approx",)),
    "maaf.build_gf": ("mafkit.maaf", ("build_gf",)),
    "maaf.mapped_roots": ("mafkit.maaf", ("mapped_roots",)),
    "oracle.search": ("mafkit.oracle", ("exact_maf", "exact_maaf")),
}
NAMES = tuple(LAYERS)


class Recorder:
    """Spans of one traced run, kept in flat arrays until the run ends.

    Span i has name ``NAMES[name[i]]``, parent span ``parent[i]`` (-1 at top
    level), start and end in ns, and the id of the unit it belongs to.
    """

    def __init__(self):
        self.active = False
        self.unit = -1
        self.name = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.units = array("q")
        self.counts = {}  # counter name -> total, see _result_counts
        self.stack = []

    def __len__(self):
        return len(self.name)

    def enter(self, idx: int) -> int:
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0)
        self.end.append(0)
        self.units.append(self.unit)
        self.stack.append(sid)
        # stamped last, so the bookkeeping above falls outside the span
        self.start[sid] = time.perf_counter_ns()
        return sid

    def leave(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    def truncate(self, n: int) -> None:
        """Forget every span from id ``n`` on."""
        for a in (self.name, self.parent, self.start, self.end, self.units):
            del a[n:]

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def rows(self):
        """(span, parent, name, start_ns, end_ns, unit) for every span."""
        for i in range(len(self.name)):
            yield (i, self.parent[i], NAMES[self.name[i]], self.start[i], self.end[i],
                   self.units[i])


def _result_counts(name: str, result):
    """Counters read off a layer's return value: (key, amount) pairs."""
    if name == "triples.find_incompatible":
        return (("triples.find_incompatible.hits", result is not None),)
    if name == "maf.maf_approx":
        return (("maf.cut_entries", len(result[1].entries)),)
    if name == "maaf.maaf_approx":
        return (("maaf.cycle_entries", len(result[1].entries)),)
    if name == "oracle.search":
        return (("oracle.solved", result is not None),)
    return ()


def _wrap(rec: Recorder, name: str, fn):
    idx = NAMES.index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        sid = rec.enter(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(sid)
        for key, amount in _result_counts(name, result):
            rec.count(key, amount)
        return result

    return wrapper


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install span wrappers for every layer found; yield the span names
    that were found; restore every rebound name on exit."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "mafkit" or k.startswith("mafkit."))]
    rebound = []
    found = []
    try:
        for name, (home, attrs) in LAYERS.items():
            mod = sys.modules.get(home)
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                found.append(name)
                wrapper = _wrap(rec, name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                            rebound.append((m, key, fn))
        yield sorted(set(found))
    finally:
        for m, key, fn in reversed(rebound):
            setattr(m, key, fn)


def layer_totals(rec: Recorder, first: int = 0) -> dict:
    """Per span name: calls, total self time in s; plus the time covered by
    top-level spans and the number of ``forest.cut_edges`` calls made
    directly inside ``oracle.search``."""
    calls = dict.fromkeys(NAMES, 0)
    self_ns = dict.fromkeys(NAMES, 0)
    child_ns = {}
    covered = 0
    candidates = 0
    search = NAMES.index("oracle.search")
    cut = NAMES.index("forest.cut_edges")
    # a child's id is larger than its parent's, so in descending id order
    # every child is settled before its parent
    for i in range(len(rec) - 1, first - 1, -1):
        dur = rec.end[i] - rec.start[i]
        name = NAMES[rec.name[i]]
        calls[name] += 1
        self_ns[name] += dur - child_ns.pop(i, 0)
        p = rec.parent[i]
        if p < 0:
            covered += dur
        else:
            child_ns[p] = child_ns.get(p, 0) + dur
            if rec.name[i] == cut and rec.name[p] == search:
                candidates += 1
    return {
        "calls": calls,
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "covered_s": covered / 1e9,
        "oracle_candidates": candidates,
    }
