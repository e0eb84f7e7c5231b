"""Strongly connected components, condensation, connectivity predicates.

Two nodes share a component iff they are equal or lie on a common closed
walk, so a singleton without a self-loop is a (trivial) component of its own.
Components are listed in reverse topological order of the condensation.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress
from operator import eq, itemgetter, ne
from typing import Hashable, Iterable, NamedTuple

from .core import DirectedGraph, _read_only, graph_from_columns
from .errors import EmptyGraphError


class ComponentTable(NamedTuple):
    """Per-component lookups of one decomposition, indexed by component."""

    node_sets: tuple[frozenset[str], ...]
    arc_ids: tuple[tuple[str, ...], ...]  # arcs inside the component, graph order
    arc_id_sets: tuple[frozenset[str], ...]
    indices: tuple[int, ...]  # every component
    cyclic: tuple[int, ...]  # the components that contain an arc


class SccDecomposition:
    """The components of one graph, the component of each node, and the
    condensation.  Compares by identity, like the cached result it is."""

    graph: DirectedGraph
    components: tuple[tuple[str, ...], ...]
    component_of: dict[str, int]
    condensation: DirectedGraph

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        graph: DirectedGraph,
        components: tuple[tuple[str, ...], ...],
        component_of: dict[str, int],
        condensation: DirectedGraph,
    ) -> None:
        vars(self).update(
            graph=graph,
            components=components,
            component_of=component_of,
            condensation=condensation,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(graph={self.graph!r}, components={self.components!r}, "
            f"component_of={self.component_of!r}, condensation={self.condensation!r})"
        )

    @cached_property
    def table(self) -> ComponentTable:
        """Built on first use and kept with the decomposition, so every
        verdict on a cached graph reads it instead of rebuilding sets."""
        g, comp = self.graph, self.component_of.__getitem__
        buckets: list[list[str]] = [[] for _ in self.components]
        for aid, ci, cj in zip(g.arc_ids, map(comp, g.arc_srcs), map(comp, g.arc_tgts)):
            if ci == cj:
                buckets[ci].append(aid)
        arc_ids = tuple(map(tuple, buckets))
        return ComponentTable(
            tuple(map(frozenset, self.components)),
            arc_ids,
            tuple(map(frozenset, arc_ids)),
            tuple(range(len(self.components))),
            tuple(i for i, ids in enumerate(arc_ids) if ids),
        )


@lru_cache(maxsize=8192)
def scc_decompose(g: DirectedGraph) -> SccDecomposition:
    """Single-pass Tarjan decomposition (iterative, insertion-order determinism).

    Graphs are immutable values, so results are memoized; treat the returned
    decomposition as read-only.
    """
    nodes = g.nodes
    n = len(nodes)
    at = g.node_index.__getitem__
    src_ix, tgt_ix = list(map(at, g.arc_srcs)), list(map(at, g.arc_tgts))
    # One insertion-ordered dict per node drops parallel arcs in O(1) each.
    succ_seen: list[dict[int, None]] = [{} for _ in range(n)]
    for v, w in zip(src_ix, tgt_ix):
        succ_seen[v][w] = None
    succ = [list(d) for d in succ_seen]

    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            out = succ[v]
            low = lowlink[v]
            for j in range(pi, len(out)):
                w = out[j]
                iw = index[w]
                if iw == -1:
                    lowlink[v] = low
                    work.append((v, j + 1))
                    work.append((w, 0))
                    break
                if iw < low and on_stack[w]:
                    low = iw
            else:
                lowlink[v] = low
                if low == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_of[w] = len(components)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low

    ordered = tuple(tuple(map(nodes.__getitem__, sorted(comp))) for comp in components)
    component_of = dict(zip(nodes, comp_of))

    # Each component pair once, in order of first appearance among the arcs.
    at = comp_of.__getitem__
    cs, ct = list(map(at, src_ix)), list(map(at, tgt_ix))
    pairs = dict.fromkeys(compress(zip(cs, ct), map(ne, cs, ct)))
    names = tuple(map(str, range(len(components))))
    name = names.__getitem__
    condensation = graph_from_columns(
        names,
        map("e{}".format, range(len(pairs))),
        map(name, map(itemgetter(0), pairs)),
        map(name, map(itemgetter(1), pairs)),
    )
    return SccDecomposition(g, ordered, component_of, condensation)


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff the graph has exactly one strongly connected component."""
    if not g.nodes:
        raise EmptyGraphError("strong connectivity is undefined on the empty graph")
    return len(scc_decompose(g).components) == 1


class _UnionFind:
    """Disjoint sets over hashable, ordered members (Tarjan, JACM 1975).

    ``find`` halves the path it walks; ``union`` keeps the lesser root, so
    the least member of every set is its root.
    """

    __slots__ = ("parent",)

    def __init__(self, members: Iterable[Hashable]) -> None:
        self.parent = {m: m for m in members}

    def find(self, x: Hashable) -> Hashable:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x: Hashable, y: Hashable) -> bool:
        """Merge the sets of x and y; False when they were already one."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def weak_components(g: DirectedGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the nodes ignoring arc direction, in first-node order."""
    sets = _UnionFind(g.nodes)
    for src, tgt in zip(g.arc_srcs, g.arc_tgts):
        sets.union(src, tgt)
    buckets: dict[str, list[str]] = {}
    for node in g.nodes:
        buckets.setdefault(sets.find(node), []).append(node)
    return tuple(map(tuple, buckets.values()))


def is_connected(g: DirectedGraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    if not g.nodes:
        raise EmptyGraphError("connectivity is undefined on the empty graph")
    return len(weak_components(g)) == 1


def is_acyclic(g: DirectedGraph) -> bool:
    """True iff there is no closed walk of positive length."""
    at = scc_decompose(g).component_of.__getitem__
    return not any(map(eq, map(at, g.arc_srcs), map(at, g.arc_tgts)))
