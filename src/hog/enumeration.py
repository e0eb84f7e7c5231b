"""Exhaustive generators for small multigraphs.

A multigraph on a fixed node set is, up to arc relabeling, a multiset of
(source, target) cells, so enumerating combinations-with-replacement over the
cells enumerates the graphs exactly once each.  Used by the experiment
scripts and by the verification suite as its test corpus.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator

from .core import Arc, DirectedGraph
from .scc import _UnionFind

Cells = tuple[tuple[int, int], ...]


def arc_multisets(num_nodes: int, num_arcs: int) -> Iterator[Cells]:
    """All multisets of (src, tgt) index pairs of the given size."""
    cells = [(i, j) for i in range(num_nodes) for j in range(num_nodes)]
    return combinations_with_replacement(cells, num_arcs)


def graph_from_cells(num_nodes: int, cells: Cells) -> DirectedGraph:
    """Materialize nodes x0..x(n-1) and arcs a0.. following the cell order."""
    nodes = tuple(f"x{i}" for i in range(num_nodes))
    arcs = tuple(Arc(f"a{k}", nodes[s], nodes[t]) for k, (s, t) in enumerate(cells))
    return DirectedGraph(nodes, arcs)


def _cells_weakly_connected(num_nodes: int, cells: Cells) -> bool:
    """True iff the cells join all nodes into one undirected piece: a
    spanning tree takes exactly num_nodes - 1 merging unions."""
    sets = _UnionFind(range(num_nodes))
    return sum(sets.union(s, t) for s, t in cells) == num_nodes - 1


def small_graphs(
    max_nodes: int, max_arcs: int, min_arcs: int = 0
) -> Iterator[DirectedGraph]:
    """Every multigraph with 1..max_nodes nodes and min_arcs..max_arcs arcs,
    deduplicated up to arc relabeling (node labels are fixed)."""
    for v in range(1, max_nodes + 1):
        for k in range(min_arcs, max_arcs + 1):
            for cells in arc_multisets(v, k):
                yield graph_from_cells(v, cells)


def connected_small_graphs(
    max_nodes: int, max_arcs: int, min_arcs: int = 1
) -> Iterator[DirectedGraph]:
    """Like small_graphs, restricted to weakly connected graphs."""
    for v in range(1, max_nodes + 1):
        for k in range(min_arcs, max_arcs + 1):
            for cells in arc_multisets(v, k):
                if _cells_weakly_connected(v, cells):
                    yield graph_from_cells(v, cells)
