"""Reflexive graphs: every node carries a distinguished degenerate self-loop.

Degenerate loops are materialized as ordinary arcs plus a marker map, so
forgetting the marker is the identity on data and walk counting over the full
arc set stays honest.  A closed walk is degenerate when any step uses a
marked loop; nondegenerate walks are exactly the walks of the graph with the
marked loops stripped.  Marked loops join no two nodes, so the strongly
connected components are the same with or without them, and the
weak-equivalence verdict is the ordinary one on the underlying graphs.
"""

from __future__ import annotations

from operator import not_
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import homotopy
from .core import (
    Arc,
    ClosedWalk,
    DirectedGraph,
    GraphMorphism,
    _read_only,
    graph_from_columns,
    select_arcs,
)
from .errors import InvalidMorphismError, ValidationError
from .homotopy import HomSet, WeakEquivalenceVerdict
from .scc import scc_decompose


class ReflexiveGraph:
    """Directed multigraph plus one marked self-loop per node.

    ``graph`` is the underlying directed graph, built and validated once.
    Two reflexive graphs are equal when their nodes, arcs and degeneracy are.
    """

    nodes: tuple[str, ...]
    arcs: tuple[Arc, ...]
    degeneracy: dict[str, str]
    graph: DirectedGraph

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        nodes: Iterable[str],
        arcs: Iterable[Arc | Sequence[str]],
        degeneracy: Mapping[str, str],
    ) -> None:
        degeneracy = dict(degeneracy)
        g = DirectedGraph(nodes, arcs)
        seen_loops: set[str] = set()
        for n in g.nodes:
            loop = degeneracy.get(n)
            if loop is None:
                raise ValidationError(f"node {n!r} has no degenerate loop")
            k = g.arc_position(loop)
            if g.arc_srcs[k] != n or g.arc_tgts[k] != n:
                raise ValidationError(
                    f"degenerate arc {loop!r} of node {n!r} is not a self-loop at it"
                )
            if loop in seen_loops:
                raise ValidationError(f"arc {loop!r} marked degenerate twice")
            seen_loops.add(loop)
        extra = set(degeneracy) - set(g.nodes)
        if extra:
            raise ValidationError(f"degeneracy entries for unknown nodes {sorted(extra)}")
        vars(self).update(nodes=g.nodes, arcs=g.arcs, degeneracy=degeneracy, graph=g)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(nodes={self.nodes!r}, arcs={self.arcs!r}, "
            f"degeneracy={self.degeneracy!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nodes, self.arcs, self.degeneracy) == (
            other.nodes, other.arcs, other.degeneracy
        )

    @property
    def degenerate_arc_ids(self) -> frozenset[str]:
        return frozenset(self.degeneracy.values())


class _ReflexiveMorphismFields(NamedTuple):
    domain: ReflexiveGraph
    codomain: ReflexiveGraph
    node_map: dict[str, str]
    arc_map: dict[str, str]


class ReflexiveMorphism(_ReflexiveMorphismFields):
    """Morphism of reflexive graphs: commutes with source, target, degeneracy.

    The morphism keeps its own copies of the two maps.
    """

    __slots__ = ()

    def __new__(
        cls,
        domain: ReflexiveGraph,
        codomain: ReflexiveGraph,
        node_map: Mapping[str, str],
        arc_map: Mapping[str, str],
    ) -> ReflexiveMorphism:
        return tuple.__new__(cls, (domain, codomain, dict(node_map), dict(arc_map)))

    def underlying(self) -> GraphMorphism:
        return GraphMorphism(
            forget_reflexive(self.domain),
            forget_reflexive(self.codomain),
            self.node_map,
            self.arc_map,
        )

    def violations(self) -> list[str]:
        return self.underlying().violations() + self._degeneracy_violations()

    def _degeneracy_violations(self) -> list[str]:
        out = []
        for n in self.domain.nodes:
            loop = self.domain.degeneracy[n]
            image_node = self.node_map.get(n)
            if image_node is None:
                continue
            want = self.codomain.degeneracy.get(image_node)
            if self.arc_map.get(loop) != want:
                out.append(
                    f"degenerate loop {loop!r} of {n!r} maps to "
                    f"{self.arc_map.get(loop)!r}, expected {want!r}"
                )
        return out

    def is_valid(self) -> bool:
        return not self.violations()

    def validate(self) -> None:
        bad = self.violations()
        if bad:
            raise InvalidMorphismError("; ".join(bad))


def add_degeneracies(g: DirectedGraph) -> ReflexiveGraph:
    """Freely add one marked self-loop per node (ids loop_<node>)."""
    taken = set(g.arc_ids)
    degeneracy: dict[str, str] = {}
    loops: list[tuple[str, str, str]] = []
    for n in g.nodes:
        loop_id = f"loop_{n}"
        while loop_id in taken:
            loop_id = "_" + loop_id
        taken.add(loop_id)
        degeneracy[n] = loop_id
        loops.append((loop_id, n, n))
    return ReflexiveGraph(g.nodes, g.arcs + tuple(loops), degeneracy)


def forget_reflexive(g: ReflexiveGraph) -> DirectedGraph:
    """All arcs kept; degenerate loops become ordinary self-loops."""
    return g.graph


def strip_degeneracies(g: ReflexiveGraph) -> DirectedGraph:
    """Drop exactly the marked loops."""
    marked, base = g.degenerate_arc_ids, g.graph
    return graph_from_columns(
        base.nodes, *select_arcs(base, map(not_, map(marked.__contains__, base.arc_ids)))
    )


def is_degenerate_cycle(g: ReflexiveGraph, walk: ClosedWalk) -> bool:
    """True iff any step of the walk uses a marked loop."""
    marked = g.degenerate_arc_ids
    return any(a in marked for a in walk.arcs)


def enumerate_nondegenerate_cycles(
    g: ReflexiveGraph, n: int, cap: int | None = homotopy.DEFAULT_HOM_CAP
) -> HomSet:
    """Closed walks of length n avoiding every marked loop."""
    return homotopy.enumerate_hom_cycles(strip_degeneracies(g), n, cap)


def lift_morphism(f: GraphMorphism) -> ReflexiveMorphism:
    """Extend a graph morphism to the freely reflexive graphs on both sides."""
    dom = add_degeneracies(f.domain)
    cod = add_degeneracies(f.codomain)
    arc_map = dict(f.arc_map)
    for n in f.domain.nodes:
        arc_map[dom.degeneracy[n]] = cod.degeneracy[f.node_map[n]]
    return ReflexiveMorphism(dom, cod, dict(f.node_map), arc_map)


def is_weak_equivalence_reflexive(f: ReflexiveMorphism) -> WeakEquivalenceVerdict:
    """Component characterization applied to the underlying graphs.

    Marked loops never change reachability, so the component partition is the
    same whether they are kept or stripped; the verdict runs on the graphs
    with the loops kept, and the test suite checks that the partitions agree.
    Only the forward direction of the characterization is backed by a proof;
    the converse is validated empirically by the test suite.

    The underlying morphism is built and checked once, with the same error
    text as ``f.validate()``; the graphs are those the reflexive graphs keep,
    so their decompositions come from the cache.
    """
    u = f.underlying()
    bad = u.violations() + f._degeneracy_violations()
    if bad:
        raise InvalidMorphismError("; ".join(bad))
    return homotopy._component_verdict(
        u, scc_decompose(u.domain), scc_decompose(u.codomain), False
    )
