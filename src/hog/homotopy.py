"""Weak-equivalence predicates, hom-set enumeration, cofibrant replacement,
and gluing surgery.

Two counting classes are decided here.  The full class matches morphisms that
induce bijections on based closed walks of every length n >= 0 (length 0 being
the nodes); it is decided by a strongly-connected-component characterization:
the induced map on components must be a bijection whose restriction to each
component is an isomorphism onto its image component.  The cycles-only class
drops n = 0; its verdict applies the same procedure restricted to nontrivial
components (those containing at least one arc).  That restriction is derived
rather than proved; the test suite cross-validates it against the enumeration
oracle, and ``brute_force_weq_check`` remains available as an independent
falsifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Arc, ClosedWalk, DirectedGraph, GraphMorphism, Walk
from .errors import (
    CapExceededError,
    EndpointMismatchError,
    LengthMismatchError,
    NotSimpleError,
    SameNodeError,
    UnknownNodeError,
    ValidationError,
)
from .scc import SccDecomposition, scc_decompose

DEFAULT_HOM_CAP = 10**6


@dataclass(frozen=True)
class HomSet:
    """All based closed walks of one length; rotations are distinct elements."""

    n: int
    morphisms: tuple[ClosedWalk, ...]

    def __len__(self) -> int:
        return len(self.morphisms)

    def __iter__(self):
        return iter(self.morphisms)


@dataclass(frozen=True)
class WeakEquivalenceVerdict:
    is_weak_equivalence: bool
    component_matching: tuple[tuple[int, int], ...] | None = None
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.is_weak_equivalence


@dataclass(frozen=True)
class HomBijectionReport:
    """Whether composition with a morphism is a bijection on length-n walks."""

    n: int
    domain_count: int
    codomain_count: int
    distinct_images: int

    @property
    def injective(self) -> bool:
        return self.distinct_images == self.domain_count

    @property
    def surjective(self) -> bool:
        return self.distinct_images == self.codomain_count

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def _closed_walk_arc_tuples(
    g: DirectedGraph, n: int, cap: int | None
) -> list[tuple[str, ...]]:
    """Arc-id tuples of every based closed walk of length n >= 1, in node order
    of the start and then depth-first arc order.

    The depth-first search keeps one out-arc iterator per step on an explicit
    stack, so no recursion depth grows with n.
    """
    out_ids = {v: tuple(a.id for a in g.out_arcs(v)) for v in g.nodes}
    tgt = {a.id: a.tgt for a in g.arcs}
    results: list[tuple[str, ...]] = []
    acc: list[str] = []
    for start in g.nodes:
        stack = [iter(out_ids[start])]
        while stack:
            for aid in stack[-1]:
                acc.append(aid)
                v = tgt[aid]
                if len(acc) < n:
                    stack.append(iter(out_ids[v]))
                    break
                if v == start:
                    if cap is not None and len(results) >= cap:
                        raise CapExceededError(f"more than {cap} closed walks of length {n}")
                    results.append(tuple(acc))
                acc.pop()
            else:
                stack.pop()
                if acc:
                    acc.pop()
    return results


def enumerate_hom_cycles(
    g: DirectedGraph, n: int, cap: int | None = DEFAULT_HOM_CAP
) -> HomSet:
    """Complete list of based closed walks of length n (one per node for n = 0).

    Raises CapExceededError when the count passes *cap* (pass None to disable).
    """
    if n < 0:
        raise ValidationError("walk length must be >= 0")
    if n == 0:
        if cap is not None and len(g.nodes) > cap:
            raise CapExceededError(f"more than {cap} nodes")
        walks = tuple(ClosedWalk(g, (), base=v) for v in g.nodes)
        return HomSet(0, walks)
    tuples = _closed_walk_arc_tuples(g, n, cap)
    return HomSet(n, tuple(ClosedWalk(g, t) for t in tuples))


def _component_verdict(
    f: GraphMorphism,
    dx: SccDecomposition,
    dy: SccDecomposition,
    dom_indices: list[int],
    cod_indices: list[int],
) -> WeakEquivalenceVerdict:
    nm, am = f.node_map, f.arc_map
    cod_index_set = set(cod_indices)
    matching: list[tuple[int, int]] = []
    image_of: dict[int, int] = {}
    for i in dom_indices:
        comp = dx.components[i]
        images = {dy.component_of[nm[v]] for v in comp}
        if len(images) > 1:
            return WeakEquivalenceVerdict(
                False, None, f"image of component {i} spans components {sorted(images)}"
            )
        j = images.pop()
        if j not in cod_index_set:
            return WeakEquivalenceVerdict(
                False, None, f"component {i} maps into excluded component {j}"
            )
        prev = image_of.get(j)
        if prev is not None:
            return WeakEquivalenceVerdict(
                False,
                None,
                f"components {prev} and {i} both map onto codomain component {j}",
            )
        image_of[j] = i
        matching.append((i, j))
    missed = [j for j in cod_indices if j not in image_of]
    if missed:
        nodes = ", ".join(dy.components[missed[0]])
        return WeakEquivalenceVerdict(
            False,
            None,
            f"codomain component {missed[0]} ({nodes}) is not the image of any "
            f"domain component ({len(dom_indices)} vs {len(cod_indices)} components)",
        )
    for i, j in matching:
        comp = dx.components[i]
        target = dy.components[j]
        node_images = [nm[v] for v in comp]
        if len(set(node_images)) != len(comp):
            return WeakEquivalenceVerdict(
                False, None, f"restriction to component {i} is not injective on nodes"
            )
        if set(node_images) != set(target):
            return WeakEquivalenceVerdict(
                False,
                None,
                f"component {i} has {len(comp)} nodes but its image component {j} "
                f"has {len(target)}",
            )
        arc_images = [am[a.id] for a in dx.component_arcs[i]]
        target_arcs = {a.id for a in dy.component_arcs[j]}
        if len(set(arc_images)) != len(arc_images):
            return WeakEquivalenceVerdict(
                False, None, f"restriction to component {i} is not injective on arcs"
            )
        if set(arc_images) != target_arcs:
            return WeakEquivalenceVerdict(
                False,
                None,
                f"component {i} carries {len(arc_images)} arcs but its image "
                f"component {j} has {len(target_arcs)}",
            )
    return WeakEquivalenceVerdict(True, tuple(matching), None)


def is_weak_equivalence(f: GraphMorphism) -> WeakEquivalenceVerdict:
    """Decide the full counting class (walks of every length, nodes included).

    Total and fast: no walk enumeration, only the component characterization.
    """
    f.validate()
    dx = scc_decompose(f.domain)
    dy = scc_decompose(f.codomain)
    return _component_verdict(
        f, dx, dy, list(range(len(dx.components))), list(range(len(dy.components)))
    )


def is_weak_equivalence_cycles_only(f: GraphMorphism) -> WeakEquivalenceVerdict:
    """Decide the cycles-only class (lengths n > 0; nodes not counted).

    Applies the component characterization restricted to nontrivial components;
    arcless singleton components are ignored because positive-length walks
    never visit them.  Derived characterization; cross-validated against
    ``brute_force_weq_check`` in the test suite.
    """
    f.validate()
    dx = scc_decompose(f.domain)
    dy = scc_decompose(f.codomain)
    dom = [i for i, arcs in enumerate(dx.component_arcs) if arcs]
    cod = [j for j, arcs in enumerate(dy.component_arcs) if arcs]
    return _component_verdict(f, dx, dy, dom, cod)


def brute_force_weq_check(
    f: GraphMorphism,
    n_max: int,
    include_zero: bool = True,
    cap: int | None = DEFAULT_HOM_CAP,
) -> tuple[HomBijectionReport, ...]:
    """Check hom-map bijectivity for every length up to n_max, by enumeration.

    A falsifier, not a decision procedure: the counting classes quantify over
    all lengths, this checks finitely many.
    """
    f.validate()
    reports = []
    for n in range(0 if include_zero else 1, n_max + 1):
        if n == 0:
            dom_count = len(f.domain.nodes)
            cod_count = len(f.codomain.nodes)
            distinct = len({f.node_map[v] for v in f.domain.nodes})
        else:
            dom = _closed_walk_arc_tuples(f.domain, n, cap)
            cod_count = len(_closed_walk_arc_tuples(f.codomain, n, cap))
            am = f.arc_map
            dom_count = len(dom)
            distinct = len({tuple(am[a] for a in t) for t in dom})
        reports.append(HomBijectionReport(n, dom_count, cod_count, distinct))
    return tuple(reports)


def cofibrant_replacement(g: DirectedGraph) -> tuple[DirectedGraph, GraphMorphism]:
    """Keep all nodes and exactly the arcs inside strongly connected components.

    The inclusion of the result back into g is always a weak equivalence, and
    the construction is idempotent.
    """
    comp = scc_decompose(g).component_of
    kept = tuple(a for a in g.arcs if comp[a.src] == comp[a.tgt])
    core = DirectedGraph(g.nodes, kept)
    embedding = GraphMorphism(
        core, g, {n: n for n in core.nodes}, {a.id: a.id for a in kept}
    )
    return core, embedding


def _quotient(
    g: DirectedGraph,
    node_rep: dict[str, str],
    arc_rep: dict[str, str] | None = None,
) -> DirectedGraph:
    """Quotient graph: nodes collapse to representatives, arcs optionally merge.

    node_rep must be total and idempotent; arc_rep maps dropped arcs to their
    surviving representative.
    """
    new_nodes: list[str] = []
    seen: set[str] = set()
    for n in g.nodes:
        r = node_rep[n]
        if r not in seen:
            seen.add(r)
            new_nodes.append(r)
    new_arcs: list[Arc] = []
    for a in g.arcs:
        if arc_rep is not None and arc_rep.get(a.id, a.id) != a.id:
            continue
        new_arcs.append(Arc(a.id, node_rep[a.src], node_rep[a.tgt]))
    return DirectedGraph(tuple(new_nodes), tuple(new_arcs))


def glue_nodes(
    g: DirectedGraph, x: str, y: str
) -> tuple[DirectedGraph, GraphMorphism]:
    """Identify two nodes; the merged node takes the smaller id.

    Returns the quotient graph and the quotient morphism from g onto it.
    Arcs keep their identity, with endpoints re-targeted to the merged node.
    """
    for v in (x, y):
        if not g.has_node(v):
            raise UnknownNodeError(f"unknown node {v!r}")
    if x == y:
        raise SameNodeError(f"cannot glue node {x!r} with itself")
    merged = min(x, y)
    node_rep = {n: merged if n in (x, y) else n for n in g.nodes}
    quotient = _quotient(g, node_rep)
    morphism = GraphMorphism(g, quotient, node_rep, {a.id: a.id for a in g.arcs})
    return quotient, morphism


def attach_cycle(
    g: DirectedGraph, x: str, m: int
) -> tuple[DirectedGraph, GraphMorphism]:
    """Attach a fresh cycle of length m at node x (wedge at a point).

    Implemented as disjoint union with a standard cycle followed by gluing the
    cycle's base node onto x.  Fresh ids extend x, so x keeps its name; the new
    cycle nodes appear after g's nodes, in cycle order.  Returns the enlarged
    graph and the embedding of g into it.
    """
    if not g.has_node(x):
        raise UnknownNodeError(f"unknown node {x!r}")
    if m < 1:
        raise ValidationError("attached cycle length must be >= 1")
    taken = set(g.nodes) | {a.id for a in g.arcs}
    k = 0
    while True:
        fresh_nodes = [f"{x}_c{k}_{i}" for i in range(m)]
        fresh_arcs = [f"{x}_c{k}_a{i}" for i in range(m)]
        if taken.isdisjoint(fresh_nodes) and taken.isdisjoint(fresh_arcs):
            break
        k += 1
    union = DirectedGraph(
        g.nodes + tuple(fresh_nodes),
        g.arcs
        + tuple(
            Arc(fresh_arcs[i], fresh_nodes[i], fresh_nodes[(i + 1) % m])
            for i in range(m)
        ),
    )
    result, _ = glue_nodes(union, x, fresh_nodes[0])
    embedding = GraphMorphism(
        g, result, {n: n for n in g.nodes}, {a.id: a.id for a in g.arcs}
    )
    return result, embedding


def glue_paths(
    g: DirectedGraph, p1: Walk, p2: Walk
) -> tuple[DirectedGraph, GraphMorphism]:
    """Identify two parallel simple open walks arcwise and nodewise.

    The walks must have equal positive length, the same start and end nodes,
    and no shared arcs; each must visit distinct nodes.  Merged nodes and arcs
    take the smaller id.  Returns the quotient and the quotient morphism.
    """
    for p in (p1, p2):
        if p.graph != g:
            raise ValidationError("walk does not belong to the given graph")
    if p1.length != p2.length:
        raise LengthMismatchError(f"path lengths differ: {p1.length} vs {p2.length}")
    if p1.start != p2.start or p1.end != p2.end:
        raise EndpointMismatchError(
            f"paths join {p1.start!r}->{p1.end!r} and {p2.start!r}->{p2.end!r}"
        )
    if p1.length == 0:
        raise NotSimpleError("paths must contain at least one arc")
    for p in (p1, p2):
        if not p.is_simple():
            raise NotSimpleError("paths must be simple open walks")
    if set(p1.arcs) & set(p2.arcs):
        raise NotSimpleError("paths must be arc-disjoint")

    parent = {n: n for n in g.nodes}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for u, v in zip(p1.visits, p2.visits):
        ru, rv = find(u), find(v)
        if ru != rv:
            keep, drop = min(ru, rv), max(ru, rv)
            parent[drop] = keep
    node_rep = {n: find(n) for n in g.nodes}

    arc_rep: dict[str, str] = {}
    for a1, a2 in zip(p1.arcs, p2.arcs):
        keep, drop = min(a1, a2), max(a1, a2)
        arc_rep[drop] = keep
    quotient = _quotient(g, node_rep, arc_rep)
    morphism = GraphMorphism(
        g, quotient, node_rep, {a.id: arc_rep.get(a.id, a.id) for a in g.arcs}
    )
    return quotient, morphism
