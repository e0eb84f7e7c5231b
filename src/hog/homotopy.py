"""Weak-equivalence predicates, hom-set enumeration, cofibrant replacement,
and gluing surgery.

Two counting classes are decided here.  The full class matches morphisms that
induce bijections on based closed walks of every length n >= 0 (length 0 being
the nodes); it is decided by a strongly-connected-component characterization:
the induced map on components must be a bijection whose restriction to each
component is an isomorphism onto its image component.  The cycles-only class
drops n = 0; its verdict applies the same procedure restricted to nontrivial
components (those containing at least one arc).  That restriction is
sufficient but not necessary: a conjugacy that folds a two-node component
onto one node can be bijective on closed walks of every positive length yet
be judged False.  ``brute_force_weq_check`` remains an independent falsifier.

Both verdicts, and the reflexive one, validate the morphism once and then call
``_component_verdict(f, dx, dy, cycles_only)`` with the two decompositions.
It reads the per-component node sets and arc ids that each decomposition
tabulates once (``SccDecomposition.table``), so a verdict on graphs already
in the decomposition cache builds no per-graph set.
"""

from __future__ import annotations

from operator import eq
from typing import NamedTuple

from .core import (
    ClosedWalk,
    DirectedGraph,
    GraphMorphism,
    Walk,
    _Record,
    graph_from_columns,
    select_arcs,
)
from .errors import (
    CapExceededError,
    EndpointMismatchError,
    LengthMismatchError,
    NotSimpleError,
    SameNodeError,
    UnknownNodeError,
    ValidationError,
)
from .scc import SccDecomposition, _UnionFind, scc_decompose

DEFAULT_HOM_CAP = 10**6


class HomSet(_Record):
    """All based closed walks of one length; rotations are distinct elements."""

    n: int
    morphisms: tuple[ClosedWalk, ...]

    _fields = ("n", "morphisms")

    def __init__(self, n: int, morphisms: tuple[ClosedWalk, ...]) -> None:
        vars(self).update(n=n, morphisms=morphisms)

    def __len__(self) -> int:
        return len(self.morphisms)

    def __iter__(self):
        return iter(self.morphisms)


class WeakEquivalenceVerdict(NamedTuple):
    is_weak_equivalence: bool
    component_matching: tuple[tuple[int, int], ...] | None = None
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.is_weak_equivalence


class HomBijectionReport(NamedTuple):
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
    out_ids = {v: g.out_arc_ids(v) for v in g.nodes}
    tgt = dict(zip(g.arc_ids, g.arc_tgts))
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


def _refuted(witness: str) -> WeakEquivalenceVerdict:
    return WeakEquivalenceVerdict(False, None, witness)


def _component_verdict(
    f: GraphMorphism, dx: SccDecomposition, dy: SccDecomposition, cycles_only: bool
) -> WeakEquivalenceVerdict:
    """The component characterization for a validated morphism f, given the
    decompositions of its domain and codomain.

    Components are matched in domain order: no two may land in the same
    codomain component, and every codomain component must be hit.  Then each
    matched pair must correspond bijectively on nodes and on inner arcs.  With
    cycles_only, arcless components on either side are left out.  The first
    failing check gives the witness.

    A component's image component is read off its first node: a closed walk
    maps to a closed walk, so a valid morphism sends each component and its
    inner arcs into one codomain component, which has an arc when the domain
    component has one.
    """
    nm, am = f.node_map, f.arc_map
    comps, cod_of = dx.components, dy.component_of
    tx, ty = dx.table, dy.table
    dom_indices = tx.cyclic if cycles_only else tx.indices
    cod_indices = ty.cyclic if cycles_only else ty.indices
    matching: list[tuple[int, int]] = []
    image_of: dict[int, int] = {}
    for i in dom_indices:
        j = cod_of[nm[comps[i][0]]]
        prev = image_of.get(j)
        if prev is not None:
            return _refuted(f"components {prev} and {i} both map onto codomain component {j}")
        image_of[j] = i
        matching.append((i, j))
    if len(image_of) != len(cod_indices):
        missed = next(j for j in cod_indices if j not in image_of)
        nodes = ", ".join(dy.components[missed])
        return _refuted(
            f"codomain component {missed} ({nodes}) is not the image of any "
            f"domain component ({len(dom_indices)} vs {len(cod_indices)} components)"
        )
    for i, j in matching:
        comp, target = comps[i], ty.node_sets[j]
        if len(comp) == 1:
            # The one image lies in component j, so the sets agree iff j is a singleton.
            same_nodes = len(target) == 1
        else:
            node_images = {nm[v] for v in comp}
            if len(node_images) != len(comp):
                return _refuted(f"restriction to component {i} is not injective on nodes")
            same_nodes = node_images == target
        if not same_nodes:
            return _refuted(
                f"component {i} has {len(comp)} nodes but its image component {j} "
                f"has {len(target)}"
            )
        arcs, target_arcs = tx.arc_ids[i], ty.arc_id_sets[j]
        if not arcs and not target_arcs:
            continue
        arc_images = {am[a] for a in arcs}
        if len(arc_images) != len(arcs):
            return _refuted(f"restriction to component {i} is not injective on arcs")
        if arc_images != target_arcs:
            return _refuted(
                f"component {i} carries {len(arcs)} arcs but its image "
                f"component {j} has {len(target_arcs)}"
            )
    return WeakEquivalenceVerdict(True, tuple(matching), None)


def is_weak_equivalence(f: GraphMorphism) -> WeakEquivalenceVerdict:
    """Decide the full counting class (walks of every length, nodes included).

    Total and fast: no walk enumeration, only the component characterization,
    read from the per-component tables of the cached decompositions.
    """
    f.validate()
    return _component_verdict(f, scc_decompose(f.domain), scc_decompose(f.codomain), False)


def is_weak_equivalence_cycles_only(f: GraphMorphism) -> WeakEquivalenceVerdict:
    """Decide the cycles-only class (lengths n > 0; nodes not counted).

    Applies the component characterization restricted to nontrivial components;
    arcless singleton components are ignored because positive-length walks
    never visit them.  A True verdict is exact; a False one may not be, since
    a matched component need not be bijective on nodes (see the module notes).
    """
    f.validate()
    return _component_verdict(f, scc_decompose(f.domain), scc_decompose(f.codomain), True)


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
    at = scc_decompose(g).component_of.__getitem__
    core = graph_from_columns(
        g.nodes, *select_arcs(g, map(eq, map(at, g.arc_srcs), map(at, g.arc_tgts)))
    )
    ids = core.arc_ids
    embedding = GraphMorphism(core, g, dict(zip(core.nodes, core.nodes)), dict(zip(ids, ids)))
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
    rep = node_rep.__getitem__
    ids, srcs, tgts = g.arc_ids, g.arc_srcs, g.arc_tgts
    if arc_rep is not None:
        ids, srcs, tgts = select_arcs(g, (arc_rep.get(a, a) == a for a in ids))
    return graph_from_columns(
        dict.fromkeys(map(rep, g.nodes)), ids, map(rep, srcs), map(rep, tgts)
    )


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
    morphism = GraphMorphism(g, quotient, node_rep, dict(zip(g.arc_ids, g.arc_ids)))
    return quotient, morphism


def attach_cycle(
    g: DirectedGraph, x: str, m: int
) -> tuple[DirectedGraph, GraphMorphism]:
    """Attach a fresh cycle of length m at node x (wedge at a point).

    The result equals the disjoint union of g with a cycle whose base node is
    then glued onto x, built directly: fresh ids extend x, so the glue keeps
    x, and the new cycle nodes appear after g's nodes, in cycle order.
    Returns the enlarged graph and the embedding of g into it.
    """
    if not g.has_node(x):
        raise UnknownNodeError(f"unknown node {x!r}")
    if m < 1:
        raise ValidationError("attached cycle length must be >= 1")
    taken = set(g.nodes).union(g.arc_ids)
    k = 0
    while True:
        fresh_nodes = [f"{x}_c{k}_{i}" for i in range(m)]
        fresh_arcs = [f"{x}_c{k}_a{i}" for i in range(m)]
        if taken.isdisjoint(fresh_nodes) and taken.isdisjoint(fresh_arcs):
            break
        k += 1
    ring = (x, *fresh_nodes[1:])
    result = graph_from_columns(
        g.nodes + ring[1:],
        g.arc_ids + tuple(fresh_arcs),
        g.arc_srcs + ring,
        g.arc_tgts + ring[1:] + ring[:1],
    )
    embedding = GraphMorphism(
        g, result, dict(zip(g.nodes, g.nodes)), dict(zip(g.arc_ids, g.arc_ids))
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

    classes = _UnionFind(g.nodes)
    for u, v in zip(p1.visits, p2.visits):
        classes.union(u, v)
    node_rep = {n: classes.find(n) for n in g.nodes}

    arc_rep: dict[str, str] = {}
    for a1, a2 in zip(p1.arcs, p2.arcs):
        keep, drop = min(a1, a2), max(a1, a2)
        arc_rep[drop] = keep
    quotient = _quotient(g, node_rep, arc_rep)
    morphism = GraphMorphism(
        g, quotient, node_rep, {a: arc_rep.get(a, a) for a in g.arc_ids}
    )
    return quotient, morphism
