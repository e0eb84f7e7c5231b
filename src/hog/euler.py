"""Eulerian circuits: degree-balance criterion, deterministic Hierholzer-style
construction, covering closed walks, and cycle-attachment decompositions.

The construction mirrors the balance argument: extract an arc-injective cycle
by always leaving along the smallest-id unused arc (equal in/out degrees mean
the walk can only get stuck back at its start), then repeatedly attach further
cycles through visited nodes that still have unused outgoing arcs.  Recording
the attach/glue sequence instead of splicing yields a construction script that
rebuilds the graph from a single cycle.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import NamedTuple

from . import homotopy
from .core import ClosedWalk, DirectedGraph, graph_from_columns, standard_cycle
from .errors import NoArcsError, NotEulerianError, NotStronglyConnectedError
from .scc import is_connected, is_strongly_connected


class EulerReport(NamedTuple):
    is_eulerian: bool
    connected: bool
    balance_violations: tuple[tuple[str, int, int], ...]
    cycle: ClosedWalk | None = None


class GlueStep(NamedTuple):
    first: str
    second: str


class AttachStep(NamedTuple):
    node: str
    length: int


class AttachmentDecomposition(NamedTuple):
    """Construction script: start from a cycle, then glue nodes / attach cycles.

    Step node ids refer to the replayed graph as it exists when the step runs;
    node_correspondence maps final replayed node ids back to input node ids.
    """

    base_length: int
    steps: tuple[GlueStep | AttachStep, ...]
    node_correspondence: dict[str, str]

    def replay(self) -> DirectedGraph:
        g = standard_cycle(self.base_length)
        for step in self.steps:
            if isinstance(step, GlueStep):
                g, _ = homotopy.glue_nodes(g, step.first, step.second)
            else:
                g, _ = homotopy.attach_cycle(g, step.node, step.length)
        return g

    def matches(self, g: DirectedGraph) -> bool:
        """Replay and compare with g, renaming via node_correspondence.

        Arc ids are fresh in the replay, so arcs are compared as a multiset of
        (source, target) pairs.
        """
        replayed = self.replay()
        corr = self.node_correspondence
        if set(corr) != set(replayed.nodes):
            return False
        if {corr[n] for n in replayed.nodes} != set(g.nodes):
            return False
        rename = corr.__getitem__
        got = Counter(zip(map(rename, replayed.arc_srcs), map(rename, replayed.arc_tgts)))
        return got == Counter(zip(g.arc_srcs, g.arc_tgts))


def _drop_isolated(g: DirectedGraph) -> DirectedGraph:
    touched = set(g.arc_srcs).union(g.arc_tgts)
    return graph_from_columns(
        filter(touched.__contains__, g.nodes), g.arc_ids, g.arc_srcs, g.arc_tgts
    )


def euler_check(g: DirectedGraph, ignore_isolated: bool = False) -> EulerReport:
    """Eulerian iff connected over all nodes and in = out everywhere.

    Isolated arcless nodes fail the connectivity requirement unless
    ignore_isolated drops them first.
    """
    if ignore_isolated:
        g = _drop_isolated(g)
    if not g.arc_ids:
        raise NoArcsError("graph has no arcs")
    violations = tuple(
        (v, len(g.in_arc_ids(v)), len(g.out_arc_ids(v)))
        for v in g.nodes
        if len(g.in_arc_ids(v)) != len(g.out_arc_ids(v))
    )
    connected = is_connected(g)
    return EulerReport(connected and not violations, connected, violations)


def _extract_cycles(g: DirectedGraph) -> list[ClosedWalk]:
    """Arc-injective cycles covering the arcs, by the smallest-unused-arc rule.

    Pre: balanced degrees and connected (caller checked).  The first cycle
    starts at the source of the globally smallest arc id; each later cycle
    starts at the smallest unused arc whose source was already visited, popped
    from a heap that holds the out-arcs of every visited node.  Arcs are only
    used as the smallest unused out-arc of their source, so each node keeps a
    cursor into its sorted out-arcs.
    """
    out_ids = {v: sorted(g.out_arc_ids(v)) for v in g.nodes}
    cursor = dict.fromkeys(g.nodes, 0)
    tgt = dict(zip(g.arc_ids, g.arc_tgts))
    src = dict(zip(g.arc_ids, g.arc_srcs))
    unused = set(tgt)
    visited: set[str] = set()
    candidates = [min(unused)]
    cycles: list[ClosedWalk] = []
    while unused:
        start_arc = heapq.heappop(candidates)
        if start_arc not in unused:
            continue
        start = src[start_arc]
        walk: list[str] = []
        v = start
        while True:
            aid = out_ids[v][cursor[v]]
            cursor[v] += 1
            unused.discard(aid)
            walk.append(aid)
            v = tgt[aid]
            if v not in visited:
                visited.add(v)
                for b in out_ids[v]:
                    heapq.heappush(candidates, b)
            if v == start:
                break
        cycles.append(ClosedWalk(g, tuple(walk)))
    return cycles


def euler_cycle(g: DirectedGraph, ignore_isolated: bool = False) -> ClosedWalk:
    """Closed walk using every arc exactly once, spliced from extracted cycles.

    Each later cycle goes in just before the first visit of its base node.
    The splices run on plain lists, and the walk is built and checked once.
    """
    if ignore_isolated:
        g = _drop_isolated(g)
    report = euler_check(g)
    if not report.is_eulerian:
        raise NotEulerianError(_not_eulerian_message(report))
    first, *rest = _extract_cycles(g)
    arcs, visits = list(first.arcs), list(first.visits)
    for cyc in rest:
        _splice(arcs, visits, cyc, cyc.base)
    return ClosedWalk(g, tuple(arcs))


def _splice(arcs: list[str], visits: list[str], cycle: ClosedWalk, at: str) -> None:
    """Insert cycle, rotated to its first visit of at, into the walk given by
    arcs and visits, just before the walk's first visit of at."""
    k = cycle.visits.index(at)
    pos = visits.index(at)
    arcs[pos:pos] = cycle.arcs[k:] + cycle.arcs[:k]
    visits[pos:pos] = cycle.visits[k:] + cycle.visits[:k]


def _not_eulerian_message(report: EulerReport) -> str:
    parts = []
    if not report.connected:
        parts.append("graph is not connected")
    for v, ind, outd in report.balance_violations[:3]:
        parts.append(f"node {v!r} has in={ind} out={outd}")
    if len(report.balance_violations) > 3:
        parts.append(f"... {len(report.balance_violations) - 3} more")
    return "; ".join(parts) or "graph is not Eulerian"


def covering_cycle(g: DirectedGraph) -> ClosedWalk:
    """Closed walk visiting every arc at least once (not minimal in general).

    Concatenates, for each arc not already covered, a shortest path from the
    base node to the arc's source, the arc, and a shortest path from its
    target back to the base.
    """
    if not g.arc_ids:
        raise NoArcsError("graph has no arcs")
    if not is_strongly_connected(g):
        raise NotStronglyConnectedError("covering cycle needs a strongly connected graph")
    base = g.nodes[0]
    to_arc = _bfs_paths_from(g, base, forward=True)
    from_arc = _bfs_paths_from(g, base, forward=False)
    arcs: list[str] = []
    covered: set[str] = set()
    for aid, src, tgt in zip(g.arc_ids, g.arc_srcs, g.arc_tgts):
        if aid in covered:
            continue
        segment = to_arc[src] + (aid,) + from_arc[tgt]
        arcs.extend(segment)
        covered.update(segment)
    return ClosedWalk(g, tuple(arcs), base=base)


def _bfs_paths_from(
    g: DirectedGraph, root: str, forward: bool
) -> dict[str, tuple[str, ...]]:
    """Shortest arc sequences root->v (forward) or v->root (backward)."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in g.nodes}
    for aid, src, tgt in zip(g.arc_ids, g.arc_srcs, g.arc_tgts):
        if forward:
            adj[src].append((tgt, aid))
        else:
            adj[tgt].append((src, aid))
    paths: dict[str, tuple[str, ...]] = {root: ()}
    queue = [root]
    while queue:
        nxt: list[str] = []
        for v in queue:
            for w, aid in adj[v]:
                if w not in paths:
                    paths[w] = paths[v] + (aid,) if forward else (aid,) + paths[v]
                    nxt.append(w)
        queue = nxt
    return paths


def euler_decompose(
    g: DirectedGraph, ignore_isolated: bool = False
) -> AttachmentDecomposition:
    """Construction script rebuilding g from a single cycle via glue/attach.

    The script is derived without building the intermediate graphs, from the
    naming rules of the surgery operations: the base cycle's nodes are
    ``x{i}``, the k-th attach at hub h creates ``{h}_c{k}_{i}`` (its node 0
    is h itself), and a glue keeps the smaller id.  Replaying the steps yields
    g up to renaming of merged nodes; use ``matches(g)`` to verify.
    """
    if ignore_isolated:
        g = _drop_isolated(g)
    report = euler_check(g)
    if not report.is_eulerian:
        raise NotEulerianError(_not_eulerian_message(report))
    walks = _extract_cycles(g)
    steps: list[GlueStep | AttachStep] = []
    to_sim: dict[str, str] = {}

    def place(gn: str, cur: str) -> None:
        """Map input node gn to the fresh replay node cur, gluing on a revisit."""
        prev = to_sim.get(gn)
        if prev is None:
            to_sim[gn] = cur
        else:
            steps.append(GlueStep(prev, cur))
            to_sim[gn] = min(prev, cur)

    first = walks[0]
    for i, gn in enumerate(first.visits):
        place(gn, f"x{i}")
    attaches: Counter = Counter()
    for w in walks[1:]:
        hub = to_sim[w.visits[0]]
        k = attaches[hub]
        attaches[hub] += 1
        steps.append(AttachStep(hub, w.length))
        for i, gn in enumerate(w.visits[1:], start=1):
            place(gn, f"{hub}_c{k}_{i}")
    correspondence = {s: gn for gn, s in to_sim.items()}
    return AttachmentDecomposition(first.length, tuple(steps), correspondence)
