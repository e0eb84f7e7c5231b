"""Integer chain complex of a directed multigraph.

One-chains are stored by their arc images: an integer coefficient per arc.
The boundary of an arc is target minus source; its kernel is the cycle space
(first homology), which is free, so a rank and a basis describe it fully.
The boundary's rank is the node count minus the weak-component count, so
both ranks follow from that count with no matrix elimination, and the basis
has one chain per arc outside a spanning forest.
Positive chains with zero boundary decompose constructively into closed walks,
which yields both a boundary-based Euler criterion and, combined with a
min-cost flow over the degree imbalances, the minimal covering closed walk
(the directed postman tour).
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import product
from typing import Callable, Mapping, NamedTuple, Sequence

from . import euler
from .core import ClosedWalk, DirectedGraph
from .errors import (
    CapExceededError,
    CoefficientError,
    InvariantError,
    NegativeCoefficientError,
    NoArcsError,
    NonzeroBoundaryError,
    NotConnectedError,
    NotStronglyConnectedError,
    ValidationError,
)
from .euler import EulerReport
from .scc import _UnionFind, is_connected, is_strongly_connected, weak_components


def _nonzero_integers(
    coefficients: Mapping[str, int], lookup: Callable[[str], object]
) -> dict[str, int]:
    """The nonzero entries, after checking that every value is an int and
    then that lookup, which raises on an unknown id, accepts every key."""
    for key, c in coefficients.items():
        if isinstance(c, bool) or not isinstance(c, int):
            raise CoefficientError(f"coefficient of {key!r} is not an integer")
    for key in coefficients:
        lookup(key)
    return {key: c for key, c in coefficients.items() if c}


class _ChainFields(NamedTuple):
    graph: DirectedGraph
    coefficients: dict[str, int]


class ArcChain(_ChainFields):
    """Finitely supported integer vector over the arcs (zero entries dropped)."""

    __slots__ = ()

    def __new__(cls, graph: DirectedGraph, coefficients: Mapping[str, int]) -> ArcChain:
        return tuple.__new__(cls, (graph, _nonzero_integers(coefficients, graph.arc_position)))

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coefficients.values())

    @property
    def length(self) -> int:
        return sum(abs(c) for c in self.coefficients.values())

    def add(self, other: "ArcChain") -> "ArcChain":
        if other.graph != self.graph:
            raise ValidationError("chains live on different graphs")
        merged = Counter(self.coefficients)
        merged.update(other.coefficients)
        return ArcChain(self.graph, dict(merged))


class NodeChain(_ChainFields):
    __slots__ = ()

    def __new__(cls, graph: DirectedGraph, coefficients: Mapping[str, int]) -> NodeChain:
        # out_arc_ids raises UnknownNodeError for a node outside the graph
        return tuple.__new__(cls, (graph, _nonzero_integers(coefficients, graph.out_arc_ids)))


class HomologySummary(NamedTuple):
    h0_rank: int
    h1_rank: int
    h1_basis: tuple[ArcChain, ...]
    component_count: int


class CycleDecomposition(NamedTuple):
    cycles: tuple[ClosedWalk, ...]
    multiplicities: tuple[int, ...]

    def arc_multiset(self) -> Counter:
        total: Counter = Counter()
        for walk, mult in zip(self.cycles, self.multiplicities):
            for aid in walk.arcs:
                total[aid] += mult
        return total


def boundary_1(u: ArcChain) -> NodeChain:
    """Linear extension of arc -> target - source (self-loops vanish)."""
    out: Counter = Counter()
    g = u.graph
    for aid, c in u.coefficients.items():
        k = g.arc_index[aid]
        out[g.arc_tgts[k]] += c
        out[g.arc_srcs[k]] -= c
    return NodeChain(u.graph, dict(out))


def boundary_0(v: NodeChain) -> int:
    """Sum of coefficients; zero on every boundary of a 1-chain."""
    return sum(v.coefficients.values())


def fundamental_chain(g: DirectedGraph) -> ArcChain:
    """Coefficient 1 on every arc."""
    return ArcChain(g, dict.fromkeys(g.arc_ids, 1))


def homology_summary(g: DirectedGraph) -> HomologySummary:
    """Ranks from the weak components, basis from a spanning forest.

    The boundary has rank |V| - c for c weak components, so the cycle space
    has rank |E| - |V| + c.  The kernel of the boundary is free, so rank plus
    basis is a complete description.  The degree-zero rank is c - 1 (zero on
    the empty graph).
    """
    if not g.nodes:
        return HomologySummary(0, 0, (), 0)
    components = len(weak_components(g))
    h1_rank = len(g.arc_ids) - len(g.nodes) + components
    basis = _forest_cycle_basis(g)
    if len(basis) != h1_rank:
        raise InvariantError("cycle basis size disagrees with kernel rank")
    return HomologySummary(components - 1, h1_rank, basis, components)


def _forest_cycle_basis(g: DirectedGraph) -> tuple[ArcChain, ...]:
    """One kernel chain per non-forest arc: the arc plus its tree path back.

    The forest ignores orientation; tree arcs enter with +1 when traversed
    source-to-target and -1 otherwise, so every basis chain has zero boundary.
    Each tree is rooted once, and a chord's path climbs from both of its ends
    to their lowest common ancestor, so the cost is proportional to the output.
    """
    forest = _UnionFind(g.nodes)
    tree: dict[str, list[tuple[str, str, int]]] = {n: [] for n in g.nodes}
    chords = []
    for aid, src, tgt in zip(g.arc_ids, g.arc_srcs, g.arc_tgts):
        if forest.union(src, tgt):
            tree[src].append((tgt, aid, +1))
            tree[tgt].append((src, aid, -1))
        else:
            chords.append((aid, src, tgt))

    # up[v] = (parent node, tree arc, sign of the step from v to its parent)
    up: dict[str, tuple[str, str, int]] = {}
    depth: dict[str, int] = {}
    for root in g.nodes:
        if root in depth:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, aid, sign in tree[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    up[w] = (v, aid, -sign)
                    stack.append(w)

    def tree_path(frm: str, to: str) -> list[tuple[str, int]]:
        """Signed tree arcs from frm to to (+1 means traversed src->tgt)."""
        head: list[tuple[str, int]] = []
        tail: list[tuple[str, int]] = []
        while frm != to:
            if depth[frm] >= depth[to]:
                frm, aid, sign = up[frm]
                head.append((aid, sign))
            else:
                to, aid, sign = up[to]
                tail.append((aid, -sign))
        tail.reverse()
        return head + tail

    basis = []
    for aid, src, tgt in chords:
        coeffs = {aid: 1}
        coeffs.update(tree_path(tgt, src))
        basis.append(ArcChain(g, coeffs))
    return tuple(basis)


def decompose_positive_chain(u: ArcChain) -> CycleDecomposition:
    """Write a positive boundaryless chain as a sum of closed walks.

    Repeatedly starts at the first arc with positive residual and extends
    forward; flow conservation guarantees an unused outgoing arc at every
    node except back at the start, so each extraction closes.  The summed
    arc multiset of the result equals the input coefficients exactly.
    """
    if not u.is_positive:
        raise NegativeCoefficientError("chain has a negative coefficient")
    if boundary_1(u).coefficients:
        raise NonzeroBoundaryError("chain has nonzero boundary")
    g = u.graph
    residual = dict(u.coefficients)
    arc_order = g.arc_ids
    src = dict(zip(g.arc_ids, g.arc_srcs))
    tgt = dict(zip(g.arc_ids, g.arc_tgts))
    out_ids = {v: g.out_arc_ids(v) for v in g.nodes}
    cycles: list[ClosedWalk] = []
    mults: list[int] = []
    scan = 0
    while residual:
        while scan < len(arc_order) and residual.get(arc_order[scan], 0) <= 0:
            scan += 1
        start_arc = arc_order[scan]
        start = src[start_arc]
        walk = []
        v = start
        aid: str | None = start_arc
        while aid is not None:
            walk.append(aid)
            residual[aid] -= 1
            if not residual[aid]:
                del residual[aid]
            v = tgt[aid]
            aid = next((b for b in out_ids[v] if residual.get(b, 0) > 0), None)
        if v != start:
            raise InvariantError("extraction stuck away from its start")
        counts = Counter(walk)
        extra = min(residual.get(b, 0) // k for b, k in counts.items())
        if extra:
            for b, k in counts.items():
                residual[b] -= extra * k
                if not residual[b]:
                    del residual[b]
        cycles.append(ClosedWalk(g, tuple(walk)))
        mults.append(1 + extra)
    return CycleDecomposition(tuple(cycles), tuple(mults))


def _splice_all(walks: Sequence[ClosedWalk]) -> ClosedWalk:
    """Merge closed walks sharing nodes into one; smallest shared id first."""
    first, *rest = walks
    arcs, visits = list(first.arcs), list(first.visits)
    seen = set(visits)
    rest_nodes = [set(w.visits) for w in rest]
    while rest:
        best: tuple[str, int] | None = None
        for i, nodes in enumerate(rest_nodes):
            shared = seen & nodes
            if shared:
                node = min(shared)
                if best is None or node < best[0]:
                    best = (node, i)
        if best is None:
            raise NotConnectedError("walks do not connect; graph not connected?")
        node, i = best
        seen |= rest_nodes.pop(i)
        euler._splice(arcs, visits, rest.pop(i), node)
    return ClosedWalk(first.graph, tuple(arcs), base=visits[0])


def euler_via_homology(g: DirectedGraph) -> EulerReport:
    """Euler criterion through boundaries: the fundamental chain is a cycle.

    When the boundary of the all-ones chain vanishes, decomposing it gives
    arc-disjoint closed walks covering every arc, and connectivity lets them
    splice into a single Eulerian cycle.  Independent of the degree-balance
    route in euler_check; the two must agree.
    """
    if not g.arc_ids:
        raise NoArcsError("graph has no arcs")
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    chain = fundamental_chain(g)
    b = boundary_1(chain).coefficients
    if b:
        violations = tuple(
            (v, len(g.in_arc_ids(v)), len(g.out_arc_ids(v))) for v in g.nodes if v in b
        )
        return EulerReport(False, True, violations)
    cycle = _splice_all(decompose_positive_chain(chain).cycles)
    return EulerReport(True, True, (), cycle)


def _min_cost_duplicates(g: DirectedGraph) -> dict[str, int]:
    """Cheapest nonnegative arc multiset balancing every node's degree.

    Successive shortest paths with node potentials: surplus-in nodes supply
    extra traversals, surplus-out nodes absorb them, every arc costs one step.
    A virtual source and sink (potentials 0 and pot_t) keep all reduced costs
    nonnegative, so plain Dijkstra stays exact.  Feasible whenever the graph
    is strongly connected.
    """
    idx = g.node_index
    n = len(g.nodes)
    src_ix = list(map(idx.__getitem__, g.arc_srcs))
    tgt_ix = list(map(idx.__getitem__, g.arc_tgts))
    flow = [0] * len(src_ix)
    supply = [0] * n
    out_pos: list[list[int]] = [[] for _ in range(n)]
    in_pos: list[list[int]] = [[] for _ in range(n)]
    for pos, (s, t) in enumerate(zip(src_ix, tgt_ix)):
        supply[t] += 1
        supply[s] -= 1
        out_pos[s].append(pos)
        in_pos[t].append(pos)
    pot = [0] * n
    pot_t = 0
    remaining = sum(s for s in supply if s > 0)
    while remaining:
        dist: list[int | None] = [None] * n
        prev: list[tuple[int, int, bool] | None] = [None] * n
        heap = []
        for v in range(n):
            if supply[v] > 0:
                dist[v] = -pot[v]
                heapq.heappush(heap, (-pot[v], v))
        while heap:
            d, v = heapq.heappop(heap)
            if dist[v] != d:
                continue
            for pos in out_pos[v]:
                w = tgt_ix[pos]
                nd = d + 1 + pot[v] - pot[w]
                if dist[w] is None or nd < dist[w]:
                    dist[w] = nd
                    prev[w] = (v, pos, True)
                    heapq.heappush(heap, (nd, w))
            for pos in in_pos[v]:
                if flow[pos] > 0:
                    w = src_ix[pos]
                    nd = d - 1 + pot[v] - pot[w]
                    if dist[w] is None or nd < dist[w]:
                        dist[w] = nd
                        prev[w] = (v, pos, False)
                        heapq.heappush(heap, (nd, w))
        sink = min(
            (v for v in range(n) if supply[v] < 0 and dist[v] is not None),
            key=lambda v: (dist[v] + pot[v] - pot_t, v),
        )
        path = []
        v = sink
        while prev[v] is not None:
            u, pos, forward = prev[v]
            path.append((pos, forward))
            v = u
        source = v
        amount = min(supply[source], -supply[sink])
        for pos, forward in path:
            if not forward:
                amount = min(amount, flow[pos])
        for pos, forward in path:
            flow[pos] += amount if forward else -amount
        supply[source] -= amount
        supply[sink] += amount
        remaining -= amount
        d_t = dist[sink] + pot[sink] - pot_t
        for v in range(n):
            if dist[v] is not None:
                pot[v] += dist[v]
        pot_t += d_t
    return {aid: f for aid, f in zip(g.arc_ids, flow) if f}


def minimal_covering_walk(g: DirectedGraph) -> tuple[ClosedWalk, int]:
    """Shortest closed walk covering every arc (directed postman tour).

    Minimizes the length of the all-ones chain plus a nonnegative balancing
    chain found by min-cost flow, then realizes it by cycle decomposition and
    splicing.  On an Eulerian input the length equals the arc count.
    """
    if not g.arc_ids:
        raise NoArcsError("graph has no arcs")
    if not is_strongly_connected(g):
        raise NotStronglyConnectedError("postman tour needs a strongly connected graph")
    extra = _min_cost_duplicates(g)
    total = Counter(dict.fromkeys(g.arc_ids, 1))
    total.update(extra)
    chain = ArcChain(g, dict(total))
    dec = decompose_positive_chain(chain)
    expanded: list[ClosedWalk] = []
    for walk, mult in zip(dec.cycles, dec.multiplicities):
        expanded.extend([walk] * mult)
    tour = _splice_all(expanded)
    return tour, tour.length


def positive_kernel_vectors(
    g: DirectedGraph, max_coeff: int, cap: int = 10**6
) -> tuple[ArcChain, ...]:
    """All nonzero boundaryless chains with coefficients in 0..max_coeff.

    Brute-force enumeration over the coefficient grid; raises CapExceededError
    when the grid is larger than *cap*.
    """
    if max_coeff < 0:
        raise ValidationError("max_coeff must be >= 0")
    arcs = g.arc_ids
    grid = (max_coeff + 1) ** len(arcs)
    if grid > cap:
        raise CapExceededError(f"{grid} coefficient vectors exceed the cap of {cap}")
    found = []
    for combo in product(range(max_coeff + 1), repeat=len(arcs)):
        if not any(combo):
            continue
        chain = ArcChain(g, dict(zip(arcs, combo)))
        if not boundary_1(chain).coefficients:
            found.append(chain)
    return tuple(found)
