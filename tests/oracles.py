"""Independent brute-force oracles for cross-checking the library.

Everything here deliberately avoids the library's own algorithms: reachability
by transitive closure, Euler circuits by exhaustive walk search, postman
lengths by breadth-first search over covered-arc states, walk counts by raw
itertools filtering, and matrix ranks via sympy.  The one exception is the
Euler attachment script, whose reference replays the library's own glue and
attach surgery step by step, as the script's definition says.

The weak-equivalence references keep the component verdict as it was before
it read precomputed component tables: sets rebuilt on every call, index lists
passed in, and the reflexive verdict on freshly forgotten graphs.  They share
the library's SCC decomposition, which other tests check on its own, and
bucket the arcs inside each component with ``component_arcs_by_loop``.

The per-arc references keep the edge-list parser, the SCC decomposition, its
inner-arc buckets, the acyclicity test and the cofibrant core as they were
while every per-arc pass was a Python loop with string-keyed lookups, and
``euler_cycle`` and the postman splice as they were while they spliced whole
validated walks.

``markov_from_graph`` builds PageRank's dense column-stochastic transition
matrix, the small-n reference for the arc-list iteration.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from hog.core import (
    Arc,
    ClosedWalk,
    DirectedGraph,
    GraphMorphism,
    graph_from_columns,
    standard_cycle,
)
from hog.errors import EmptyGraphError, NotConnectedError, ParseError
from hog.homotopy import WeakEquivalenceVerdict
from hog.scc import SccDecomposition, scc_decompose

if TYPE_CHECKING:
    import numpy as np


def scc_by_transitive_closure(g: DirectedGraph) -> set[frozenset[str]]:
    """Component partition from pairwise reachability (Floyd-Warshall style)."""
    n = len(g.nodes)
    idx = g.node_index
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for a in g.arcs:
        reach[idx[a.src]][idx[a.tgt]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    comps = set()
    for i in range(n):
        comp = frozenset(
            g.nodes[j] for j in range(n) if reach[i][j] and reach[j][i]
        )
        comps.add(comp)
    return comps


def arc_bijective_closed_walk_exists(g: DirectedGraph) -> bool:
    """Exhaustive search for a closed walk using every arc exactly once.

    Memoized over (node, used-arc bitmask); no degree reasoning anywhere.
    """
    arcs = g.arcs
    m = len(arcs)
    if m == 0:
        return False
    idx = g.node_index
    out: list[list[int]] = [[] for _ in g.nodes]
    for pos, a in enumerate(arcs):
        out[idx[a.src]].append(pos)
    tgt = [idx[a.tgt] for a in arcs]
    start = idx[arcs[0].src]  # any covering closed walk can be rotated here
    full = (1 << m) - 1
    memo: dict[tuple[int, int], bool] = {}

    def search(v: int, used: int) -> bool:
        if used == full:
            return v == start
        key = (v, used)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = False
        for pos in out[v]:
            bit = 1 << pos
            if not used & bit and search(tgt[pos], used | bit):
                ok = True
                break
        memo[key] = ok
        return ok

    return search(start, 0)


def min_covering_closed_walk_length(g: DirectedGraph) -> int | None:
    """Length of the shortest closed walk covering every arc, by state BFS.

    States are (current node, set of covered arcs); a covering closed walk can
    always be rotated to start at the source of the first arc.
    """
    arcs = g.arcs
    m = len(arcs)
    if m == 0:
        return None
    idx = g.node_index
    out: list[list[int]] = [[] for _ in g.nodes]
    for pos, a in enumerate(arcs):
        out[idx[a.src]].append(pos)
    tgt = [idx[a.tgt] for a in arcs]
    start = idx[arcs[0].src]
    full = (1 << m) - 1
    seen = {(start, 0)}
    frontier = [(start, 0)]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for v, covered in frontier:
            for pos in out[v]:
                state = (tgt[pos], covered | (1 << pos))
                if state[1] == full and state[0] == start:
                    return steps
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return None


def naive_closed_walk_tuples(g: DirectedGraph, n: int) -> list[tuple[str, ...]]:
    """All length-n based closed walks by filtering raw arc tuples."""
    if n == 0:
        return [(v,) for v in g.nodes]
    arcs = {a.id: a for a in g.arcs}
    walks = []
    for combo in product([a.id for a in g.arcs], repeat=n):
        ok = all(
            arcs[combo[i]].tgt == arcs[combo[i + 1]].src for i in range(n - 1)
        )
        if ok and arcs[combo[-1]].tgt == arcs[combo[0]].src:
            walks.append(combo)
    return walks


def incidence_kernel_rank_sympy(g: DirectedGraph) -> int:
    """Kernel rank of the node-by-arc incidence matrix, via sympy."""
    import sympy

    rows = []
    idx = g.node_index
    for node in g.nodes:
        row = [0] * len(g.arcs)
        rows.append(row)
    for col, a in enumerate(g.arcs):
        rows[idx[a.tgt]][col] += 1
        rows[idx[a.src]][col] -= 1
    if not g.arcs:
        return 0
    matrix = sympy.Matrix(rows)
    return len(g.arcs) - matrix.rank()


def _extract_cycles_by_scan(g: DirectedGraph) -> list[ClosedWalk]:
    """Smallest-unused-arc cycle extraction with a full scan per cycle."""
    unused = {a.id for a in g.arcs}
    out_ids = {v: sorted(a.id for a in g.out_arcs(v)) for v in g.nodes}
    tgt = {a.id: a.tgt for a in g.arcs}
    src = {a.id: a.src for a in g.arcs}
    visited: set[str] = set()
    cycles: list[ClosedWalk] = []
    while unused:
        if not cycles:
            start_arc = min(unused)
        else:
            start_arc = min(a for a in unused if src[a] in visited)
        start = src[start_arc]
        walk: list[str] = []
        v = start
        while True:
            aid = next(a for a in out_ids[v] if a in unused)
            unused.discard(aid)
            walk.append(aid)
            v = tgt[aid]
            if v == start:
                break
        cycles.append(ClosedWalk(g, tuple(walk)))
        visited.update(src[a] for a in walk)
        visited.update(tgt[a] for a in walk)
    return cycles


def euler_decompose_by_replay(g: DirectedGraph):
    """Attachment script of an Eulerian graph, built by replaying every step.

    Each glue and attach runs on a simulated graph, and an attach's fresh
    nodes are read back from the enlarged graph, so no naming rule is assumed.
    """
    from hog import homotopy
    from hog.euler import AttachmentDecomposition, AttachStep, GlueStep

    walks = _extract_cycles_by_scan(g)
    first = walks[0]
    sim = standard_cycle(first.length)
    steps: list = []
    to_sim: dict[str, str] = {}

    def place(gn: str, cur: str) -> None:
        nonlocal sim
        if gn in to_sim:
            a = to_sim[gn]
            steps.append(GlueStep(a, cur))
            sim, _ = homotopy.glue_nodes(sim, a, cur)
            to_sim[gn] = min(a, cur)
        else:
            to_sim[gn] = cur

    for gn, cur in zip(first.visits, list(sim.nodes), strict=True):
        place(gn, cur)
    for w in walks[1:]:
        hub = to_sim[w.visits[0]]
        before = set(sim.nodes)
        steps.append(AttachStep(hub, w.length))
        sim, _ = homotopy.attach_cycle(sim, hub, w.length)
        fresh = [n for n in sim.nodes if n not in before]
        for gn, cur in zip(w.visits[1:], fresh, strict=True):
            place(gn, cur)
    correspondence = {s: gn for gn, s in to_sim.items()}
    return AttachmentDecomposition(first.length, tuple(steps), correspondence)


def attach_cycle_by_union_and_glue(g: DirectedGraph, x: str, m: int) -> DirectedGraph:
    """``attach_cycle`` built as two surgeries: the disjoint union of g with a
    fresh m-cycle ``{x}_c{k}_i`` (arcs ``{x}_c{k}_a{i}``), k the first free
    index, then ``glue_nodes`` of x with the cycle's base node."""
    from hog import homotopy

    taken = set(g.nodes).union(g.arc_ids)
    k = 0
    while not taken.isdisjoint(
        [f"{x}_c{k}_{i}" for i in range(m)] + [f"{x}_c{k}_a{i}" for i in range(m)]
    ):
        k += 1
    ring = tuple(f"{x}_c{k}_{i}" for i in range(m))
    union = graph_from_columns(
        g.nodes + ring,
        g.arc_ids + tuple(f"{x}_c{k}_a{i}" for i in range(m)),
        g.arc_srcs + ring,
        g.arc_tgts + ring[1:] + ring[:1],
    )
    return homotopy.glue_nodes(union, x, ring[0])[0]


def component_verdict_by_sets(
    f: GraphMorphism,
    dx: SccDecomposition,
    dy: SccDecomposition,
    dom_indices: list[int],
    cod_indices: list[int],
) -> WeakEquivalenceVerdict:
    nm, am = f.node_map, f.arc_map
    dx_arcs, dy_arcs = component_arcs_by_loop(dx), component_arcs_by_loop(dy)
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
        arc_images = [am[a.id] for a in dx_arcs[i]]
        target_arcs = {a.id for a in dy_arcs[j]}
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


def weq_by_sets(f: GraphMorphism) -> WeakEquivalenceVerdict:
    f.validate()
    dx = scc_decompose(f.domain)
    dy = scc_decompose(f.codomain)
    return component_verdict_by_sets(
        f, dx, dy, list(range(len(dx.components))), list(range(len(dy.components)))
    )


def weq_cycles_only_by_sets(f: GraphMorphism) -> WeakEquivalenceVerdict:
    f.validate()
    dx = scc_decompose(f.domain)
    dy = scc_decompose(f.codomain)
    dom = [i for i, arcs in enumerate(component_arcs_by_loop(dx)) if arcs]
    cod = [j for j, arcs in enumerate(component_arcs_by_loop(dy)) if arcs]
    return component_verdict_by_sets(f, dx, dy, dom, cod)


def weq_reflexive_by_sets(f) -> WeakEquivalenceVerdict:
    """The verdict of a ReflexiveMorphism on freshly rebuilt underlying graphs."""
    f.validate()
    dom = DirectedGraph(f.domain.nodes, f.domain.arcs)
    cod = DirectedGraph(f.codomain.nodes, f.codomain.arcs)
    return weq_by_sets(GraphMorphism(dom, cod, f.node_map, f.arc_map))


def parse_edgelist_by_loop(text: str) -> DirectedGraph:
    arcs: list[Arc] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        parts = raw.split()
        if len(parts) == 2:
            arcs.append(Arc(f"e{len(arcs)}", parts[0], parts[1]))
        elif len(parts) == 3:
            arcs.append(Arc(parts[2], parts[0], parts[1]))
        elif parts:
            raise ParseError(f"line {lineno}: expected 'src tgt [arc_id]'")
    nodes = dict.fromkeys(v for a in arcs for v in (a.src, a.tgt))
    return DirectedGraph(tuple(nodes), tuple(arcs))


def scc_decompose_by_loops(g: DirectedGraph) -> SccDecomposition:
    """Single-pass Tarjan decomposition (iterative, insertion-order determinism)."""
    idx_of = g.node_index
    n = len(g.nodes)
    # One insertion-ordered dict per node drops parallel arcs in O(1) each.
    succ_seen: list[dict[int, None]] = [{} for _ in range(n)]
    for a in g.arcs:
        succ_seen[idx_of[a.src]][idx_of[a.tgt]] = None
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
            recurse = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if index[w] == -1:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
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
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    ordered = tuple(tuple(g.nodes[i] for i in sorted(comp)) for comp in components)
    component_of = {g.nodes[i]: comp_of[i] for i in range(n)}

    seen_pairs: set[tuple[int, int]] = set()
    cond_arcs: list[Arc] = []
    for a in g.arcs:
        ci, cj = component_of[a.src], component_of[a.tgt]
        if ci != cj and (ci, cj) not in seen_pairs:
            seen_pairs.add((ci, cj))
            cond_arcs.append(Arc(f"e{len(cond_arcs)}", str(ci), str(cj)))
    condensation = DirectedGraph(
        tuple(str(i) for i in range(len(components))), tuple(cond_arcs)
    )
    return SccDecomposition(g, ordered, component_of, condensation)


def component_arcs_by_loop(dec: SccDecomposition) -> tuple[tuple[Arc, ...], ...]:
    """Arcs lying inside each component, in graph order."""
    buckets: list[list[Arc]] = [[] for _ in dec.components]
    comp = dec.component_of
    for a in dec.graph.arcs:
        ci = comp[a.src]
        if ci == comp[a.tgt]:
            buckets[ci].append(a)
    return tuple(tuple(b) for b in buckets)


def is_acyclic_by_loop(g: DirectedGraph) -> bool:
    """True iff there is no closed walk of positive length."""
    comp = scc_decompose_by_loops(g).component_of
    return not any(comp[a.src] == comp[a.tgt] for a in g.arcs)


def cofibrant_replacement_by_loop(g: DirectedGraph) -> tuple[DirectedGraph, GraphMorphism]:
    """Keep all nodes and exactly the arcs inside strongly connected components."""
    comp = scc_decompose_by_loops(g).component_of
    kept = tuple(a for a in g.arcs if comp[a.src] == comp[a.tgt])
    core = DirectedGraph(g.nodes, kept)
    embedding = GraphMorphism(
        core, g, {n: n for n in core.nodes}, {a.id: a.id for a in kept}
    )
    return core, embedding


def _splice_walks(current: ClosedWalk, cycle: ClosedWalk, at: str) -> ClosedWalk:
    rebased = cycle.rotate_to(at)
    pos = current.visits.index(at)
    return ClosedWalk(
        current.graph,
        current.arcs[:pos] + rebased.arcs + current.arcs[pos:],
        base=current.base if current.arcs else at,
    )


def splice_all_by_walks(walks: list[ClosedWalk]) -> ClosedWalk:
    """Merge closed walks sharing nodes into one; smallest shared id first."""
    current = walks[0]
    rest = list(walks[1:])
    while rest:
        best: tuple[str, int] | None = None
        current_nodes = set(current.visits)
        for i, w in enumerate(rest):
            shared = current_nodes & set(w.visits)
            if shared:
                node = min(shared)
                if best is None or node < best[0]:
                    best = (node, i)
        if best is None:
            raise NotConnectedError("walks do not connect; graph not connected?")
        node, i = best
        current = _splice_walks(current, rest.pop(i), node)
    return current


def euler_cycle_by_walk_splicing(g: DirectedGraph) -> ClosedWalk:
    """Euler circuit of a balanced connected graph, splicing whole walks."""
    from hog.euler import _extract_cycles

    cycles = _extract_cycles(g)
    walk = cycles[0]
    for cyc in cycles[1:]:
        walk = _splice_walks(walk, cyc, cyc.base)
    return walk


class MarkovMatrix(NamedTuple):
    order: int
    entries: np.ndarray
    index: dict[str, int]


def markov_from_graph(g: DirectedGraph) -> MarkovMatrix:
    """Column-stochastic transition matrix; parallel arcs add probability mass."""
    import numpy as np

    if not g.nodes:
        raise EmptyGraphError("cannot normalize an empty graph")
    n = len(g.nodes)
    idx = g.node_index
    counts = np.zeros((n, n), dtype=np.float64)
    for src, tgt in zip(g.arc_srcs, g.arc_tgts):
        counts[idx[tgt], idx[src]] += 1.0
    sums = counts.sum(axis=0)
    entries = np.empty_like(counts)
    for j in range(n):
        if sums[j] == 0.0:
            entries[:, j] = 1.0 / n
        else:
            entries[:, j] = counts[:, j] / sums[j]
    return MarkovMatrix(n, entries, dict(idx))
