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
the library's SCC decomposition, which other tests check on its own.
"""

from __future__ import annotations

from itertools import product

from hog.core import ClosedWalk, DirectedGraph, GraphMorphism, standard_cycle
from hog.homotopy import WeakEquivalenceVerdict
from hog.scc import SccDecomposition, scc_decompose


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


def component_verdict_by_sets(
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
    dom = [i for i, arcs in enumerate(dx.component_arcs) if arcs]
    cod = [j for j, arcs in enumerate(dy.component_arcs) if arcs]
    return component_verdict_by_sets(f, dx, dy, dom, cod)


def weq_reflexive_by_sets(f) -> WeakEquivalenceVerdict:
    """The verdict of a ReflexiveMorphism on freshly rebuilt underlying graphs."""
    f.validate()
    dom = DirectedGraph(f.domain.nodes, f.domain.arcs)
    cod = DirectedGraph(f.codomain.nodes, f.codomain.arcs)
    return weq_by_sets(GraphMorphism(dom, cod, f.node_map, f.arc_map))
