"""Independent output checks: networkx 3.6 and closed forms, never hog itself.

Each check takes plain data (node lists, (src, tgt) pairs, the program's
answer) and returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx

PAGERANK_ATOL = 1e-9


def weighted_digraph(nodes, pairs) -> nx.DiGraph:
    """Parallel arcs folded into an integer weight.

    networkx builds the same sparse matrix for a MultiDiGraph (it sums
    parallel-edge weights), so ``nx.pagerank`` returns identical scores; the
    folded graph is only cheaper to build.
    """
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_weighted_edges_from((s, t, w) for (s, t), w in Counter(pairs).items())
    return g


def scc_count(g: nx.DiGraph) -> int:
    return nx.number_strongly_connected_components(g)


def scc_partition(g: nx.DiGraph, components) -> list[str]:
    want = {frozenset(c) for c in nx.strongly_connected_components(g)}
    got = {frozenset(c) for c in components}
    if len(got) != len(components) or got != want:
        return [f"scc partition differs: {len(got)} components, networkx finds {len(want)}"]
    return []


def core_arcs(pairs, arc_ids, kept_ids, g: nx.DiGraph) -> list[str]:
    comp = {}
    for i, c in enumerate(nx.strongly_connected_components(g)):
        for v in c:
            comp[v] = i
    want = [a for a, (s, t) in zip(arc_ids, pairs) if comp[s] == comp[t]]
    if list(kept_ids) != want:
        return [f"cofibrant core keeps {len(kept_ids)} arcs, expected {len(want)}"]
    return []


def pagerank(g: nx.DiGraph, scores: dict, damping: float = 0.85) -> list[str]:
    ref = nx.pagerank(g, alpha=damping, tol=1e-14, max_iter=10_000, weight="weight")
    if set(ref) != set(scores):
        return ["pagerank scores cover other nodes than networkx"]
    worst = max(abs(ref[v] - scores[v]) for v in ref)
    if worst > PAGERANK_ATOL:
        return [f"pagerank differs from networkx by {worst:.3e}"]
    return []


def weak_component_count(nodes, pairs) -> int:
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(pairs)
    return nx.number_connected_components(g)


def homology(nodes, ends: dict, h0: int, h1: int, components: int, basis) -> list[str]:
    """h1 = |E| - |V| + c, h0 = c - 1, and every basis chain has zero boundary."""
    c = weak_component_count(nodes, ends.values())
    out = []
    if (h0, h1, components) != (c - 1, len(ends) - len(nodes) + c, c):
        out.append(f"homology ranks (h0={h0}, h1={h1}, c={components}) disagree with c={c}")
    if len(basis) != h1:
        out.append(f"basis has {len(basis)} chains for h1 = {h1}")
    return out + zero_boundaries(basis, ends)


def zero_boundaries(chains, ends: dict) -> list[str]:
    """Each chain maps arc ids to coefficients; ends maps arc ids to (src, tgt)."""
    for i, coeffs in enumerate(chains):
        bd: Counter = Counter()
        for aid, c in coeffs.items():
            s, t = ends[aid]
            bd[t] += c
            bd[s] -= c
        if any(bd.values()):
            return [f"basis chain {i} has nonzero boundary"]
    return []


def postman_length(nodes, pairs, length: int) -> list[str]:
    """Tour length = arc count + min-cost flow over the degree imbalances."""
    flow = nx.DiGraph()
    balance = Counter()
    for s, t in pairs:
        balance[s] += 1
        balance[t] -= 1
    for v in nodes:
        flow.add_node(v, demand=balance[v])
    for s, t in set(pairs):
        flow.add_edge(s, t, weight=1)
    want = len(pairs) + nx.min_cost_flow_cost(flow)
    if length != want:
        return [f"postman length {length}, expected {want}"]
    return []


def closed_walk(arc_ids, ends: dict, length: int | None = None, every_arc_once: bool = False) -> list[str]:
    """The walk chains arc to arc, closes, and optionally uses each arc once."""
    if not arc_ids:
        return ["empty walk"]
    for a, b in zip(arc_ids, list(arc_ids[1:]) + [arc_ids[0]]):
        if ends[a][1] != ends[b][0]:
            return [f"walk breaks between {a} and {b}"]
    if every_arc_once and sorted(arc_ids) != sorted(ends):
        return ["walk does not use every arc exactly once"]
    if not every_arc_once and set(arc_ids) != set(ends):
        return ["walk does not cover every arc"]
    if length is not None and len(arc_ids) != length:
        return [f"walk has {len(arc_ids)} arcs, expected {length}"]
    return []


def closed_walk_counts(nodes, pairs, n_max: int) -> list[int]:
    """trace(A^n) for n = 0..n_max over Python integers."""
    idx = {v: i for i, v in enumerate(nodes)}
    size = len(nodes)
    adj = [[0] * size for _ in range(size)]
    for s, t in pairs:
        adj[idx[s]][idx[t]] += 1
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    counts = []
    for _ in range(n_max + 1):
        counts.append(sum(power[i][i] for i in range(size)))
        power = [[sum(row[k] * adj[k][j] for k in range(size)) for j in range(size)] for row in power]
    return counts
