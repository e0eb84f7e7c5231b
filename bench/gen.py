"""Seeded input generators: the same seed gives the same bytes.

Graphs come out as plain node lists and (arc id, src, tgt) triples, or as
edge-list text, so the program receives only generated data.
"""

from __future__ import annotations

import random

import networkx as nx

Arcs = list[tuple[str, str, str]]


def rng_for(seed: int, label: str, index: int = 0) -> random.Random:
    return random.Random(f"{seed}/{label}/{index}")


def web_text(rng: random.Random, n: int = 2000, m: int = 100_000) -> str:
    """Edge-list text of a web-shaped multigraph.

    70% of the nodes form a giant strongly connected core (a ring plus random
    links), 12% an upstream tendril (arcs only toward later upstream nodes or
    into the core), 12% a downstream tendril fed by the core, and 6% dangling
    pages with no outgoing arcs.  About 5% of the arcs repeat an earlier arc.
    """
    n_core, n_tendril = n * 70 // 100, n * 12 // 100
    up0, down0, dang0 = n_core, n_core + n_tendril, n_core + 2 * n_tendril
    pairs = [(i, (i + 1) % n_core) for i in range(n_core)]
    pairs += [(u, rng.randrange(n_core)) for u in range(up0, down0)]
    pairs += [(rng.randrange(n_core), d) for d in range(down0, dang0)]
    pairs += [(rng.randrange(down0, dang0), d) for d in range(dang0, n)]
    while len(pairs) < m:
        r = rng.random()
        if r < 0.85:
            pairs.append((rng.randrange(n_core), rng.randrange(n_core)))
        elif r < 0.90:
            u = rng.randrange(up0, down0 - 1)
            pairs.append((u, rng.randrange(u + 1, down0) if rng.random() < 0.5 else rng.randrange(n_core)))
        elif r < 0.95:
            d = rng.randrange(down0, dang0 - 1)
            pairs.append((d, rng.randrange(d + 1, n)))
        else:
            pairs.append(pairs[rng.randrange(len(pairs))])
    rng.shuffle(pairs)
    return "".join(f"p{s} p{t}\n" for s, t in pairs)


def edgelist_pairs(text: str) -> list[tuple[str, str]]:
    """The (src, tgt) pairs of edge-list text without comments or ids."""
    return [tuple(line.split()[:2]) for line in text.splitlines() if line.strip()]


def _triples(pairs: list[tuple[int, int]], prefix: str = "v") -> Arcs:
    return [(f"a{k}", f"{prefix}{s}", f"{prefix}{t}") for k, (s, t) in enumerate(pairs)]


def strongly_connected(rng: random.Random, n: int, m: int) -> tuple[list[str], Arcs]:
    """A random Hamiltonian cycle plus m - n random arcs (loops and parallels allowed)."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(m - n)]
    rng.shuffle(pairs)
    return [f"v{i}" for i in range(n)], _triples(pairs)


def largest_scc(rng: random.Random, n: int, m: int) -> tuple[list[str], Arcs]:
    """Largest strongly connected component of a random multigraph."""
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    comp = max(nx.strongly_connected_components(g), key=lambda c: (len(c), -min(c)))
    keep = [(s, t) for s, t in pairs if s in comp and t in comp]
    return [f"v{i}" for i in sorted(comp)], _triples(keep)


def hamiltonian_union(rng: random.Random, n: int, k: int) -> tuple[list[str], Arcs]:
    """Union of k random Hamiltonian cycles on n nodes: Eulerian by construction."""
    pairs = []
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        pairs += [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    return [f"v{i}" for i in range(n)], _triples(pairs)


def random_multigraph(rng: random.Random, n: int, m: int) -> tuple[list[str], Arcs]:
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return [f"v{i}" for i in range(n)], _triples(pairs)


def relabel(rng: random.Random, nodes: list[str], arcs: Arcs):
    """A shuffled, renamed copy and the isomorphism onto it."""
    order = list(range(len(nodes)))
    rng.shuffle(order)
    node_map = {nodes[i]: f"w{j}" for j, i in enumerate(order)}
    arc_order = list(range(len(arcs)))
    rng.shuffle(arc_order)
    arc_map = {arcs[i][0]: f"b{j}" for j, i in enumerate(arc_order)}
    new_nodes = [f"w{j}" for j in range(len(nodes))]
    new_arcs = [(arc_map[arcs[i][0]], node_map[arcs[i][1]], node_map[arcs[i][2]]) for i in arc_order]
    return new_nodes, new_arcs, node_map, arc_map
