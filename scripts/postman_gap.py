#!/usr/bin/env python3
"""How far covering walks are from optimal on small strongly connected graphs.

Tabulates the overhead of the minimal covering closed walk over the arc count
(zero exactly on Eulerian graphs) and how much longer the naive shortest-path
covering construction is than the optimum.
"""

import sys
from collections import Counter

from hog.enumeration import connected_small_graphs
from hog.euler import covering_cycle, euler_check
from hog.homology import minimal_covering_walk
from hog.scc import is_strongly_connected


def main(max_nodes: int = 3, max_arcs: int = 5) -> None:
    overhead: Counter = Counter()
    naive_excess: Counter = Counter()
    worst = None
    total = 0
    for g in connected_small_graphs(max_nodes, max_arcs):
        if not is_strongly_connected(g):
            continue
        total += 1
        _, minimal = minimal_covering_walk(g)
        gap = minimal - len(g.arc_ids)
        overhead[gap] += 1
        naive = covering_cycle(g).length
        naive_excess[naive - minimal] += 1
        if worst is None or gap > worst[0]:
            worst = (gap, g)
        if gap and euler_check(g).is_eulerian:
            sys.exit(f"postman overhead {gap} on an Eulerian graph: {g!r}")
    print(f"strongly connected multigraphs: {total}")
    print("postman overhead (minimal length - arc count: count):")
    for gap in sorted(overhead):
        print(f"  {gap}: {overhead[gap]}")
    print("naive covering walk excess over the optimum (excess: count):")
    for excess in sorted(naive_excess):
        print(f"  {excess}: {naive_excess[excess]}")
    if worst and worst[0] > 0:
        gap, g = worst
        arcs = ", ".join(f"{a.src}->{a.tgt}" for a in g.arcs)
        print(f"worst overhead {gap} on: {arcs}")


if __name__ == "__main__":
    main()
