"""Ungated size ladder: how each layer grows with input size.

    python3 bench/ladder.py

Reproduces the rows of the ROADMAP baseline table from the same seeded
generators as the benchmark, one timing per row, and writes them to
bench_out/ladder.json.  It takes about a minute and up to about 1 GB of
memory.  No result here gates anything; the workloads in run.py do that.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


def rows():
    from gen import hamiltonian_union, largest_scc, random_multigraph, rng_for, strongly_connected, web_text
    from hog import core, euler, homology, io, scc

    pagerank = importlib.import_module("hog.pagerank")
    rng = rng_for(0, "ladder")
    for n, m in ((10_000, 50_000), (100_000, 500_000)):
        nodes, arcs = random_multigraph(rng, n, m)
        build_s, g = timed(core.build_graph, nodes, arcs)
        cold_s, _ = timed(scc.scc_decompose, g)
        hit_s, _ = timed(scc.scc_decompose, g)
        size = f"{n} nodes / {m} arcs"
        yield "build_graph", size, build_s, ""
        yield "scc_decompose", size, cold_s, f"cache hit (re-hash) {hit_s * 1e3:.1f} ms"
        del g, nodes, arcs
    for n, m in ((100, 300), (200, 600)):
        g = core.build_graph(*strongly_connected(rng, n, m))
        yield "homology_summary", f"{n} nodes / {m} arcs", timed(homology.homology_summary, g)[0], ""
    for n, k in ((300, 3), (1000, 3)):
        g = core.build_graph(*hamiltonian_union(rng, n, k))
        yield "euler_decompose", f"{n * k} arcs", timed(euler.euler_decompose, g)[0], ""
    g = core.build_graph(*hamiltonian_union(rng, 5000, 4))
    yield "euler_cycle", "20000 arcs", timed(euler.euler_cycle, g)[0], ""
    g = core.build_graph(*largest_scc(rng, 1000, 4000))
    yield ("minimal_covering_walk", f"{len(g.nodes)} nodes / {len(g.arcs)} arcs",
           timed(homology.minimal_covering_walk, g)[0], "largest SCC of 1000 nodes / 4000 arcs")
    for n in (2000, 4000):
        g = io.parse_graph_text(web_text(rng, n, 20 * n))
        yield ("pagerank", f"{n} nodes / {20 * n} arcs", timed(pagerank.pagerank, g)[0],
               f"dense matrix 8*n^2 = {8 * n * n / 2**20:.0f} MiB (computed, not measured)")
    yield "import hog.cli", "one process", import_cost(), "median of 5, minus bare interpreter start"


def import_cost() -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf_counter() - t0

    wall("import hog.cli")  # compile bytecode once
    floor = statistics.median(wall("pass") for _ in range(5))
    return statistics.median(wall("import hog.cli") for _ in range(5)) - floor


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hog", "__init__.py")):
        print(f"error: no hog sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    table = []
    for layer, size, seconds, note in rows():
        table.append({"layer": layer, "size": size, "seconds": seconds, "note": note})
        print(f"{layer:22s} {size:28s} {seconds:9.3f} s  {note}", flush=True)
    out_dir = os.path.join(ROOT, "bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "ladder.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
