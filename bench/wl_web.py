"""web-rank: parse and rank one fresh web-shaped multigraph per op.

One op parses about 2000 nodes and 10^5 arcs of edge-list text, then runs
scc_decompose, cofibrant_replacement, connectivity_report and pagerank with
its defaults.  Every op's graph is new, so scc runs cold, and its cache is
never cleared: the graphs it pins show in peak_rss_mb.
"""

from __future__ import annotations

import importlib
import tracemalloc

import checks
from gen import edgelist_pairs, rng_for, web_text
from harness import TRACED_BASE, Workload

NODES, ARCS = 2000, 100_000


def _modules():
    return (importlib.import_module("hog.io"), importlib.import_module("hog.scc"),
            importlib.import_module("hog.homotopy"), importlib.import_module("hog.pagerank"))


class WebRank(Workload):
    name = "web-rank"
    op_doc = f"one op = parse, scc, cofibrant core, census and pagerank of a fresh {NODES}-node, {ARCS}-arc graph"

    def setup(self) -> None:
        self.op(web_text(rng_for(self.seed, "web-warm"), 200, 5000))

    def make_input(self, i: int) -> str:
        return web_text(rng_for(self.seed, "web", i), NODES, ARCS)

    def op(self, text: str):
        io, scc, homotopy, pagerank = _modules()
        g = io.parse_graph_text(text)
        dec = scc.scc_decompose(g)
        core, _ = homotopy.cofibrant_replacement(g)
        report = pagerank.connectivity_report(g)
        rank = pagerank.pagerank(g)
        return g, dec, core, report, rank

    def digest(self, text, out):
        g, dec, core, report, rank = out
        return {
            "text": text,
            "size": (len(g.nodes), len(g.arcs)),
            "components": dec.components,
            "kept": tuple(a.id for a in core.arcs),
            "census": (report.component_count, report.largest_component_size),
            "scores": rank.scores,
            "iterations": rank.iterations,
        }

    def check(self, rec) -> list[str]:
        pairs = edgelist_pairs(rec["text"])
        nodes = list(dict.fromkeys(v for p in pairs for v in p))
        if rec["size"] != (len(nodes), len(pairs)):
            return [f"parsed {rec['size']}, text has {(len(nodes), len(pairs))}"]
        g = checks.weighted_digraph(nodes, pairs)
        problems = checks.scc_partition(g, rec["components"])
        problems += checks.core_arcs(pairs, [f"e{k}" for k in range(len(pairs))], rec["kept"], g)
        sizes = sorted(len(c) for c in rec["components"])
        if rec["census"] != (len(sizes), sizes[-1]):
            problems.append(f"census {rec['census']} disagrees with the partition")
        return problems + checks.pagerank(g, rec["scores"])

    def layer_extras(self) -> dict[str, float]:
        """Allocation peak of pagerank on one op's graph, in a separate call.

        tracemalloc slows every allocation, so it runs only here, outside
        the timed and traced ops.
        """
        io, _, _, pagerank = _modules()
        g = io.parse_graph_text(self.make_input(TRACED_BASE))
        tracemalloc.start()
        try:
            pagerank.pagerank(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"pagerank.peak_alloc_mb": peak / 2**20}

    def exact_counts(self, rec) -> dict[str, float]:
        return {"pagerank.iterations": rec["iterations"]}
