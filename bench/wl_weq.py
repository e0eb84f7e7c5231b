"""weq-stream: batches of weak-equivalence verdicts on reused graphs.

One op is a batch of 4000 verdicts in the fixed mix ``MIX``; each verdict
constructs its ``GraphMorphism`` inside the op.  3680 of the verdicts are
the verdict traffic of the acceptance suite, in its own proportions:

* criterion 2 makes one ``is_weak_equivalence`` call for each of the
  8 750 800 valid morphisms between graphs of ``small_graphs(3, 4)``.
  112 538 are weak equivalences.  95.1% exit in the component matching:
  7 502 966 map two components onto one, and 822 974 miss a codomain
  component.  The other 4.9% reach the per-component checks;
* criterion 8 makes one ``is_weak_equivalence_reflexive`` call on the lift of
  each of those 112 538 weak equivalences.

So 3633 full verdicts go to corpus morphisms drawn uniformly from all valid
morphisms, each counted once as criterion 2 enumerates them, and 47
reflexive verdicts go to lifts of weak equivalences drawn the same way
(3680 x 112 538 / 8 863 338 = 46.7).  The other 320 run what the suite does
not time: full verdicts on relabelling isomorphisms and on cofibrant
embeddings of 24-40-node graphs, which run the whole check at scale, and
``is_weak_equivalence_cycles_only`` on all three pools.  They take about
a third of the batch time.

The graphs are reused, so scc_decompose only hits its cache.
"""

from __future__ import annotations

import itertools
import math

from gen import random_multigraph, relabel, rng_for
from harness import Workload

FULL, CYCLES, REFLEXIVE = 0, 1, 2
ORACLE_N = 8  # the exhaustive acceptance scan compares verdicts up to this length
CORPUS = (3, 4)  # small_graphs(max nodes, max arcs), as in the acceptance suite
# Entries: (kind, source pool, count per batch).
MIX = (
    (FULL, "corpus", 3633), (REFLEXIVE, "corpus-weq", 47),
    (FULL, "iso", 80), (FULL, "cofibrant", 80),
    (CYCLES, "corpus", 80), (CYCLES, "iso", 40), (CYCLES, "cofibrant", 40),
)
CORPUS_POOL = 192
WEQ_POOL = 24
BIG_GRAPH_NODES = (24, 28, 32, 36, 40) * 2  # two arcs per node


class WeqStream(Workload):
    name = "weq-stream"
    op_doc = f"one op = a batch of {sum(k for *_, k in MIX)} weak-equivalence verdicts"

    def setup(self) -> None:
        from hog import core, enumeration, homotopy, reflexive

        rng = rng_for(self.seed, "weq-pool")
        corpus = list(enumeration.small_graphs(*CORPUS))
        every, bijective = CorpusSampler(corpus), CorpusSampler(corpus, bijective=True)
        pools: dict[str, list] = {"corpus": [every.draw(rng) for _ in range(CORPUS_POOL)],
                                  "corpus-weq": [], "iso": [], "cofibrant": []}
        # Every weak equivalence is a bijection on nodes (length-0 walks), so
        # drawing bijective node maps and keeping the weak equivalences draws
        # uniformly from the weak equivalences.
        for _ in range(200 * WEQ_POOL):
            m = bijective.draw(rng)
            if homotopy.is_weak_equivalence(core.GraphMorphism(*m)):
                pools["corpus-weq"].append(m)
                if len(pools["corpus-weq"]) == WEQ_POOL:
                    break
        else:
            raise RuntimeError("is_weak_equivalence found too few weak equivalences in the corpus")
        for n in BIG_GRAPH_NODES:
            nodes, arcs = random_multigraph(rng, n, 2 * n)
            g = core.build_graph(nodes, arcs)
            new_nodes, new_arcs, nm, am = relabel(rng, nodes, arcs)
            pools["iso"].append((g, core.build_graph(new_nodes, new_arcs), nm, am))
            sub, emb = homotopy.cofibrant_replacement(g)
            pools["cofibrant"].append((sub, g, emb.node_map, emb.arc_map))
        # items: (kind, pool, index in pool, payload)
        self.items = []
        self.slots: dict[tuple[int, str], list[int]] = {}
        for kind, pool, _ in MIX:
            slot = self.slots.setdefault((kind, pool), [])
            for j, (dom, cod, nm, am) in enumerate(pools[pool]):
                if kind == REFLEXIVE:
                    payload = reflexive.lift_morphism(core.GraphMorphism(dom, cod, nm, am))
                else:
                    payload = (dom, cod, nm, am)
                slot.append(len(self.items))
                self.items.append((kind, pool, j, payload))
        self.pools = pools
        self._oracle: dict[tuple[str, int], tuple[bool, bool]] = {}
        self.cycles_only_misses = 0
        self.op(self.make_input(-1))

    def make_input(self, i: int) -> tuple[int, ...]:
        rng = rng_for(self.seed, "weq-batch", i)
        batch = []
        for kind, pool, count in MIX:
            slot = self.slots[(kind, pool)]
            batch += [slot[rng.randrange(len(slot))] for _ in range(count)]
        rng.shuffle(batch)
        return tuple(batch)

    def op(self, batch: tuple[int, ...]) -> bytes:
        from hog import core, homotopy, reflexive

        items = self.items
        out = bytearray()
        for k in batch:
            kind, _, _, payload = items[k]
            if kind == REFLEXIVE:
                verdict = reflexive.is_weak_equivalence_reflexive(payload)
            elif kind == FULL:
                verdict = homotopy.is_weak_equivalence(core.GraphMorphism(*payload))
            else:
                verdict = homotopy.is_weak_equivalence_cycles_only(core.GraphMorphism(*payload))
            out.append(verdict.is_weak_equivalence)
        return bytes(out)

    def digest(self, batch, out):
        return batch, out

    def check(self, rec) -> list[str]:
        batch, out = rec
        wrong = []
        for k, got in zip(batch, out):
            kind, pool, j, _ = self.items[k]
            full, cycles = self.truth(pool, j)
            if kind != CYCLES:
                ok = bool(got) == full
            elif pool != "corpus":
                ok = bool(got) == cycles
            else:
                # One-sided: is_weak_equivalence_cycles_only says False on some
                # corpus morphisms that are bijective on closed walks of every
                # positive length (it requires injectivity on nodes), so only a
                # True verdict is checked; the other misses are counted.  One
                # such morphism folds a two-node component with a loop at each
                # node and a 2-cycle onto one node with two loops.
                ok = not got or cycles
                self.cycles_only_misses += not got and cycles
            if not ok:
                wrong.append(k)
        if len(out) != len(batch) or wrong:
            kind, pool, j, _ = self.items[wrong[0]] if wrong else self.items[batch[0]]
            return [f"{len(wrong)} wrong verdicts, first kind {kind} on {pool} #{j}"]
        return []

    def notes(self) -> list[str]:
        return [f"cycles-only verdicts False on corpus morphisms the oracle finds bijective "
                f"at lengths 1..{ORACLE_N}: {self.cycles_only_misses} (a known defect; not counted as failed)"]

    def truth(self, pool: str, j: int) -> tuple[bool, bool]:
        """(full, cycles-only) verdicts that are right for pool item j.

        Isomorphisms and cofibrant embeddings are weak equivalences in both
        classes by construction.  A corpus morphism gets the verdicts of the
        enumeration oracle.  Lifting adds one loop per node, mapped loop to
        loop, and keeps every component, so a lifted morphism has the full
        verdict of the morphism it lifts.
        """
        if pool in ("iso", "cofibrant"):
            return True, True
        if (pool, j) not in self._oracle:
            from hog import core, homotopy

            reports = homotopy.brute_force_weq_check(core.GraphMorphism(*self.pools[pool][j]), ORACLE_N)
            self._oracle[pool, j] = (all(r.bijective for r in reports),
                                     all(r.bijective for r in reports if r.n > 0))
        return self._oracle[pool, j]


class CorpusSampler:
    """Uniform draws from the valid morphisms between graphs of a corpus.

    Each morphism counts once, as the acceptance scan enumerates them: a node
    map and then every compatible arc map.  Graphs are grouped by node count,
    arc count and largest number of parallel arcs; a pair of groups is drawn
    in proportion to an upper bound on its morphism count, then a pair of
    graphs and a node map uniformly, and the draw is kept with probability
    (compatible arc maps) / (the bound's arc-map factor).  With ``bijective``
    only bijective node maps are drawn.
    """

    def __init__(self, graphs: list, bijective: bool = False) -> None:
        self.graphs = graphs
        self.bijective = bijective
        self.cells = []
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i, g in enumerate(graphs):
            idx = g.node_index
            cells: dict[tuple[int, int], list[str]] = {}
            for a in g.arcs:
                cells.setdefault((idx[a.src], idx[a.tgt]), []).append(a.id)
            self.cells.append(cells)
            widest = max((len(c) for c in cells.values()), default=1)
            groups.setdefault((len(g.nodes), len(g.arcs), widest), []).append(i)
        self.pairs, weights = [], []
        for kx, xs in sorted(groups.items()):
            for ky, ys in sorted(groups.items()):
                (nx, ax, _), (ny, _, wy) = kx, ky
                if bijective and nx != ny:
                    continue
                node_maps = math.factorial(nx) if bijective else ny ** nx
                self.pairs.append((xs, ys, wy ** ax))
                weights.append(len(xs) * len(ys) * node_maps * wy ** ax)
        self.cum = list(itertools.accumulate(weights))

    def draw(self, rng):
        """(domain, codomain, node map, arc map) of one uniform morphism."""
        graphs, cells = self.graphs, self.cells
        while True:
            xs, ys, bound = rng.choices(self.pairs, cum_weights=self.cum)[0]
            x, y = rng.choice(xs), rng.choice(ys)
            dom, cod = graphs[x], graphs[y]
            if self.bijective:
                sigma = rng.sample(range(len(cod.nodes)), len(cod.nodes))
            else:
                sigma = [rng.randrange(len(cod.nodes)) for _ in dom.nodes]
            arc_maps, picks = 1, []
            for (s, t), arcs in cells[x].items():
                targets = cells[y].get((sigma[s], sigma[t]))
                if targets is None:
                    arc_maps = 0
                    break
                arc_maps *= len(targets) ** len(arcs)
                picks.append((arcs, targets))
            if arc_maps and rng.random() * bound < arc_maps:
                nm = {v: cod.nodes[sigma[i]] for i, v in enumerate(dom.nodes)}
                am = {a: rng.choice(targets) for arcs, targets in picks for a in arcs}
                return dom, cod, nm, am

