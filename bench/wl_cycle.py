"""cycle-space: the superlinear layers on one fresh seeded case per op.

One op runs homology_summary on a strongly connected multigraph, the postman
tour (minimal_covering_walk) on the largest SCC of a random graph, and
euler_cycle, euler_decompose and euler_via_homology on a union of Hamiltonian
cycles.  The sizes give each of the three parts a fifth to a half of the op.
"""

from __future__ import annotations

import checks
from gen import hamiltonian_union, largest_scc, rng_for, strongly_connected
from harness import Workload

HOMOLOGY = (40, 160)  # nodes, arcs
POSTMAN = (220, 880)  # random graph whose largest SCC is used
EULER = (100, 4)  # nodes, Hamiltonian cycles


def make_case(rng, homology=HOMOLOGY, postman=POSTMAN, euler=EULER):
    return (strongly_connected(rng, *homology), largest_scc(rng, *postman),
            hamiltonian_union(rng, *euler))


class CycleSpace(Workload):
    name = "cycle-space"
    op_doc = ("one op = homology_summary on {}/{}, postman on the largest SCC of {}/{}, "
              "Euler cycle, decomposition and homology route on {}x{} arcs").format(*HOMOLOGY, *POSTMAN, *EULER)

    def setup(self) -> None:
        self.op(make_case(rng_for(self.seed, "cycle-warm"), (10, 30), (30, 120), (20, 3)))

    def make_input(self, i: int):
        return make_case(rng_for(self.seed, "cycle", i))

    def op(self, case):
        from hog import core, euler, homology

        hom, post, eul = case
        summary = homology.homology_summary(core.build_graph(*hom))
        tour, length = homology.minimal_covering_walk(core.build_graph(*post))
        ge = core.build_graph(*eul)
        cycle = euler.euler_cycle(ge)
        script = euler.euler_decompose(ge)
        via = homology.euler_via_homology(ge)
        return summary, tour, length, ge, cycle, script, via

    def digest(self, case, out):
        summary, tour, length, ge, cycle, script, via = out
        return {
            "case": case,
            "homology": (summary.h0_rank, summary.h1_rank, summary.component_count,
                         [c.coefficients for c in summary.h1_basis]),
            "tour": (tour.arcs, length),
            "euler": (ge, cycle.arcs, script, via.is_eulerian, via.cycle.arcs if via.cycle else ()),
        }

    def check(self, rec) -> list[str]:
        (hn, ha), (pn, pa), (en, ea) = rec["case"]
        problems = checks.homology(hn, _ends(ha), *rec["homology"])
        tour, length = rec["tour"]
        pends = _ends(pa)
        problems += checks.postman_length(pn, list(pends.values()), length)
        problems += checks.closed_walk(tour, pends, length=length)
        ge, cycle, script, via_ok, via_cycle = rec["euler"]
        eends = _ends(ea)
        problems += checks.closed_walk(cycle, eends, every_arc_once=True)
        if not via_ok:
            problems.append("euler_via_homology says the Eulerian input is not Eulerian")
        problems += checks.closed_walk(via_cycle, eends, every_arc_once=True)
        if not script.matches(ge):
            problems.append("euler_decompose script does not rebuild the graph")
        return problems

    def exact_counts(self, rec) -> dict[str, float]:
        tour, length = rec["tour"]
        return {
            "euler.script_steps": len(rec["euler"][2].steps),
            "homology.postman_extra_arcs": length - len(rec["case"][1][1]),
        }

    def report_shares(self, values, op_s, out) -> None:
        parts = ("homology.summary_s", "homology.postman_s", "euler.decompose_s")
        print("share of the traced op: " + ", ".join(f"{p} {values[p] / op_s:.1%}" for p in parts), file=out)


def _ends(arcs) -> dict[str, tuple[str, str]]:
    return {a: (s, t) for a, s, t in arcs}
