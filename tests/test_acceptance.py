"""End-to-end verification suite.

One test per acceptance criterion; each prints a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The corpora are
exhaustive small-graph enumerations; oracles live in tests/oracles.py and
never share algorithms with the code under test.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from itertools import product
from operator import itemgetter

import numpy as np

from hog.core import GraphMorphism, build_graph, standard_cycle, trace_of_power
from hog.enumeration import connected_small_graphs, small_graphs
from hog.euler import euler_check
from hog.homology import (
    ArcChain,
    boundary_0,
    boundary_1,
    decompose_positive_chain,
    euler_via_homology,
    homology_summary,
    minimal_covering_walk,
    positive_kernel_vectors,
)
from hog.homotopy import (
    _closed_walk_arc_tuples,
    brute_force_weq_check,
    cofibrant_replacement,
    enumerate_hom_cycles,
    is_weak_equivalence,
)
from hog.pagerank import pagerank
from hog.reflexive import (
    ReflexiveMorphism,
    add_degeneracies,
    enumerate_nondegenerate_cycles,
    is_weak_equivalence_reflexive,
    lift_morphism,
    strip_degeneracies,
)
from hog.scc import is_acyclic, is_connected, scc_decompose
from oracles import (
    arc_bijective_closed_walk_exists,
    incidence_kernel_rank_sympy,
    markov_from_graph,
    min_covering_closed_walk_length,
)

N_MAX = 8


def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {title}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@functools.cache
def corpus_small():
    """Exhaustive: <=3 nodes, <=4 arcs, deduplicated up to arc relabeling."""
    return tuple(small_graphs(3, 4))


@functools.cache
def corpus_connected():
    """Exhaustive: weakly connected, <=4 nodes, 1..6 arcs."""
    return tuple(connected_small_graphs(4, 6))


@functools.cache
def _graph_infos():
    infos = []
    for g in corpus_small():
        idx = g.node_index
        cells: dict[tuple[int, int], list[str]] = {}
        for a in g.arcs:
            cells.setdefault((idx[a.src], idx[a.tgt]), []).append(a.id)
        infos.append(
            {
                "g": g,
                "n": len(g.nodes),
                "cells": list(cells.items()),
                "cellmap": cells,
                "traces": [trace_of_power(g, n) for n in range(N_MAX + 1)],
            }
        )
    return infos


def _first_nonbijective(sigma, nx, ny, tx_vec, ty_vec, dom_getters, xg, arc_map):
    """Smallest length 0..N_MAX where composition fails to be a bijection.

    Counts come from trace vectors (validated against enumeration by the
    hom-count criterion); explicit tuple mapping happens only when both
    counts are equal and positive, where injectivity is the open question.
    Each domain walk maps through one ``itemgetter`` over its arc tuple,
    built once per domain graph and length.  A one-arc walk maps to a bare
    arc id rather than a 1-tuple, which leaves the images equally distinct.
    """
    if nx != ny or len(set(sigma)) != nx:
        return 0
    for n in range(1, N_MAX + 1):
        tx, ty = tx_vec[n], ty_vec[n]
        if tx != ty:
            return n
        if tx:
            getters = dom_getters.get(n)
            if getters is None:
                getters = [itemgetter(*t) for t in _closed_walk_arc_tuples(xg, n, None)]
                dom_getters[n] = getters
            images = {get(arc_map) for get in getters}
            if len(images) != tx:
                return n
    return None


@functools.cache
def morphism_scan():
    """Exhaustive criterion-2 scan over every valid morphism in the corpus.

    Returns totals, the list of weak equivalences (reused by the reflexive
    criterion), a deterministic sample for validating brute_force_weq_check
    itself, and any verdict/oracle discrepancies.
    """
    infos = _graph_infos()
    total = 0
    true_records: list[tuple[int, int, dict, dict]] = []
    discrepancies: list[tuple] = []
    samples: list[tuple[int, int, dict, dict, int | None]] = []
    for xi, X in enumerate(infos):
        xg = X["g"]
        nx = X["n"]
        xcells = X["cells"]
        tx_vec = X["traces"]
        xnodes = xg.nodes
        dom_getters: dict[int, list] = {}
        for yi, Y in enumerate(infos):
            if xcells and not Y["cellmap"]:
                continue
            yg = Y["g"]
            ny = Y["n"]
            ycm = Y["cellmap"]
            ty_vec = Y["traces"]
            ynodes = yg.nodes
            for sigma in product(range(ny), repeat=nx):
                flat_arcs: list[str] = []
                flat_choices: list[list[str]] = []
                feasible = True
                for (s, t), xarcs in xcells:
                    m = ycm.get((sigma[s], sigma[t]))
                    if m is None:
                        feasible = False
                        break
                    for a in xarcs:
                        flat_arcs.append(a)
                        flat_choices.append(m)
                if not feasible:
                    del flat_arcs[:]
                    continue
                node_map = {xnodes[i]: ynodes[sigma[i]] for i in range(nx)}
                for combo in product(*flat_choices):
                    arc_map = dict(zip(flat_arcs, combo))
                    f = GraphMorphism(xg, yg, node_map, arc_map)
                    verdict = bool(is_weak_equivalence(f))
                    fail_n = _first_nonbijective(
                        sigma, nx, ny, tx_vec, ty_vec, dom_getters, xg, arc_map
                    )
                    total += 1
                    if verdict != (fail_n is None):
                        if len(discrepancies) < 10:
                            discrepancies.append(
                                (xi, yi, node_map, arc_map, verdict, fail_n)
                            )
                    elif verdict:
                        true_records.append((xi, yi, dict(node_map), arc_map))
                    if total % 20011 == 0:
                        samples.append((xi, yi, dict(node_map), dict(arc_map), fail_n))
                del flat_arcs[:]
                del flat_choices[:]
    return {
        "total": total,
        "true": true_records,
        "samples": samples,
        "discrepancies": discrepancies,
    }


def test_criterion_1_euler_three_routes_agree():
    corpus = corpus_connected()
    mismatches = 0
    for g in corpus:
        check = euler_check(g).is_eulerian
        homological = euler_via_homology(g).is_eulerian
        searched = arc_bijective_closed_walk_exists(g)
        if not (check == homological == searched):
            mismatches += 1
    _report(
        1,
        "Euler criterion: balance, boundary, and exhaustive search agree",
        mismatches == 0,
        f"{len(corpus)} connected graphs, {mismatches} discrepancies",
    )


def test_criterion_2_weak_equivalence_matches_enumeration():
    scan = morphism_scan()
    ok = not scan["discrepancies"]
    # the library's own oracle entry point must reproduce the scan verdicts
    infos = _graph_infos()
    oracle_checked = 0
    for xi, yi, node_map, arc_map, fail_n in scan["samples"]:
        f = GraphMorphism(infos[xi]["g"], infos[yi]["g"], node_map, arc_map)
        reports = brute_force_weq_check(f, N_MAX)
        failing = [r.n for r in reports if not r.bijective]
        assert (min(failing) if failing else None) == fail_n
        oracle_checked += 1
    for xi, yi, node_map, arc_map in scan["true"][:50]:
        f = GraphMorphism(infos[xi]["g"], infos[yi]["g"], node_map, arc_map)
        assert all(r.bijective for r in brute_force_weq_check(f, N_MAX))
        oracle_checked += 1
    _report(
        2,
        "component verdict agrees with hom-set enumeration for n=0..8",
        ok,
        f"{scan['total']} morphisms, {len(scan['true'])} weak equivalences, "
        f"{len(scan['discrepancies'])} discrepancies, "
        f"{oracle_checked} re-checked via brute_force_weq_check",
    )


def test_criterion_3_hom_count_identity():
    bad = 0
    checked = 0
    for g in corpus_small():
        for n in range(N_MAX + 1):
            if len(enumerate_hom_cycles(g, n, cap=None)) != trace_of_power(g, n):
                bad += 1
            checked += 1
    _report(
        3,
        "enumerated walk counts equal adjacency-power traces",
        bad == 0,
        f"{checked} (graph, length) pairs",
    )


def test_criterion_4_cofibrant_replacement():
    bad = 0
    for g in corpus_small():
        core, embedding = cofibrant_replacement(g)
        if not is_weak_equivalence(embedding):
            bad += 1
            continue
        again, _ = cofibrant_replacement(core)
        if again != core:
            bad += 1
    _report(
        4,
        "core embedding is a weak equivalence and the core is idempotent",
        bad == 0,
        f"{len(corpus_small())} graphs",
    )


@functools.cache
def _cyclic_corpus():
    members = []
    for g in corpus_small():
        walks = []
        for n in range(1, 5):
            walks.extend(_closed_walk_arc_tuples(g, n, None))
        if walks:
            members.append((g, walks))
    return members


def test_criterion_5_positive_chain_decomposition():
    rng = random.Random(52_05_01)
    members = _cyclic_corpus()
    produced = 0
    bad = 0
    while produced < 1000:
        g, walks = members[rng.randrange(len(members))]
        coeffs: Counter = Counter()
        for _ in range(rng.randint(1, 3)):
            walk = walks[rng.randrange(len(walks))]
            mult = rng.randint(1, 2)
            for aid in walk:
                coeffs[aid] += mult
        if not coeffs or max(coeffs.values()) > 3:
            continue
        chain = ArcChain(g, dict(coeffs))
        produced += 1
        dec = decompose_positive_chain(chain)
        if dec.arc_multiset() != Counter(chain.coefficients):
            bad += 1
        if any(w.length == 0 for w in dec.cycles):
            bad += 1
    _report(
        5,
        "positive boundaryless chains decompose into closed walks exactly",
        bad == 0,
        f"{produced} chains",
    )


def test_criterion_6_postman_matches_exhaustive_minimum():
    checked = 0
    bad = 0
    for g in corpus_connected():
        if len(scc_decompose(g).components) != 1:
            continue
        walk, minimal = minimal_covering_walk(g)
        counts = Counter(walk.arcs)
        covering = all(counts[a.id] >= 1 for a in g.arcs)
        oracle = min_covering_closed_walk_length(g)
        eulerian = euler_check(g).is_eulerian
        if not covering or walk.length != minimal or minimal != oracle:
            bad += 1
        if eulerian and minimal != len(g.arcs):
            bad += 1
        checked += 1
    _report(
        6,
        "minimal covering walk equals the exhaustive-search minimum",
        bad == 0,
        f"{checked} strongly connected graphs",
    )


def test_criterion_7_homology_ranks():
    bad = 0
    checked = 0
    for g in corpus_small():
        summary = homology_summary(g)
        comps = summary.component_count
        if summary.h1_rank != len(g.arcs) - len(g.nodes) + comps:
            bad += 1
        if summary.h0_rank != max(comps - 1, 0):
            bad += 1
        if summary.h1_rank != incidence_kernel_rank_sympy(g):
            bad += 1
        if g.nodes and (summary.h0_rank == 0) != is_connected(g):
            bad += 1
        # zero rank forces acyclicity; the full converse holds for the positive
        # part of the kernel only (two parallel arcs: acyclic, rank one), which
        # is the reading the cycle correspondence supports
        if summary.h1_rank == 0 and not is_acyclic(g):
            bad += 1
        if (len(positive_kernel_vectors(g, 2)) == 0) != is_acyclic(g):
            bad += 1
        checked += 1
    _report(
        7,
        "homology ranks match the independent elimination oracle",
        bad == 0,
        f"{checked} graphs",
    )


def test_criterion_8_reflexive_weak_equivalences():
    scan = morphism_scan()
    infos = _graph_infos()
    # strip after add is the identity, so the nondegenerate cycle sets of the
    # lifted morphisms are exactly the walk sets criterion 2 checked
    for g in corpus_small():
        assert strip_degeneracies(add_degeneracies(g)) == g
    bad = 0
    cycle_checked = 0
    for k, (xi, yi, node_map, arc_map) in enumerate(scan["true"]):
        f = GraphMorphism(infos[xi]["g"], infos[yi]["g"], node_map, arc_map)
        lifted = lift_morphism(f)
        if not is_weak_equivalence_reflexive(lifted):
            bad += 1
            continue
        # explicit cycle-bijection re-run through the reflexive machinery:
        # full depth on every cyclic case, spot checks on the acyclic bulk
        # (whose cycle sets criterion 2 already matched exhaustively)
        cyclic = any(infos[xi]["traces"][1:])
        if cyclic:
            if not _nondegenerate_bijection_up_to(lifted, 4):
                bad += 1
            cycle_checked += 1
        elif k % 401 == 0:
            if not _nondegenerate_bijection_up_to(lifted, N_MAX):
                bad += 1
            cycle_checked += 1
    counter_ok = _canonical_counterexample_behaves()
    nonlift_ok = _sampled_nonlift_morphisms_are_not_weqs()
    _report(
        8,
        "reflexive weak equivalences preserve nondegenerate cycles",
        bad == 0 and counter_ok and nonlift_ok,
        f"{len(scan['true'])} lifted weak equivalences, "
        f"{cycle_checked} cycle-bijection re-checks",
    )


def _nondegenerate_bijection_up_to(f: ReflexiveMorphism, n_max: int) -> bool:
    for n in range(1, n_max + 1):
        dom = enumerate_nondegenerate_cycles(f.domain, n, cap=None)
        cod = enumerate_nondegenerate_cycles(f.codomain, n, cap=None)
        images = {
            (f.node_map[w.base],) + tuple(f.arc_map[a] for a in w.arcs)
            for w in dom
        }
        if len(images) != len(dom.morphisms) or len(images) != len(cod.morphisms):
            return False
    return True


def _canonical_counterexample_behaves() -> bool:
    arc_r = add_degeneracies(build_graph(["x", "y"], [("a", "x", "y")]))
    dot_r = add_degeneracies(build_graph(["z"], []))
    collapse = ReflexiveMorphism(
        arc_r,
        dot_r,
        {"x": "z", "y": "z"},
        {"a": "loop_z", "loop_x": "loop_z", "loop_y": "loop_z"},
    )
    if not collapse.is_valid():
        return False
    if is_weak_equivalence_reflexive(collapse):
        return False
    return _nondegenerate_bijection_up_to(collapse, N_MAX)


def _sampled_nonlift_morphisms_are_not_weqs() -> bool:
    # send a nondegenerate self-loop to a degenerate one: never a weak equivalence
    loop_graph = build_graph(["x"], [("a", "x", "x")])
    rx = add_degeneracies(loop_graph)
    squash = ReflexiveMorphism(
        rx, rx, {"x": "x"}, {"a": "loop_x", "loop_x": "loop_x"}
    )
    if not squash.is_valid():
        return False
    return not is_weak_equivalence_reflexive(squash)


def _random_graph(rng: random.Random, max_nodes: int = 8):
    n = rng.randint(1, max_nodes)
    nodes = [f"x{i}" for i in range(n)]
    m = rng.randint(0, 2 * n)
    arcs = [
        (f"a{k}", nodes[rng.randrange(n)], nodes[rng.randrange(n)])
        for k in range(m)
    ]
    return build_graph(nodes, arcs)


def test_criterion_9_pagerank():
    bad = 0
    for n in range(1, N_MAX + 1):
        scores = pagerank(standard_cycle(n)).scores
        if any(abs(s - 1.0 / n) > 1e-9 for s in scores.values()):
            bad += 1
    rng = random.Random(90_90_90)
    tol = 1e-12
    for _ in range(100):
        g = _random_graph(rng)
        rank = pagerank(g, tol=tol)
        matrix = markov_from_graph(g)
        vec = np.array([rank.scores[v] for v in g.nodes])
        damped = 0.85 * matrix.entries @ vec + 0.15 / matrix.order
        if np.abs(damped - vec).sum() >= 10 * tol:
            bad += 1
        if abs(sum(rank.scores.values()) - 1.0) > 1e-9:
            bad += 1
        # permutation equivariance: relabel via a rotation of the node list
        perm = list(g.nodes)
        rng.shuffle(perm)
        order = {v: i for i, v in enumerate(perm)}
        permuted = build_graph(
            sorted(g.nodes, key=order.get),
            sorted(g.arcs, key=lambda a: a.id),
        )
        other = pagerank(permuted, tol=tol)
        if any(abs(rank.scores[v] - other.scores[v]) > 1e-12 for v in g.nodes):
            bad += 1
    _report(
        9,
        "pagerank: uniform on cycles, fixed point, permutation equivariant",
        bad == 0,
        "cycles n=1..8 plus 100 random graphs",
    )


def test_criterion_10_boundary_identity():
    rng = random.Random(10_10_10)
    corpus = corpus_small()
    bad = 0
    for _ in range(1000):
        g = corpus[rng.randrange(len(corpus))]
        coeffs = {
            a.id: rng.randint(-3, 3) for a in g.arcs if rng.random() < 0.8
        }
        chain = ArcChain(g, coeffs)
        if boundary_0(boundary_1(chain)) != 0:
            bad += 1
    _report(
        10,
        "boundary of a boundary vanishes",
        bad == 0,
        "1000 random chains",
    )
