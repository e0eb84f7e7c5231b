from collections import Counter

import pytest
from hypothesis import given, settings

from hog.core import build_graph, standard_cycle, standard_path
from hog.errors import (
    NegativeCoefficientError,
    NonzeroBoundaryError,
    NotConnectedError,
    NotStronglyConnectedError,
    UnknownNodeError,
    ValidationError,
)
from hog.euler import euler_check
from hog.homology import (
    ArcChain,
    NodeChain,
    boundary_0,
    boundary_1,
    decompose_positive_chain,
    euler_via_homology,
    fundamental_chain,
    homology_summary,
    minimal_covering_walk,
    positive_kernel_vectors,
)
from hog.scc import is_acyclic, is_connected, is_strongly_connected, weak_components
from oracles import incidence_kernel_rank_sympy, min_covering_closed_walk_length
from strategies import arc_chains, graphs


def test_boundary_of_single_arc():
    g = build_graph(["x", "y"], [("a", "x", "y")])
    b = boundary_1(ArcChain(g, {"a": 1}))
    assert b.coefficients == {"y": 1, "x": -1}


def test_boundary_of_self_loop_is_zero():
    g = standard_cycle(1)
    assert boundary_1(ArcChain(g, {"a0": 3})).coefficients == {}


def test_boundary_of_fundamental_cycle_chain():
    assert boundary_1(fundamental_chain(standard_cycle(3))).coefficients == {}


def test_boundary_zero_examples():
    g = build_graph(["x"], [])
    assert boundary_0(NodeChain(g, {"x": 1})) == 1
    assert boundary_0(NodeChain(g, {})) == 0


def test_chains_on_different_graphs_do_not_add():
    a, b = standard_cycle(2), standard_cycle(3)
    with pytest.raises(ValidationError) as exc:
        ArcChain(a, {"a0": 1}).add(ArcChain(b, {"a0": 1}))
    assert str(exc.value) == "chains live on different graphs"


@pytest.mark.parametrize("chain, key", [(ArcChain, "a0"), (NodeChain, "x0")])
@pytest.mark.parametrize("value", [1.5, 0.5, 1.0, True, False, "1", None])
def test_chain_coefficients_must_be_ints(chain, key, value):
    with pytest.raises(ValidationError) as exc:
        chain(standard_cycle(2), {key: value})
    assert str(exc.value) == f"coefficient of {key!r} is not an integer"


@pytest.mark.parametrize("chain, key", [(ArcChain, "a1"), (NodeChain, "x1")])
def test_chain_checks_every_type_before_any_id(chain, key):
    with pytest.raises(ValidationError) as exc:
        chain(standard_cycle(2), {"zz": 1, key: 0.5})
    assert str(exc.value) == f"coefficient of {key!r} is not an integer"


@pytest.mark.parametrize("chain, ids", [(ArcChain, ("a0", "a1")), (NodeChain, ("x0", "x1"))])
def test_chain_drops_zero_entries(chain, ids):
    g = standard_cycle(2)
    assert chain(g, {ids[0]: 0, ids[1]: -2}).coefficients == {ids[1]: -2}
    assert chain(g, {ids[0]: 0}).coefficients == {}


def test_node_chain_rejects_unknown_node():
    with pytest.raises(UnknownNodeError) as exc:
        NodeChain(standard_cycle(2), {"x0": 1, "y": 2})
    assert str(exc.value) == "unknown node 'y'"


@given(arc_chains())
def test_boundary_composition_vanishes(u):
    assert boundary_0(boundary_1(u)) == 0


def test_fundamental_chain_double_arc():
    g = build_graph(["x", "y"], [("a", "x", "y"), ("b", "x", "y"), ("c", "y", "x")])
    chain = fundamental_chain(g)
    assert chain.coefficients == {"a": 1, "b": 1, "c": 1}
    assert boundary_1(chain).coefficients == {"y": 1, "x": -1}


def test_length():
    assert fundamental_chain(standard_cycle(3)).length == 3
    g = standard_cycle(2)
    assert ArcChain(g, {}).length == 0
    assert ArcChain(g, {"a0": -2}).length == 2


def test_ranks_on_basic_graphs():
    for n in (1, 2, 5):
        summary = homology_summary(standard_cycle(n))
        assert (summary.h0_rank, summary.h1_rank) == (0, 1)
    summary = homology_summary(standard_path(4))
    assert (summary.h0_rank, summary.h1_rank) == (0, 0)
    two_cycles = build_graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "c", "d"), ("e3", "d", "c")],
    )
    summary = homology_summary(two_cycles)
    assert (summary.h0_rank, summary.h1_rank) == (1, 2)
    assert summary.component_count == 2


def test_empty_graph_summary():
    summary = homology_summary(build_graph([], []))
    assert (summary.h0_rank, summary.h1_rank, summary.component_count) == (0, 0, 0)


@given(graphs(max_nodes=5, max_arcs=8))
@settings(max_examples=80)
def test_ranks_match_formula_and_sympy(g):
    summary = homology_summary(g)
    comps = len(weak_components(g)) if g.nodes else 0
    assert summary.component_count == comps
    assert summary.h1_rank == len(g.arcs) - len(g.nodes) + comps
    assert summary.h0_rank == max(comps - 1, 0)
    assert summary.h1_rank == incidence_kernel_rank_sympy(g)
    for chain in summary.h1_basis:
        assert boundary_1(chain).coefficients == {}
    if g.nodes:
        assert (summary.h0_rank == 0) == is_connected(g)
    # zero kernel rank forces acyclicity; the converse holds only for the
    # positive part of the kernel (two parallel arcs are acyclic with rank 1)
    if summary.h1_rank == 0:
        assert is_acyclic(g)


@given(graphs(max_nodes=4, max_arcs=5))
@settings(max_examples=60)
def test_acyclic_iff_no_positive_kernel_vector(g):
    vectors = positive_kernel_vectors(g, 2)
    assert (len(vectors) == 0) == is_acyclic(g)


def test_decompose_fundamental_c3():
    dec = decompose_positive_chain(fundamental_chain(standard_cycle(3)))
    assert len(dec.cycles) == 1 and dec.cycles[0].length == 3
    assert dec.multiplicities == (1,)


def test_decompose_figure_eight(figure_eight):
    chain = fundamental_chain(figure_eight)
    dec = decompose_positive_chain(chain)
    assert dec.arc_multiset() == Counter(chain.coefficients)


def test_decompose_doubled_cycle():
    g = standard_cycle(2)
    chain = ArcChain(g, {"a0": 2, "a1": 2})
    dec = decompose_positive_chain(chain)
    assert dec.arc_multiset() == Counter({"a0": 2, "a1": 2})


def test_decompose_errors():
    g = standard_cycle(2)
    with pytest.raises(NegativeCoefficientError):
        decompose_positive_chain(ArcChain(g, {"a0": -1}))
    with pytest.raises(NonzeroBoundaryError):
        decompose_positive_chain(ArcChain(g, {"a0": 1}))


def test_euler_via_homology_examples(figure_eight):
    report = euler_via_homology(standard_cycle(4))
    assert report.is_eulerian and report.cycle.length == 4

    report = euler_via_homology(standard_path(3))
    assert not report.is_eulerian
    assert {v for v, _, _ in report.balance_violations} == {"x0", "x2"}

    report = euler_via_homology(figure_eight)
    assert report.is_eulerian
    assert Counter(report.cycle.arcs) == Counter(a.id for a in figure_eight.arcs)


def test_euler_via_homology_not_connected():
    g = build_graph(["a", "b"], [("e", "a", "a")])
    with pytest.raises(NotConnectedError):
        euler_via_homology(g)


@given(graphs(max_nodes=4, max_arcs=6))
@settings(max_examples=80)
def test_euler_routes_agree(g):
    if not g.arcs or not is_connected(g):
        return
    assert euler_via_homology(g).is_eulerian == euler_check(g).is_eulerian


def test_postman_on_eulerian_graphs(figure_eight):
    walk, n = minimal_covering_walk(standard_cycle(5))
    assert n == 5 and walk.length == 5
    walk, n = minimal_covering_walk(figure_eight)
    assert n == 4


def test_postman_two_way_pair(two_way_pair):
    walk, n = minimal_covering_walk(two_way_pair)
    assert n == 4
    counts = Counter(walk.arcs)
    assert counts["a"] >= 1 and counts["b"] >= 1 and counts["c"] == 2


def test_postman_requires_strong_connectivity():
    with pytest.raises(NotStronglyConnectedError):
        minimal_covering_walk(standard_path(2))


@given(graphs(max_nodes=4, max_arcs=6))
@settings(max_examples=60)
def test_postman_matches_search_oracle(g):
    if not g.arcs:
        return
    try:
        strongly = is_strongly_connected(g)
    except Exception:
        return
    if not strongly:
        return
    walk, n = minimal_covering_walk(g)
    assert walk.length == n
    counts = Counter(walk.arcs)
    assert all(counts[a.id] >= 1 for a in g.arcs)
    assert n == min_covering_closed_walk_length(g)


def test_postman_matches_oracle_on_larger_random_graphs():
    import random

    rng = random.Random(424242)
    tested = 0
    while tested < 60:
        n = rng.randint(2, 5)
        nodes = [f"x{i}" for i in range(n)]
        m = rng.randint(n, 9)
        arcs = [
            (f"a{k}", nodes[rng.randrange(n)], nodes[rng.randrange(n)])
            for k in range(m)
        ]
        g = build_graph(nodes, arcs)
        if not is_strongly_connected(g):
            continue
        tested += 1
        walk, minimal = minimal_covering_walk(g)
        assert walk.length == minimal == min_covering_closed_walk_length(g)


def test_positive_kernel_vectors_on_c2():
    vectors = positive_kernel_vectors(standard_cycle(2), 2)
    coeff_sets = [v.coefficients for v in vectors]
    assert {"a0": 1, "a1": 1} in coeff_sets
    assert {"a0": 2, "a1": 2} in coeff_sets
    assert len(coeff_sets) == 2


def test_positive_kernel_vectors_rejects_a_negative_bound():
    with pytest.raises(ValidationError, match="max_coeff must be >= 0"):
        positive_kernel_vectors(standard_cycle(2), -1)
