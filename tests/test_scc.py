import itertools
import random

import pytest
from hypothesis import given

from hog.core import Arc, build_graph, induced_subgraph, standard_cycle, standard_path
from hog.enumeration import connected_small_graphs, small_graphs
from hog.errors import EmptyGraphError
from hog.scc import (
    is_acyclic,
    is_connected,
    is_strongly_connected,
    scc_decompose,
    weak_components,
)
from oracles import scc_by_transitive_closure
from strategies import graphs


def test_cycle_is_one_component():
    dec = scc_decompose(standard_cycle(3))
    assert dec.components == (("x0", "x1", "x2"),)
    assert dec.condensation.arcs == ()


def test_path_gives_singletons_with_path_shaped_condensation():
    dec = scc_decompose(standard_path(3))
    assert len(dec.components) == 3
    assert all(len(c) == 1 for c in dec.components)
    cond = dec.condensation
    assert len(cond.arcs) == 2
    assert is_acyclic(cond)


def test_two_disjoint_cycles():
    g = build_graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "c", "d"), ("e3", "d", "c")],
    )
    dec = scc_decompose(g)
    assert len(dec.components) == 2


def test_strongly_connected_predicates():
    assert is_strongly_connected(standard_cycle(5))
    assert not is_strongly_connected(standard_path(2))
    assert is_strongly_connected(standard_cycle(0))  # single trivial component
    with pytest.raises(EmptyGraphError):
        is_strongly_connected(build_graph([], []))


def test_is_connected():
    assert is_connected(standard_path(4))
    assert not is_connected(build_graph(["a", "b"], []))
    assert is_connected(standard_cycle(3))
    with pytest.raises(EmptyGraphError):
        is_connected(build_graph([], []))


def test_is_acyclic():
    assert is_acyclic(standard_path(5))
    assert not is_acyclic(standard_cycle(1))
    assert is_acyclic(build_graph([], []))


@given(graphs(max_nodes=5, max_arcs=8))
def test_partition_matches_transitive_closure_oracle(g):
    dec = scc_decompose(g)
    assert {frozenset(c) for c in dec.components} == scc_by_transitive_closure(g)


@given(graphs(max_nodes=5, max_arcs=8))
def test_condensation_is_acyclic_and_reverse_topological(g):
    dec = scc_decompose(g)
    assert is_acyclic(dec.condensation)
    # components listed successors-first: every condensation arc points backwards
    for a in dec.condensation.arcs:
        assert int(a.src) > int(a.tgt)


@given(graphs(max_nodes=5, max_arcs=8, min_nodes=1))
def test_strongly_connected_iff_single_component(g):
    assert is_strongly_connected(g) == (len(scc_decompose(g).components) == 1)


def test_component_subgraph_strong_connectivity():
    g = build_graph(
        ["a", "b", "c"],
        [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "b", "c")],
    )
    dec = scc_decompose(g)
    for i, comp in enumerate(dec.components):
        sub = induced_subgraph(g, comp)
        if len(sub.nodes) >= 2 or sub.arcs:
            assert is_strongly_connected(sub)


def test_deterministic_enumeration_sample_against_oracle():
    # every 97th graph from the exhaustive <=5 node, <=8 arc enumeration
    sample = itertools.islice(small_graphs(5, 8), 0, None, 97)
    checked = 0
    for g in itertools.islice(sample, 400):
        dec = scc_decompose(g)
        assert {frozenset(c) for c in dec.components} == scc_by_transitive_closure(g)
        checked += 1
    assert checked == 400


def test_weak_components_partition():
    g = build_graph(["a", "b", "c"], [("e", "a", "b")])
    assert weak_components(g) == (("a", "b"), ("c",))


@pytest.mark.parametrize(
    "seed, n, m",
    [(0, 1, 0), (1, 2, 1), (2, 12, 6), (3, 80, 60), (4, 400, 300), (5, 1000, 700),
     (6, 1000, 1200), (7, 1000, 3000)],
)
def test_weak_components_match_networkx(seed, n, m):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    # ids in random order, so least id and first node differ
    nodes = [f"v{i}" for i in rng.sample(range(10 * n), n)]
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(m)]
    pairs += [(v, v) for v in rng.sample(nodes, n // 10)]
    pairs += rng.sample(pairs, len(pairs) // 10)
    g = build_graph(nodes, [(f"e{k}", s, t) for k, (s, t) in enumerate(pairs)])
    ref = nx.MultiDiGraph()
    ref.add_nodes_from(nodes)
    ref.add_edges_from(pairs)
    comps = weak_components(g)
    assert sum(map(len, comps)) == n
    assert {frozenset(c) for c in comps} == set(map(frozenset, nx.weakly_connected_components(ref)))
    # components by first node, members in node order
    positions = [[g.node_index[v] for v in c] for c in comps]
    assert all(p == sorted(p) for p in positions)
    assert [p[0] for p in positions] == sorted(p[0] for p in positions)


def test_connected_small_graphs_filters_small_graphs_by_connectivity():
    expected = [g for g in small_graphs(3, 4, 1) if is_connected(g)]
    assert len(expected) > 100
    assert list(connected_small_graphs(3, 4)) == expected


def test_parallel_arcs_keep_first_appearance_successor_order():
    # a's successors first appear as b, f, e; the last a->f comes after a->e,
    # so ordering successors by last appearance would visit e before f
    g = build_graph(
        ["a", "b", "c", "d", "e", "f"],
        [
            ("p0", "a", "b"), ("p1", "a", "f"), ("p2", "b", "a"), ("p3", "a", "b"),
            ("p4", "a", "e"), ("p5", "a", "f"), ("p6", "b", "a"), ("p7", "b", "c"),
            ("p8", "b", "c"), ("p9", "c", "d"), ("p10", "d", "c"), ("p11", "d", "c"),
            ("p12", "c", "d"), ("p13", "e", "e"), ("p14", "e", "e"), ("p15", "b", "c"),
            ("p16", "f", "f"), ("p17", "a", "f"),
        ],
    )
    dec = scc_decompose(g)
    assert dec.components == (("c", "d"), ("f",), ("e",), ("a", "b"))
    assert dec.component_of == {"a": 3, "b": 3, "c": 0, "d": 0, "e": 2, "f": 1}
    assert dec.condensation.nodes == ("0", "1", "2", "3")
    assert dec.condensation.arcs == (
        Arc("e0", "3", "1"),
        Arc("e1", "3", "2"),
        Arc("e2", "3", "0"),
    )


def test_scc_decompose_reports_cache_hits_through_cache_info():
    """The benchmark's tracer splits scc_decompose spans into cache hits and
    misses by reading ``scc_decompose.cache_info``, and its traced run reports
    the hit ratio and the number of cached graphs from it."""
    info = scc_decompose.cache_info
    g = build_graph(["p", "q", "r"], [("pq", "p", "q"), ("qp", "q", "p"), ("qr", "q", "r")])
    before = info()
    dec = scc_decompose(g)
    assert scc_decompose(build_graph(g.nodes, g.arcs)) is dec
    after = info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    assert 0 < after.currsize <= after.maxsize
