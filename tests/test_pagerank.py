import random

import numpy as np
import pytest

from hog.core import build_graph, standard_cycle, standard_path
from hog.errors import EmptyGraphError, NoConvergenceError, ValidationError
from hog.pagerank import connectivity_report, markov_from_graph, pagerank


def star():
    """Arcs a->hub, b->hub, hub->a."""
    return build_graph(
        ["a", "b", "hub"],
        [("e0", "a", "hub"), ("e1", "b", "hub"), ("e2", "hub", "a")],
    )


def test_markov_c3_is_permutation():
    m = markov_from_graph(standard_cycle(3))
    assert m.entries.sum(axis=0) == pytest.approx([1.0, 1.0, 1.0])
    assert m.entries[m.index["x1"], m.index["x0"]] == 1.0


def test_markov_dangling_column_is_uniform():
    m = markov_from_graph(standard_path(2))
    sink = m.index["x1"]
    assert np.allclose(m.entries[:, sink], 0.5)


def test_markov_multiplicity_normalization():
    g = build_graph(
        ["x", "y", "z"],
        [("a", "x", "y"), ("b", "x", "y"), ("c", "x", "z")],
    )
    m = markov_from_graph(g)
    col = m.index["x"]
    assert m.entries[m.index["y"], col] == pytest.approx(2 / 3)
    assert m.entries[m.index["z"], col] == pytest.approx(1 / 3)


def test_markov_empty_graph():
    with pytest.raises(EmptyGraphError):
        markov_from_graph(build_graph([], []))


def test_pagerank_uniform_on_cycles():
    for n in (1, 3, 6):
        rank = pagerank(standard_cycle(n))
        assert all(abs(s - 1 / n) < 1e-9 for s in rank.scores.values())
        assert sum(rank.scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_single_loop():
    assert pagerank(standard_cycle(1)).scores == {"x0": pytest.approx(1.0)}


def test_pagerank_star_matches_linear_solve():
    g = star()
    damping = 0.85
    rank = pagerank(g, damping=damping)
    m = markov_from_graph(g)
    n = m.order
    exact = np.linalg.solve(
        np.eye(n) - damping * m.entries, np.full(n, (1 - damping) / n)
    )
    for node, i in m.index.items():
        assert rank.scores[node] == pytest.approx(exact[i], abs=1e-9)
    assert max(rank.scores, key=rank.scores.get) == "hub"


def test_pagerank_fixed_point_residual():
    g = star()
    tol = 1e-12
    rank = pagerank(g, tol=tol)
    m = markov_from_graph(g)
    vec = np.array([rank.scores[node] for node in g.nodes])
    damped = 0.85 * m.entries @ vec + 0.15 / m.order
    assert np.abs(damped - vec).sum() < 10 * tol


def test_pagerank_approaches_stationary_distribution():
    g = build_graph(
        ["u", "v", "w"],
        [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u"), ("d", "v", "u")],
    )
    m = markov_from_graph(g)
    rank = pagerank(g, damping=0.999, tol=1e-13, max_iter=100000)
    # stationary vector of the undamped matrix via eigen solve
    values, vectors = np.linalg.eig(m.entries)
    lead = np.argmin(np.abs(values - 1.0))
    stationary = np.real(vectors[:, lead])
    stationary = stationary / stationary.sum()
    for node, i in m.index.items():
        assert abs(rank.scores[node] - stationary[i]) < 1e-3


def test_pagerank_empty_graph():
    with pytest.raises(EmptyGraphError):
        pagerank(build_graph([], []))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"damping": 1.5}, "damping must lie strictly between 0 and 1"),
        ({"damping": 0.0}, "damping must lie strictly between 0 and 1"),
        ({"damping": 1.0}, "damping must lie strictly between 0 and 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": -1e-9}, "tol must be positive"),
        ({"tol": float("nan")}, "tol must be positive"),
        ({"damping": float("nan")}, "damping must lie strictly between 0 and 1"),
        ({"max_iter": 0}, "max_iter must be at least 1"),
        ({"max_iter": -3}, "max_iter must be at least 1"),
    ],
)
def test_pagerank_rejects_bad_parameters(kwargs, message):
    with pytest.raises(ValidationError) as exc:
        pagerank(star(), **kwargs)
    assert str(exc.value) == message


def _random_multigraph(seed, n, m):
    """Seeded n-node, m-arc multigraph with parallel arcs, self-loops and
    dangling nodes (a tenth of the nodes have no out-arcs)."""
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(n)]
    sinks = set(rng.sample(range(n), n // 10))
    sources = [i for i in range(n) if i not in sinks]
    arcs = []
    for k in range(m):
        if arcs and rng.random() < 0.2:
            _, s, t = arcs[-1]
        else:
            i = rng.choice(sources)
            s, t = nodes[i], nodes[i if rng.random() < 0.05 else rng.randrange(n)]
        arcs.append((f"a{k}", s, t))
    return build_graph(nodes, arcs)


@pytest.mark.parametrize(
    "seed, n, m",
    [(0, 100, 300), (1, 100, 2000), (2, 500, 5000), (3, 1000, 2000), (4, 2000, 8000), (5, 2000, 20000)],
)
def test_pagerank_matches_networkx(seed, n, m):
    nx = pytest.importorskip("networkx")
    g = _random_multigraph(seed, n, m)
    folded = nx.DiGraph()
    folded.add_nodes_from(g.nodes)
    for a in g.arcs:
        if folded.has_edge(a.src, a.tgt):
            folded[a.src][a.tgt]["weight"] += 1
        else:
            folded.add_edge(a.src, a.tgt, weight=1)
    assert folded.number_of_edges() < m
    assert any(folded.out_degree(v) == 0 for v in g.nodes)
    assert any(folded.has_edge(v, v) for v in g.nodes)
    expected = nx.pagerank(folded, alpha=0.85, tol=1e-15, max_iter=10000, weight="weight")
    scores = pagerank(g).scores
    assert list(scores) == list(g.nodes)
    for node in g.nodes:
        assert scores[node] == pytest.approx(expected[node], abs=1e-9)


def test_pagerank_agrees_with_dense_reference():
    g = _random_multigraph(100, 300, 1500)
    result = pagerank(g)
    m = markov_from_graph(g)
    rank = np.full(m.order, 1.0 / m.order)
    for _ in range(result.iterations):
        rank = 0.85 * (m.entries @ rank) + 0.15 / m.order
    for node, i in m.index.items():
        assert result.scores[node] == pytest.approx(rank[i], abs=1e-15)


def test_pagerank_no_convergence():
    with pytest.raises(NoConvergenceError):
        pagerank(star(), tol=1e-15, max_iter=2)


def test_pagerank_permutation_equivariance():
    g = star()
    permuted = build_graph(
        ["hub", "a", "b"],
        [("e2", "hub", "a"), ("e0", "a", "hub"), ("e1", "b", "hub")],
    )
    r1 = pagerank(g).scores
    r2 = pagerank(permuted).scores
    for node in g.nodes:
        assert abs(r1[node] - r2[node]) < 1e-12


def test_connectivity_report_examples():
    rep = connectivity_report(standard_cycle(6))
    assert rep.largest_component_fraction == 1.0 and rep.irreducible

    rep = connectivity_report(standard_path(5))
    assert rep.largest_component_fraction == pytest.approx(0.2)
    assert not rep.irreducible

    pendant = build_graph(
        ["x0", "x1", "x2", "x3", "p"],
        [
            ("a0", "x0", "x1"), ("a1", "x1", "x2"),
            ("a2", "x2", "x3"), ("a3", "x3", "x0"), ("a4", "p", "x0"),
        ],
    )
    rep = connectivity_report(pendant)
    assert rep.largest_component_fraction == pytest.approx(0.8)
