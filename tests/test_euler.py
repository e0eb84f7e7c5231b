from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hog.core import build_graph, standard_cycle, standard_path
from hog.errors import NoArcsError, NotEulerianError, NotStronglyConnectedError
from hog.euler import (
    AttachStep,
    GlueStep,
    covering_cycle,
    euler_check,
    euler_cycle,
    euler_decompose,
)
from hog.homotopy import attach_cycle, glue_nodes
from oracles import euler_decompose_by_replay
from strategies import graphs


def test_cycles_are_eulerian():
    for n in (1, 2, 5):
        report = euler_check(standard_cycle(n))
        assert report.is_eulerian and report.connected
        assert report.balance_violations == ()


def test_path_is_not_eulerian():
    report = euler_check(standard_path(3))
    assert not report.is_eulerian
    assert ("x0", 0, 1) in report.balance_violations
    assert ("x2", 1, 0) in report.balance_violations


def test_figure_eight_is_eulerian(figure_eight):
    report = euler_check(figure_eight)
    assert report.is_eulerian
    assert figure_eight.out_arcs("h") and len(figure_eight.out_arcs("h")) == 2


def test_no_arcs_raises():
    with pytest.raises(NoArcsError):
        euler_check(standard_cycle(0))


def test_ignore_isolated_flag():
    g = build_graph(
        ["x0", "x1", "iso"], [("a0", "x0", "x1"), ("a1", "x1", "x0")]
    )
    assert not euler_check(g).is_eulerian  # isolated node breaks connectivity
    assert euler_check(g, ignore_isolated=True).is_eulerian


def test_euler_cycle_c4_is_deterministic_arc_order():
    walk = euler_cycle(standard_cycle(4))
    assert walk.arcs == ("a0", "a1", "a2", "a3")


def test_euler_cycle_figure_eight(figure_eight):
    walk = euler_cycle(figure_eight)
    assert walk.length == 4
    assert Counter(walk.arcs) == Counter(a.id for a in figure_eight.arcs)


def test_euler_cycle_disconnected_raises():
    g = build_graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "c", "d"), ("e3", "d", "c")],
    )
    with pytest.raises(NotEulerianError):
        euler_cycle(g)


def test_euler_cycle_morphism_is_arc_bijective(figure_eight):
    # the induced morphism from the standard cycle is onto nodes, bijective on arcs
    for g in (standard_cycle(3), figure_eight):
        walk = euler_cycle(g)
        f = walk.as_morphism()
        assert f.is_valid()
        assert set(f.node_map.values()) == set(g.nodes)
        assert sorted(f.arc_map.values()) == sorted(a.id for a in g.arcs)


def test_covering_cycle_c3():
    walk = covering_cycle(standard_cycle(3))
    assert walk.length == 3


def test_covering_cycle_two_way_pair(two_way_pair):
    walk = covering_cycle(two_way_pair)
    counts = Counter(walk.arcs)
    assert all(counts[a.id] >= 1 for a in two_way_pair.arcs)
    assert walk.length >= 4


def test_covering_cycle_not_strongly_connected():
    with pytest.raises(NotStronglyConnectedError):
        covering_cycle(standard_path(2))


def test_covering_cycle_length_bound():
    g = build_graph(
        ["a", "b", "c"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"), ("e3", "b", "a")],
    )
    walk = covering_cycle(g)
    diameter_bound = len(g.nodes) - 1
    assert walk.length <= len(g.arcs) * (1 + 2 * diameter_bound)
    assert set(walk.arcs) == {a.id for a in g.arcs}


def test_covering_cycle_never_beats_the_postman(two_way_pair):
    from hog.homology import minimal_covering_walk

    for g in (standard_cycle(4), two_way_pair):
        assert covering_cycle(g).length >= minimal_covering_walk(g)[1]


def test_decompose_plain_cycle_has_no_steps():
    dec = euler_decompose(standard_cycle(5))
    assert dec.base_length == 5 and dec.steps == ()
    assert dec.matches(standard_cycle(5))


def test_decompose_figure_eight(figure_eight):
    dec = euler_decompose(figure_eight)
    assert dec.base_length == 2
    assert len(dec.steps) == 1 and isinstance(dec.steps[0], AttachStep)
    assert dec.steps[0].length == 2
    assert dec.matches(figure_eight)


def test_decompose_glued_loop():
    g, _ = glue_nodes(standard_path(2), "x0", "x1")
    dec = euler_decompose(g)
    assert dec.base_length == 1 and dec.steps == ()
    assert dec.matches(g)


def test_decompose_with_glue_steps():
    # c4 with two opposite nodes identified: one extracted cycle revisits a node
    g, _ = glue_nodes(standard_cycle(4), "x0", "x2")
    dec = euler_decompose(g)
    assert any(isinstance(s, GlueStep) for s in dec.steps) or dec.base_length == 2
    assert dec.matches(g)


def _random_eulerian(seed: int):
    import random

    rng = random.Random(seed)
    g = standard_cycle(rng.randint(1, 4))
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.5 and len(g.nodes) >= 2:
            x, y = rng.sample(g.nodes, 2)
            g, _ = glue_nodes(g, x, y)
        else:
            g, _ = attach_cycle(g, rng.choice(g.nodes), rng.randint(1, 3))
    return g


@pytest.mark.parametrize("seed", range(25))
def test_decompose_replay_roundtrip_on_constructed_graphs(seed):
    g = _random_eulerian(seed)
    report = euler_check(g)
    assert report.is_eulerian  # glue/attach preserve the Euler property
    dec = euler_decompose(g)
    assert dec.matches(g)
    walk = euler_cycle(g)
    assert Counter(walk.arcs) == Counter(a.id for a in g.arcs)


def _hamiltonian_union(seed: int):
    import random

    rng = random.Random(seed)
    n, k = rng.randint(2, 40), rng.randint(1, 5)
    nodes = [f"h{i}" for i in range(n)]
    arcs = []
    for _ in range(k):
        order = rng.sample(nodes, n)
        arcs += [(order[i], order[(i + 1) % n]) for i in range(n)]
    ids = rng.sample(range(len(arcs)), len(arcs))
    return build_graph(nodes, [(f"u{ids[i]}", s, t) for i, (s, t) in enumerate(arcs)])


def _assert_same_script(g):
    got, want = euler_decompose(g), euler_decompose_by_replay(g)
    assert got.base_length == want.base_length
    assert got.steps == want.steps
    assert list(got.node_correspondence.items()) == list(want.node_correspondence.items())


def test_script_equals_replayed_reference():
    for seed in range(200):
        _assert_same_script(_random_eulerian(seed))
    for seed in range(30):
        _assert_same_script(_hamiltonian_union(seed))


@given(graphs(max_nodes=4, max_arcs=6))
@settings(max_examples=80)
def test_euler_cycle_output_always_validates(g):
    try:
        report = euler_check(g)
    except NoArcsError:
        return
    if not report.is_eulerian:
        with pytest.raises(NotEulerianError):
            euler_cycle(g)
        return
    walk = euler_cycle(g)
    assert Counter(walk.arcs) == Counter(a.id for a in g.arcs)


def test_determinism():
    g = _random_eulerian(7)
    assert euler_cycle(g) == euler_cycle(g)
    assert euler_decompose(g).steps == euler_decompose(g).steps
