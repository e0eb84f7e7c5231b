import pytest
from hypothesis import given

from hog.core import ClosedWalk, DirectedGraph, GraphMorphism, standard_cycle, standard_path
from hog.errors import InvalidMorphismError, ValidationError
from hog.homotopy import is_weak_equivalence
from hog.reflexive import (
    ReflexiveGraph,
    ReflexiveMorphism,
    add_degeneracies,
    enumerate_nondegenerate_cycles,
    forget_reflexive,
    is_degenerate_cycle,
    is_weak_equivalence_reflexive,
    lift_morphism,
    strip_degeneracies,
)
from hog.scc import scc_decompose
from strategies import graphs, quotient_morphisms


def reflexive_dot():
    return add_degeneracies(standard_cycle(0))


def reflexive_arc():
    return add_degeneracies(standard_path(2))


def test_add_degeneracies_examples():
    dot = reflexive_dot()
    assert len(dot.arcs) == 1 and dot.degeneracy == {"x0": "loop_x0"}

    arc = reflexive_arc()
    assert len(arc.arcs) == 3  # one arc plus two loops

    c3r = add_degeneracies(standard_cycle(3))
    assert len(c3r.arcs) == 6 and len(c3r.degeneracy) == 3


def test_forget_examples():
    forgotten = forget_reflexive(reflexive_dot())
    assert len(forgotten.nodes) == 1 and len(forgotten.arcs) == 1
    assert forgotten.arcs[0].src == forgotten.arcs[0].tgt  # the dot becomes a loop

    arc = forget_reflexive(reflexive_arc())
    assert len(arc.nodes) == 2 and len(arc.arcs) == 3

    c1r = forget_reflexive(add_degeneracies(standard_cycle(1)))
    assert len(c1r.arcs) == 2  # two loops on one node


def test_strip_examples():
    assert strip_degeneracies(reflexive_arc()) == standard_path(2)
    assert strip_degeneracies(reflexive_dot()) == standard_cycle(0)
    assert strip_degeneracies(add_degeneracies(standard_cycle(3))) == standard_cycle(3)


@given(graphs(max_nodes=4, max_arcs=6))
def test_roundtrip_properties(g):
    rg = add_degeneracies(g)
    assert strip_degeneracies(rg) == g
    forgotten = forget_reflexive(rg)
    assert len(forgotten.arcs) == len(g.arcs) + len(g.nodes)


def test_invalid_reflexive_structures():
    g = standard_path(2)
    with pytest.raises(ValidationError):
        ReflexiveGraph(g.nodes, g.arcs, {})  # no loops at all
    with pytest.raises(ValidationError):
        ReflexiveGraph(g.nodes, g.arcs, {"x0": "a0", "x1": "a0"})  # a0 not a loop


def test_degenerate_cycle_detection():
    rg = add_degeneracies(standard_cycle(3))
    full = forget_reflexive(rg)
    honest = ClosedWalk(full, ("a0", "a1", "a2"))
    assert not is_degenerate_cycle(rg, honest)
    lazy = ClosedWalk(full, ("loop_x0",))
    assert is_degenerate_cycle(rg, lazy)
    mixed = ClosedWalk(full, ("a0", "loop_x1", "a1", "a2"))
    assert is_degenerate_cycle(rg, mixed)


def test_enumerate_nondegenerate_examples():
    assert len(enumerate_nondegenerate_cycles(add_degeneracies(standard_cycle(3)), 3)) == 3
    assert len(enumerate_nondegenerate_cycles(reflexive_dot(), 1)) == 0
    assert len(enumerate_nondegenerate_cycles(reflexive_arc(), 1)) == 0


def canonical_collapse():
    """The reflexive arc collapsing onto the reflexive dot."""
    arc, dot = reflexive_arc(), reflexive_dot()
    return ReflexiveMorphism(
        arc,
        dot,
        {"x0": "x0", "x1": "x0"},
        {"a0": "loop_x0", "loop_x0": "loop_x0", "loop_x1": "loop_x0"},
    )


def test_reflexive_weq_identity():
    rg = add_degeneracies(standard_cycle(3))
    ident = ReflexiveMorphism(
        rg, rg, {n: n for n in rg.nodes}, {a.id: a.id for a in rg.arcs}
    )
    assert is_weak_equivalence_reflexive(ident)


def test_reflexive_weq_rejects_collapse():
    f = canonical_collapse()
    assert f.is_valid()
    verdict = is_weak_equivalence_reflexive(f)
    assert not verdict and verdict.witness


def test_collapse_preserves_nondegenerate_cycles_anyway():
    # bijective on nondegenerate cycles for every positive length, yet not a
    # weak equivalence: the two sides of the known one-way implication
    f = canonical_collapse()
    for n in range(1, 6):
        dom = enumerate_nondegenerate_cycles(f.domain, n)
        cod = enumerate_nondegenerate_cycles(f.codomain, n)
        assert len(dom) == len(cod) == 0
    assert not is_weak_equivalence_reflexive(f)


def test_morphism_must_respect_degeneracies():
    rg = add_degeneracies(standard_cycle(1))
    bad = ReflexiveMorphism(
        rg,
        rg,
        {"x0": "x0"},
        {"a0": "a0", "loop_x0": "a0"},  # degenerate loop sent to a plain arc
    )
    assert not bad.is_valid()
    with pytest.raises(InvalidMorphismError):
        is_weak_equivalence_reflexive(bad)


def test_reflexive_records_keep_their_own_maps():
    degeneracy = {"x0": "loop_x0"}
    rg = ReflexiveGraph(("x0",), (("a0", "x0", "x0"), ("loop_x0", "x0", "x0")), degeneracy)
    node_map, arc_map = {"x0": "x0"}, {"a0": "a0", "loop_x0": "loop_x0"}
    f = ReflexiveMorphism(rg, rg, node_map, arc_map)
    degeneracy["x0"], node_map["x0"], arc_map["a0"] = "a0", "y", "loop_x0"
    assert rg.degeneracy == {"x0": "loop_x0"} and rg == add_degeneracies(standard_cycle(1))
    assert f.node_map == {"x0": "x0"} and f.arc_map == {"a0": "a0", "loop_x0": "loop_x0"}
    assert f.is_valid() and is_weak_equivalence_reflexive(f)


@given(quotient_morphisms(max_nodes=4, max_arcs=5))
def test_lift_agrees_with_plain_verdict(f):
    lifted = lift_morphism(f)
    assert lifted.is_valid()
    assert bool(is_weak_equivalence_reflexive(lifted)) == bool(is_weak_equivalence(f))


@given(graphs(max_nodes=4, max_arcs=6))
def test_scc_partition_same_with_or_without_degeneracies(g):
    rg = add_degeneracies(g)
    full = scc_decompose(forget_reflexive(rg))
    bare = scc_decompose(strip_degeneracies(rg))
    assert {frozenset(c) for c in full.components} == {
        frozenset(c) for c in bare.components
    }


def test_verdict_reports_every_violation_in_the_validate_text():
    """One check of the underlying morphism and of the degeneracies, with the
    message ``validate`` gives: underlying faults first, then the loops."""
    rg = add_degeneracies(standard_cycle(2))
    arc_map = {"a0": "a1", "a1": "a1", "loop_x0": "a0", "loop_x1": "loop_x1"}
    bad = ReflexiveMorphism(rg, rg, {"x0": "x1", "x1": "x1"}, arc_map)
    with pytest.raises(InvalidMorphismError) as expected:
        bad.validate()
    with pytest.raises(InvalidMorphismError) as got:
        is_weak_equivalence_reflexive(bad)
    assert str(got.value) == str(expected.value)
    assert str(got.value).count(";") == 3 and "degenerate loop 'loop_x0'" in str(got.value)


def test_forgetting_returns_the_graph_the_reflexive_graph_keeps():
    f = lift_morphism(GraphMorphism.identity(standard_cycle(2)))
    assert forget_reflexive(f.domain) is f.domain.graph
    assert f.domain.graph == DirectedGraph(f.domain.nodes, f.domain.arcs)
    assert f.underlying().codomain is f.codomain.graph
