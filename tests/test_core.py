import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hog
from hog.core import (
    Arc,
    ClosedWalk,
    DirectedGraph,
    GraphMorphism,
    Walk,
    build_graph,
    degrees,
    graph_from_columns,
    standard_cycle,
    standard_path,
    trace_of_power,
)
from hog.errors import (
    DanglingEndpointError,
    DuplicateIdError,
    InvalidMorphismError,
    UnknownArcError,
    UnknownNodeError,
    ValidationError,
)
from oracles import naive_closed_walk_tuples
from strategies import graphs, quotient_morphisms


def test_build_graph_empty_is_initial_object():
    g = build_graph([], [])
    assert g.nodes == () and g.arcs == ()


def test_build_graph_dot():
    g = build_graph(["x"], [])
    assert g.nodes == ("x",) and g.arcs == ()


def test_build_graph_three_cycle():
    g = build_graph(
        ["x0", "x1", "x2"],
        [("a0", "x0", "x1"), ("a1", "x1", "x2"), ("a2", "x2", "x0")],
    )
    assert len(g.arcs) == 3
    assert g.arc("a1") == Arc("a1", "x1", "x2")


def test_build_graph_rejects_duplicates_and_dangling():
    with pytest.raises(DuplicateIdError):
        build_graph(["x", "x"], [])
    with pytest.raises(DuplicateIdError):
        build_graph(["x"], [("a", "x", "x"), ("a", "x", "x")])
    with pytest.raises(DanglingEndpointError):
        build_graph(["x"], [("a", "x", "y")])


CONSTRUCTION_FAULTS = [
    (["x", "y", "y", "x"], [], DuplicateIdError, "duplicate node id 'y'"),
    (
        ["x"],
        [("a", "x", "x"), ("b", "x", "x"), ("b", "x", "x"), ("a", "x", "x")],
        DuplicateIdError,
        "duplicate arc id 'b'",
    ),
    (
        ["x"],
        [("a", "x", "x"), ("b", "p", "x"), ("c", "q", "x")],
        DanglingEndpointError,
        "arc 'b' has unknown source 'p'",
    ),
    (
        ["x"],
        [("a", "x", "x"), ("b", "x", "p"), ("c", "x", "q")],
        DanglingEndpointError,
        "arc 'b' has unknown target 'p'",
    ),
    # one arc with every fault: the id check comes first, then the source
    (
        ["x"],
        [("a", "x", "x"), ("a", "p", "q")],
        DuplicateIdError,
        "duplicate arc id 'a'",
    ),
    (["x"], [("a", "p", "q")], DanglingEndpointError, "arc 'a' has unknown source 'p'"),
    # an earlier arc's unknown target beats a later duplicate id
    (
        ["x", "x2"],
        [("a", "x", "x"), ("b", "x", "q"), ("a", "x", "x")],
        DanglingEndpointError,
        "arc 'b' has unknown target 'q'",
    ),
    # node duplicates are reported before any arc fault
    (["x", "x"], [("a", "p", "q")], DuplicateIdError, "duplicate node id 'x'"),
]


def _direct(nodes, arcs):
    return DirectedGraph(tuple(nodes), tuple(Arc(*a) for a in arcs))


def _lists(nodes, arcs):
    return DirectedGraph(nodes, [list(a) for a in arcs])


def _columns(nodes, arcs):
    return graph_from_columns(nodes, *(zip(*arcs) if arcs else ((), (), ())))


CONSTRUCTIONS = {
    "build_graph": build_graph,
    "DirectedGraph": _direct,
    "lists": _lists,
    "columns": _columns,
}


@pytest.mark.parametrize("nodes, arcs, error, message", CONSTRUCTION_FAULTS)
@pytest.mark.parametrize("construct", list(CONSTRUCTIONS.values()), ids=list(CONSTRUCTIONS))
def test_construction_names_the_first_offender(construct, nodes, arcs, error, message):
    with pytest.raises(error) as exc:
        construct(nodes, arcs)
    assert str(exc.value) == message


def test_arcs_are_rebuilt_as_plain_arcs_on_each_access():
    """A graph keeps its arcs as three string columns, so ``arcs`` returns
    equal values of exact type Arc, in a new tuple on every access."""
    arc = Arc("a", "x", "y")
    g = DirectedGraph(("x", "y"), (arc, ("b", "y", "x")))
    assert g.arcs == (Arc("a", "x", "y"), Arc("b", "y", "x"))
    assert all(type(a) is Arc for a in g.arcs)
    assert g.arcs is not g.arcs and g.arcs[0] is not arc
    assert (g.arc_ids, g.arc_srcs, g.arc_tgts) == (("a", "b"), ("x", "y"), ("y", "x"))


def test_every_construction_route_gives_equal_graphs():
    triples = [("a", "x", "y"), ("b", "y", "x"), ("c", "x", "x")]
    built = [construct(["x", "y"], triples) for construct in CONSTRUCTIONS.values()]
    assert all(g == built[0] and hash(g) == hash(built[0]) for g in built)
    assert DirectedGraph(["x", "y"], triples) != DirectedGraph(["y", "x"], triples)
    assert DirectedGraph(["x", "y"], triples) != DirectedGraph(["x", "y"], triples[::-1])


def test_graph_repr_lists_the_arcs_as_arc_values():
    g = build_graph(["x", "y"], [("a", "x", "y"), ("l", "y", "y")])
    assert repr(g) == (
        "DirectedGraph(nodes=('x', 'y'), arcs=(Arc(id='a', src='x', tgt='y'), "
        "Arc(id='l', src='y', tgt='y')))"
    )
    assert repr(DirectedGraph()) == "DirectedGraph(nodes=(), arcs=())"


def _one_of_each_record():
    """Record type name -> (a small value of it, one of its field names)."""
    from hog import euler, homology, homotopy, pagerank, reflexive, scc

    g = DirectedGraph(["x"], [("a", "x", "x")])
    f = GraphMorphism.identity(g)
    chain = homology.fundamental_chain(g)
    values = [
        (Walk(g, ("a",)), "start"),
        (ClosedWalk(g, ("a",)), "base"),
        (f, "node_map"),
        (scc.scc_decompose(g), "components"),
        (homotopy.enumerate_hom_cycles(g, 1), "morphisms"),
        (homotopy.is_weak_equivalence(f), "witness"),
        (homotopy.brute_force_weq_check(f, 0)[0], "n"),
        (euler.euler_check(g), "cycle"),
        (euler.GlueStep("x", "y"), "first"),
        (euler.AttachStep("x", 2), "length"),
        (euler.euler_decompose(g), "steps"),
        (chain, "coefficients"),
        (homology.boundary_1(chain), "coefficients"),
        (homology.homology_summary(g), "h1_rank"),
        (homology.decompose_positive_chain(chain), "cycles"),
        (pagerank.pagerank(g), "scores"),
        (pagerank.connectivity_report(g), "irreducible"),
        (reflexive.add_degeneracies(g), "graph"),
        (reflexive.lift_morphism(f), "arc_map"),
        (g, "nodes"),
    ]
    return {type(value).__name__: (value, field) for value, field in values}


def test_record_reprs_name_every_field():
    g = "DirectedGraph(nodes=('x',), arcs=(Arc(id='a', src='x', tgt='x'),))"
    loop = f"ClosedWalk(graph={g}, arcs=('a',), base='x')"
    chain = f"ArcChain(graph={g}, coefficients={{'a': 1}})"
    rg = (
        "ReflexiveGraph(nodes=('x',), arcs=(Arc(id='a', src='x', tgt='x'), "
        "Arc(id='loop_x', src='x', tgt='x')), degeneracy={'x': 'loop_x'})"
    )
    expected = {
        "Walk": f"Walk(graph={g}, arcs=('a',), start='x')",
        "ClosedWalk": loop,
        "GraphMorphism": (
            f"GraphMorphism(domain={g}, codomain={g}, node_map={{'x': 'x'}}, arc_map={{'a': 'a'}})"
        ),
        "SccDecomposition": (
            f"SccDecomposition(graph={g}, components=(('x',),), component_of={{'x': 0}}, "
            "condensation=DirectedGraph(nodes=('0',), arcs=()))"
        ),
        "HomSet": f"HomSet(n=1, morphisms=({loop},))",
        "WeakEquivalenceVerdict": (
            "WeakEquivalenceVerdict(is_weak_equivalence=True, component_matching=((0, 0),), "
            "witness=None)"
        ),
        "HomBijectionReport": (
            "HomBijectionReport(n=0, domain_count=1, codomain_count=1, distinct_images=1)"
        ),
        "EulerReport": (
            "EulerReport(is_eulerian=True, connected=True, balance_violations=(), cycle=None)"
        ),
        "GlueStep": "GlueStep(first='x', second='y')",
        "AttachStep": "AttachStep(node='x', length=2)",
        "AttachmentDecomposition": (
            "AttachmentDecomposition(base_length=1, steps=(), node_correspondence={'x0': 'x'})"
        ),
        "ArcChain": chain,
        "NodeChain": f"NodeChain(graph={g}, coefficients={{}})",
        "HomologySummary": (
            f"HomologySummary(h0_rank=0, h1_rank=1, h1_basis=({chain},), component_count=1)"
        ),
        "CycleDecomposition": f"CycleDecomposition(cycles=({loop},), multiplicities=(1,))",
        "RankVector": "RankVector(scores={'x': 1.0}, iterations=1, residual=0.0)",
        "ConnectivityReport": (
            "ConnectivityReport(node_count=1, component_count=1, largest_component_size=1, "
            "largest_component_fraction=1.0, irreducible=True)"
        ),
        "ReflexiveGraph": rg,
        "ReflexiveMorphism": (
            f"ReflexiveMorphism(domain={rg}, codomain={rg}, node_map={{'x': 'x'}}, "
            "arc_map={'a': 'a', 'loop_x': 'loop_x'})"
        ),
        "DirectedGraph": g,
    }
    assert {name: repr(value) for name, (value, _) in _one_of_each_record().items()} == expected


@pytest.mark.parametrize("name", sorted(_one_of_each_record()))
def test_records_are_immutable_and_survive_pickling(name):
    value, field = _one_of_each_record()[name]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and repr(back) == repr(value)
    # A decomposition compares by identity: an equal graph finds the cached
    # one, and a pickled one is another object.  Every other record compares
    # by value.
    assert _one_of_each_record()[name][0] == value
    assert (back == value) is (name != "SccDecomposition")


def test_record_hashes_follow_equality():
    # Value records hash by value, a decomposition by identity, and a
    # reflexive graph, whose degeneracy is a dict, not at all.
    records = _one_of_each_record()
    for name in ("Walk", "ClosedWalk", "HomSet", "DirectedGraph"):
        value = records[name][0]
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)
    dec = records["SccDecomposition"][0]
    assert hash(dec) == object.__hash__(dec)
    with pytest.raises(TypeError):
        hash(records["ReflexiveGraph"][0])


def test_morphism_keeps_its_own_maps():
    c3 = standard_cycle(3)
    node_map = {"x0": "x1", "x1": "x2", "x2": "x0"}
    arc_map = {"a0": "a1", "a1": "a2", "a2": "a0"}
    rotation = GraphMorphism(c3, c3, node_map, arc_map)
    node_map["x0"], arc_map["a0"] = "x0", "a0"
    assert rotation.node_map["x0"] == "x1" and rotation.arc_map["a0"] == "a1"
    assert rotation.is_valid()


def test_compose_compares_graphs_by_value():
    c3, c4 = standard_cycle(3), standard_cycle(4)
    copy_of_c3 = graph_from_columns(c3.nodes, c3.arc_ids, c3.arc_srcs, c3.arc_tgts)
    f = GraphMorphism.identity(c3)
    assert copy_of_c3 is not c3 and f.compose(GraphMorphism.identity(copy_of_c3)) == f
    with pytest.raises(InvalidMorphismError) as exc:
        f.compose(GraphMorphism.identity(c4))
    assert str(exc.value) == "composition mismatch: inner codomain != outer domain"


def test_arc_columns_must_have_one_length():
    with pytest.raises(ValidationError) as exc:
        graph_from_columns(["x"], ["a", "b"], ["x"], ["x", "x"])
    assert str(exc.value) == "arc columns differ in length (2 ids, 1 sources, 2 targets)"


def test_standard_cycle_shapes():
    assert standard_cycle(0).nodes == ("x0",)
    assert standard_cycle(0).arcs == ()
    c1 = standard_cycle(1)
    assert len(c1.arcs) == 1 and c1.arcs[0].src == c1.arcs[0].tgt
    c3 = standard_cycle(3)
    assert len(c3.nodes) == 3 and len(c3.arcs) == 3
    assert all(degrees(c3, v) == (1, 1) for v in c3.nodes)
    with pytest.raises(ValidationError):
        standard_cycle(-1)


def test_standard_path_shapes():
    assert standard_path(1).arcs == ()
    arc_graph = standard_path(2)
    assert len(arc_graph.nodes) == 2 and len(arc_graph.arcs) == 1
    p4 = standard_path(4)
    assert len(p4.nodes) == 4 and len(p4.arcs) == 3
    with pytest.raises(ValidationError):
        standard_path(0)


def test_degrees():
    c3 = standard_cycle(3)
    assert degrees(c3, "x0") == (1, 1)
    assert degrees(standard_cycle(1), "x0") == (1, 1)
    p2 = standard_path(2)
    assert degrees(p2, "x0") == (0, 1)
    with pytest.raises(UnknownNodeError):
        degrees(p2, "zz")


def test_arc_lookups_read_the_columns():
    g = build_graph(["x", "y"], [("a", "x", "y"), ("l", "y", "y"), ("b", "y", "x")])
    assert g.arc_position("b") == 2 and g.arc("b") == Arc("b", "y", "x")
    assert g.out_arc_ids("y") == ("l", "b") and g.in_arc_ids("y") == ("a", "l")
    assert g.out_arcs("y") == (Arc("l", "y", "y"), Arc("b", "y", "x"))
    assert g.in_arcs("x") == (Arc("b", "y", "x"),)
    for lookup in (g.arc_position, g.arc):
        with pytest.raises(UnknownArcError) as exc:
            lookup("zz")
        assert str(exc.value) == "unknown arc 'zz'"
    for lookup in (g.out_arc_ids, g.in_arc_ids, g.out_arcs, g.in_arcs):
        with pytest.raises(UnknownNodeError):
            lookup("zz")


def test_trace_of_power_counts_parallel_arcs():
    # closed walks of length 2: ac and bc from x, ca and cb from y
    g = build_graph(["x", "y"], [("a", "x", "y"), ("b", "x", "y"), ("c", "y", "x")])
    assert trace_of_power(g, 2) == 4
    assert trace_of_power(g, 1) == 0 and trace_of_power(g, 3) == 0


def test_trace_of_power_is_exact_at_large_powers():
    g = build_graph(["x"], [("p", "x", "x"), ("q", "x", "x")])
    assert trace_of_power(g, 200) == 2**200


def test_trace_of_power_rejects_negative_lengths():
    with pytest.raises(ValidationError) as exc:
        trace_of_power(standard_cycle(3), -1)
    assert str(exc.value) == "matrix power must be >= 0"


def test_morphism_is_valid_identity_and_rotation():
    c3 = standard_cycle(3)
    assert GraphMorphism.identity(c3).is_valid()
    rotation = GraphMorphism(
        c3,
        c3,
        {"x0": "x1", "x1": "x2", "x2": "x0"},
        {"a0": "a1", "a1": "a2", "a2": "a0"},
    )
    assert rotation.is_valid()


def test_morphism_is_valid_flags_bad_arc():
    c3 = standard_cycle(3)
    broken = GraphMorphism(
        c3,
        c3,
        {"x0": "x0", "x1": "x1", "x2": "x2"},
        {"a0": "a0", "a1": "a2", "a2": "a2"},  # a1 sent to an arc with wrong source
    )
    assert not broken.is_valid()
    assert any("a1" in v for v in broken.violations())


def test_walk_validation():
    c3 = standard_cycle(3)
    w = Walk(c3, ("a0", "a1"))
    assert w.start == "x0" and w.end == "x2" and w.visits == ("x0", "x1", "x2")
    with pytest.raises(ValidationError):
        Walk(c3, ("a0", "a2"))
    with pytest.raises(ValidationError):
        Walk(c3, (), start="nope")


def test_closed_walk_validation_and_rotation():
    c3 = standard_cycle(3)
    w = ClosedWalk(c3, ("a0", "a1", "a2"))
    assert w.base == "x0" and w.visits == ("x0", "x1", "x2")
    assert w.rotated(1).arcs == ("a1", "a2", "a0")
    assert w.rotate_to("x2").base == "x2"
    with pytest.raises(ValidationError):
        ClosedWalk(c3, ("a0", "a1"))  # does not close
    empty = ClosedWalk(c3, (), base="x1")
    assert empty.visits == ("x1",)


def test_closed_walk_as_morphism_validates():
    c3 = standard_cycle(3)
    w = ClosedWalk(c3, ("a1", "a2", "a0"))
    f = w.as_morphism()
    assert f.is_valid()
    assert f.node_map["x0"] == "x1"


@given(quotient_morphisms())
def test_generated_morphisms_are_valid(f):
    assert f.is_valid()


@given(quotient_morphisms())
def test_identity_laws(f):
    left = GraphMorphism.identity(f.codomain).compose(f)
    right = f.compose(GraphMorphism.identity(f.domain))
    assert left == f and right == f


@given(quotient_morphisms(), st.data())
def test_composition_is_associative_and_valid(f, data):
    # build g after f, then h after g, all by collapsing further
    g = data.draw(_morphism_from(f.codomain))
    h = data.draw(_morphism_from(g.codomain))
    assert g.compose(f).is_valid()
    assert h.compose(g.compose(f)) == h.compose(g).compose(f)


def _morphism_from(domain):
    @st.composite
    def build(draw):
        targets = [
            draw(st.integers(0, max(len(domain.nodes) - 1, 0)))
            for _ in domain.nodes
        ]
        node_map = {n: f"z{t}" for n, t in zip(domain.nodes, targets)}
        cod_nodes = []
        for name in node_map.values():
            if name not in cod_nodes:
                cod_nodes.append(name)
        cod_arcs = [
            (f"c{i}", node_map[a.src], node_map[a.tgt])
            for i, a in enumerate(domain.arcs)
        ]
        cod = build_graph(cod_nodes, cod_arcs)
        arc_map = {a.id: f"c{i}" for i, a in enumerate(domain.arcs)}
        return GraphMorphism(domain, cod, node_map, arc_map)

    return build()


@given(graphs(max_nodes=4, max_arcs=4), st.integers(1, 6))
def test_walk_count_equals_trace(g, n):
    assert len(naive_closed_walk_tuples(g, n)) == trace_of_power(g, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_has_n_rotations(n):
    g = standard_cycle(n)
    assert trace_of_power(g, n) == n


def test_trace_of_power_zero_is_node_count():
    g = build_graph(["a", "b", "c"], [("e", "a", "b")])
    assert trace_of_power(g, 0) == 3


def _violation_cases() -> dict[str, GraphMorphism]:
    """One morphism per kind of fault, and one with every fault at once.

    The domain is a 3-cycle u -> v -> w -> u with a loop d at u; the valid
    morphism sends it onto the 3-cycle x0 -> x1 -> x2 -> x0 with a loop l.
    """
    dom = build_graph(
        ["u", "v", "w"],
        [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u"), ("d", "u", "u")],
    )
    cod = build_graph(
        ["x0", "x1", "x2"],
        [("a0", "x0", "x1"), ("a1", "x1", "x2"), ("a2", "x2", "x0"), ("l", "x0", "x0")],
    )
    nodes = {"u": "x0", "v": "x1", "w": "x2"}
    arcs = {"a": "a0", "b": "a1", "c": "a2", "d": "l"}

    def changed(node_map=None, arc_map=None, drop=()):
        nm = {**nodes, **(node_map or {})}
        am = {**arcs, **(arc_map or {})}
        for key in drop:
            nm.pop(key, None)
            am.pop(key, None)
        return GraphMorphism(dom, cod, nm, am)

    return {
        "valid": changed(),
        "unmapped node": changed(drop=("v",)),
        "unknown node image": changed(node_map={"v": "zz"}),
        "unmapped arc": changed(drop=("b",)),
        "unknown arc image": changed(arc_map={"b": "nope"}),
        "source mismatch": changed(arc_map={"d": "a2"}),
        "target mismatch": changed(arc_map={"d": "a0"}),
        "both mismatch": changed(arc_map={"b": "a2"}),
        "every fault": changed(
            node_map={"w": "zz"}, arc_map={"a": "nope", "b": "a2", "d": "a0"}, drop=("v", "c")
        ),
    }


def test_morphism_violations_match_golden():
    """The exact messages, in order, as the node-by-node then arc-by-arc
    checks reported them before the single-pass rewrite."""
    path = os.path.join(os.path.dirname(__file__), "golden", "violations.json")
    with open(path, encoding="utf-8") as handle:
        expected = json.load(handle)
    got = {name: f.violations() for name, f in _violation_cases().items()}
    assert got == expected
    for name, f in _violation_cases().items():
        assert f.is_valid() == (name == "valid")


PICKLE_WRITER = """
import pickle, sys
from hog.core import build_graph
g = build_graph(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "w")])
hash(g)
with open(sys.argv[1], "wb") as handle:
    pickle.dump(g, handle)
"""
PICKLE_READER = """
import pickle, sys
from hog.core import build_graph
from hog.scc import scc_decompose
g = build_graph(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "w")])
entries = {g: "found"}
dec = scc_decompose(g)
with open(sys.argv[1], "rb") as handle:
    loaded = pickle.load(handle)
hits = scc_decompose.cache_info().hits
same = scc_decompose(loaded) is dec
print(loaded == g, loaded is g, entries.get(loaded), scc_decompose.cache_info().hits - hits, same)
"""


def test_pickled_graph_rehashes_in_a_process_with_another_hash_seed(tmp_path):
    """str hashes depend on PYTHONHASHSEED, so a graph's stored hash must not
    travel with it: the loaded graph hashes like an equal graph built there."""
    src = os.path.dirname(os.path.dirname(hog.__file__))
    path = str(tmp_path / "g.pickle")
    for seed, script in (("1", PICKLE_WRITER), ("2", PICKLE_READER)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, path], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False found 1 True\n"
