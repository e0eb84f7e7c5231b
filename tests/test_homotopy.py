import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hog.core import (
    GraphMorphism,
    Walk,
    build_graph,
    degrees,
    standard_cycle,
    standard_path,
    trace_of_power,
)
from hog.errors import (
    CapExceededError,
    EndpointMismatchError,
    InvalidMorphismError,
    LengthMismatchError,
    NotSimpleError,
    SameNodeError,
    UnknownNodeError,
)
from hog.homotopy import (
    attach_cycle,
    brute_force_weq_check,
    cofibrant_replacement,
    enumerate_hom_cycles,
    glue_nodes,
    glue_paths,
    is_weak_equivalence,
    is_weak_equivalence_cycles_only,
)
from hog.scc import is_strongly_connected, scc_decompose
from strategies import graphs, quotient_morphisms


def collapse_to_dot(g):
    """The unique morphism onto the dot graph; exists only for arcless g."""
    dot = standard_cycle(0)
    return GraphMorphism(g, dot, {n: "x0" for n in g.nodes}, {})


def two_dots():
    return build_graph(["u", "v"], [])


def test_hom_cycles_counts():
    c3 = standard_cycle(3)
    assert len(enumerate_hom_cycles(c3, 3)) == 3
    assert len(enumerate_hom_cycles(c3, 4)) == 0
    c1 = standard_cycle(1)
    for n in range(5):
        assert len(enumerate_hom_cycles(c1, n)) == 1
    assert len(enumerate_hom_cycles(c3, 0)) == 3  # one per node


def test_hom_cycles_are_valid_and_distinct():
    c3 = standard_cycle(3)
    walks = enumerate_hom_cycles(c3, 3).morphisms
    assert len(set(walks)) == 3
    assert all(w.as_morphism().is_valid() for w in walks)


def test_hom_cycles_cap():
    loops = build_graph(["x"], [(f"a{i}", "x", "x") for i in range(4)])
    with pytest.raises(CapExceededError):
        enumerate_hom_cycles(loops, 8, cap=100)


def test_weq_identity_true():
    for g in (standard_cycle(3), standard_path(4)):
        verdict = is_weak_equivalence(GraphMorphism.identity(g))
        assert verdict and verdict.component_matching is not None


def test_weq_cofibrant_embedding_of_path():
    core, embedding = cofibrant_replacement(standard_path(2))
    assert is_weak_equivalence(embedding)


def test_weq_collapse_to_dot_false():
    # two components collapse onto one: the walk counts at length zero differ
    verdict = is_weak_equivalence(collapse_to_dot(two_dots()))
    assert not verdict
    assert verdict.witness


def test_weq_invalid_morphism_raises():
    c3 = standard_cycle(3)
    broken = GraphMorphism(c3, c3, {n: n for n in c3.nodes}, {})
    with pytest.raises(InvalidMorphismError):
        is_weak_equivalence(broken)


def test_cycles_only_collapse_true():
    # no positive-length walks on either side, so node collapse is invisible
    assert is_weak_equivalence_cycles_only(collapse_to_dot(two_dots()))


def test_cycles_only_identity_true():
    assert is_weak_equivalence_cycles_only(GraphMorphism.identity(standard_cycle(3)))


def _folding_conjugacy() -> GraphMorphism:
    """X (loops p at x and q at y, arcs a: x->y and b: y->x) onto two loops
    at one node.  X is the 2-block presentation of that graph's edge shift
    and the morphism is a conjugacy, bijective on closed walks of every
    positive length, though it is not injective on nodes."""
    x = build_graph(
        ["x", "y"],
        [("p", "x", "x"), ("q", "y", "y"), ("a", "x", "y"), ("b", "y", "x")],
    )
    y = build_graph(["z"], [("l1", "z", "z"), ("l2", "z", "z")])
    return GraphMorphism(
        x, y, {"x": "z", "y": "z"}, {"p": "l1", "b": "l1", "a": "l2", "q": "l2"}
    )


def test_folding_conjugacy_is_bijective_on_closed_walks():
    reports = brute_force_weq_check(_folding_conjugacy(), 10, include_zero=False)
    assert [r.n for r in reports] == list(range(1, 11))
    assert all(r.bijective for r in reports)


@pytest.mark.xfail(
    strict=True,
    reason="the cycles-only verdict asks matched components to be bijective on nodes",
)
def test_cycles_only_accepts_the_folding_conjugacy():
    verdict = is_weak_equivalence_cycles_only(_folding_conjugacy())
    assert verdict.is_weak_equivalence, verdict.witness


def test_cycles_only_fold_false():
    two = build_graph(
        ["u0", "u1", "u2", "v0", "v1", "v2"],
        [
            ("a0", "u0", "u1"), ("a1", "u1", "u2"), ("a2", "u2", "u0"),
            ("b0", "v0", "v1"), ("b1", "v1", "v2"), ("b2", "v2", "v0"),
        ],
    )
    c3 = standard_cycle(3)
    fold = GraphMorphism(
        two,
        c3,
        {"u0": "x0", "u1": "x1", "u2": "x2", "v0": "x0", "v1": "x1", "v2": "x2"},
        {"a0": "a0", "a1": "a1", "a2": "a2", "b0": "a0", "b1": "a1", "b2": "a2"},
    )
    assert fold.is_valid()
    assert not is_weak_equivalence_cycles_only(fold)
    reports = brute_force_weq_check(fold, 3, include_zero=False)
    by_n = {r.n: r for r in reports}
    assert by_n[3].domain_count == 6 and by_n[3].codomain_count == 3
    assert not by_n[3].bijective


def test_brute_force_identity_bijective():
    f = GraphMorphism.identity(standard_cycle(4))
    assert all(r.bijective for r in brute_force_weq_check(f, 8))


def test_brute_force_collapse_c2_to_c1():
    c2, c1 = standard_cycle(2), standard_cycle(1)
    f = GraphMorphism(
        c2, c1, {"x0": "x0", "x1": "x0"}, {"a0": "a0", "a1": "a0"}
    )
    assert f.is_valid()
    by_n = {r.n: r for r in brute_force_weq_check(f, 2)}
    assert by_n[1].domain_count == 0 and by_n[1].codomain_count == 1
    assert not by_n[1].bijective


def test_brute_force_cofibrant_embedding_with_pendant():
    g = build_graph(
        ["x0", "x1", "y"],
        [("a0", "x0", "x1"), ("a1", "x1", "x0"), ("p", "x0", "y")],
    )
    core, embedding = cofibrant_replacement(g)
    assert set(a.id for a in core.arcs) == {"a0", "a1"}
    assert all(r.bijective for r in brute_force_weq_check(embedding, 6))
    assert is_weak_equivalence(embedding)


def test_cofibrant_replacement_examples(figure_eight):
    c3 = standard_cycle(3)
    core, embedding = cofibrant_replacement(c3)
    assert core == c3 and embedding.node_map == {n: n for n in c3.nodes}

    p4_core, _ = cofibrant_replacement(standard_path(4))
    assert len(p4_core.nodes) == 4 and p4_core.arcs == ()

    fig_core, _ = cofibrant_replacement(figure_eight)
    assert fig_core == figure_eight


@given(graphs(max_nodes=5, max_arcs=8))
def test_cofibrant_replacement_idempotent_and_weq(g):
    core, embedding = cofibrant_replacement(g)
    again, _ = cofibrant_replacement(core)
    assert again == core
    assert is_weak_equivalence(embedding)


def test_glue_nodes_p2_becomes_loop():
    result, morphism = glue_nodes(standard_path(2), "x0", "x1")
    assert len(result.nodes) == 1 and len(result.arcs) == 1
    assert result.arcs[0].src == result.arcs[0].tgt == "x0"
    assert morphism.is_valid()


def test_glue_nodes_wedge_of_cycles():
    g = build_graph(
        ["u0", "u1", "v0", "v1", "v2"],
        [
            ("a0", "u0", "u1"), ("a1", "u1", "u0"),
            ("b0", "v0", "v1"), ("b1", "v1", "v2"), ("b2", "v2", "v0"),
        ],
    )
    result, morphism = glue_nodes(g, "u0", "v0")
    assert len(result.nodes) == 4 and len(result.arcs) == 5
    assert morphism.is_valid()
    assert is_strongly_connected(result)


def test_glue_nodes_c4_nonadjacent_gives_figure_eight():
    result, _ = glue_nodes(standard_cycle(4), "x0", "x2")
    assert len(scc_decompose(result).components) == 1
    assert degrees(result, "x0") == (2, 2)
    assert degrees(result, "x1") == (1, 1)


def test_glue_nodes_errors():
    g = standard_path(2)
    with pytest.raises(UnknownNodeError):
        glue_nodes(g, "x0", "zz")
    with pytest.raises(SameNodeError):
        glue_nodes(g, "x0", "x0")


def test_attach_cycle_to_dot_is_loop():
    result, embedding = attach_cycle(standard_cycle(0), "x0", 1)
    assert len(result.nodes) == 1 and len(result.arcs) == 1
    assert embedding.is_valid()


def test_attach_cycle_figure_eight():
    result, _ = attach_cycle(standard_cycle(2), "x0", 2)
    assert degrees(result, "x0") == (2, 2)
    assert len(result.nodes) == 3 and len(result.arcs) == 4


def test_attach_cycle_twice_at_same_node():
    g, _ = attach_cycle(standard_cycle(3), "x0", 3)
    g, _ = attach_cycle(g, "x0", 3)
    assert degrees(g, "x0") == (3, 3)


def test_attach_cycle_unknown_node():
    with pytest.raises(UnknownNodeError):
        attach_cycle(standard_cycle(2), "zz", 1)


def test_glue_paths_parallel_arcs():
    g = build_graph(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    result, morphism = glue_paths(g, Walk(g, ("a",)), Walk(g, ("b",)))
    assert len(result.nodes) == 2 and len(result.arcs) == 1
    assert result.arcs[0].id == "a"
    assert morphism.arc_map == {"a": "a", "b": "a"}


def test_glue_paths_parallel_length_two():
    g = build_graph(
        ["x", "m1", "m2", "y"],
        [("a0", "x", "m1"), ("a1", "m1", "y"), ("b0", "x", "m2"), ("b1", "m2", "y")],
    )
    result, morphism = glue_paths(
        g, Walk(g, ("a0", "a1")), Walk(g, ("b0", "b1"))
    )
    assert len(result.nodes) == 3 and len(result.arcs) == 2
    assert morphism.is_valid()


def test_glue_paths_crossed_intermediates_merge_transitively():
    # p1 passes u then v, p2 passes v then u: positionwise identification
    # chains u ~ v into a single class
    g = build_graph(
        ["x", "u", "v", "y"],
        [
            ("a", "x", "u"), ("b", "u", "v"), ("c", "v", "y"),
            ("d", "x", "v"), ("e", "v", "u"), ("f", "u", "y"),
        ],
    )
    result, morphism = glue_paths(g, Walk(g, ("a", "b", "c")), Walk(g, ("d", "e", "f")))
    assert morphism.is_valid()
    assert len(result.nodes) == 3 and len(result.arcs) == 3
    assert morphism.node_map["u"] == morphism.node_map["v"]


def test_glue_paths_rejects_self_glue():
    g = build_graph(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    walk = Walk(g, ("a",))
    with pytest.raises(NotSimpleError):
        glue_paths(g, walk, walk)


def test_glue_paths_mismatch_errors():
    g = build_graph(
        ["x", "m", "y"],
        [("a0", "x", "m"), ("a1", "m", "y"), ("b", "x", "y"), ("c", "y", "x")],
    )
    with pytest.raises(LengthMismatchError):
        glue_paths(g, Walk(g, ("a0", "a1")), Walk(g, ("b",)))
    with pytest.raises(EndpointMismatchError):
        glue_paths(g, Walk(g, ("b",)), Walk(g, ("c",)))


def test_weq_between_strongly_connected_graphs_means_isomorphism():
    # between strongly connected graphs the verdict matches node+arc bijectivity
    c2, c1 = standard_cycle(2), standard_cycle(1)
    collapse = GraphMorphism(c2, c1, {"x0": "x0", "x1": "x0"}, {"a0": "a0", "a1": "a0"})
    assert not is_weak_equivalence(collapse)
    rotation = GraphMorphism(
        c2, c2, {"x0": "x1", "x1": "x0"}, {"a0": "a1", "a1": "a0"}
    )
    assert is_weak_equivalence(rotation)


@given(quotient_morphisms(max_nodes=4, max_arcs=5))
@settings(max_examples=60)
def test_verdict_sound_against_oracle(f):
    verdict = is_weak_equivalence(f)
    reports = brute_force_weq_check(f, 6)
    if verdict:
        assert all(r.bijective for r in reports)
    # converse (a failing length must exist) is covered exhaustively in acceptance


@given(graphs(max_nodes=4, max_arcs=6), st.data())
def test_surgery_morphisms_validate_and_preserve_balance(g, data):
    if len(g.nodes) >= 2:
        x = data.draw(st.sampled_from(g.nodes))
        y = data.draw(st.sampled_from([n for n in g.nodes if n != x]))
        result, morphism = glue_nodes(g, x, y)
        assert morphism.is_valid()
        balanced = all(degrees(g, n)[0] == degrees(g, n)[1] for n in g.nodes)
        if balanced:
            assert all(
                degrees(result, n)[0] == degrees(result, n)[1] for n in result.nodes
            )
    x = data.draw(st.sampled_from(g.nodes))
    m = data.draw(st.integers(1, 3))
    bigger, embedding = attach_cycle(g, x, m)
    assert embedding.is_valid()
    balanced = all(degrees(g, n)[0] == degrees(g, n)[1] for n in g.nodes)
    if balanced:
        assert all(
            degrees(bigger, n)[0] == degrees(bigger, n)[1] for n in bigger.nodes
        )


def test_hom_counts_match_trace_on_samples():
    for g in (
        standard_cycle(3),
        build_graph(["x"], [("a", "x", "x"), ("b", "x", "x")]),
        build_graph(["x", "y"], [("a", "x", "y"), ("b", "y", "x"), ("c", "x", "y")]),
    ):
        for n in range(7):
            assert len(enumerate_hom_cycles(g, n)) == trace_of_power(g, n)


def _random_multigraph(rng, n):
    """Planted cycles joined by random arcs: several SCCs, loops, parallel arcs."""
    nodes = [f"v{i}" for i in range(n)]
    arcs = []
    start = 0
    while start < n:
        size = rng.randint(1, 6)
        block = nodes[start:start + size]
        if rng.random() < 0.7:
            arcs += [(block[k], block[(k + 1) % len(block)]) for k in range(len(block))]
        start += size
    arcs += [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, n))]
    rng.shuffle(arcs)
    return build_graph(nodes, [(f"a{k}", s, t) for k, (s, t) in enumerate(arcs)])


def _random_quotient(rng, g):
    """Collapse nodes onto fewer representatives; parallel images may share an
    arc, and the codomain may gain arcs and isolated nodes."""
    k = rng.randint(1, len(g.nodes))
    nm = {v: f"y{rng.randrange(k)}" for v in g.nodes}
    cod_nodes = list(dict.fromkeys(nm.values()))
    cod_arcs, am, by_ends = [], {}, {}
    for a in g.arcs:
        ends = (nm[a.src], nm[a.tgt])
        if ends in by_ends and rng.random() < 0.3:
            am[a.id] = rng.choice(by_ends[ends])
            continue
        am[a.id] = f"b{len(cod_arcs)}"
        by_ends.setdefault(ends, []).append(am[a.id])
        cod_arcs.append((am[a.id], *ends))
    for j in range(rng.randint(0, 2)):
        cod_arcs.append((f"extra{j}", rng.choice(cod_nodes), rng.choice(cod_nodes)))
    cod_nodes += [f"lone{j}" for j in range(rng.randint(0, 1))]
    return GraphMorphism(g, build_graph(cod_nodes, cod_arcs), nm, am)


def _relabelling(rng, g):
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    nm = {v: f"r{i}" for i, v in enumerate(nodes)}
    arcs = list(g.arcs)
    rng.shuffle(arcs)
    am = {a.id: f"s{i}" for i, a in enumerate(arcs)}
    cod = build_graph([nm[v] for v in nodes], [(am[a.id], nm[a.src], nm[a.tgt]) for a in arcs])
    return GraphMorphism(g, cod, nm, am)


def _corpus_morphism(rng, corpus):
    """A corpus pair and node map drawn uniformly, then a compatible arc map
    drawn uniformly; draws without one are skipped."""
    while True:
        x, y = rng.choice(corpus), rng.choice(corpus)
        nm = {v: rng.choice(y.nodes) for v in x.nodes}
        if rng.random() < 0.5 and len(x.nodes) == len(y.nodes):
            nm = dict(zip(x.nodes, rng.sample(y.nodes, len(y.nodes))))
        am = {}
        for a in x.arcs:
            fits = [b.id for b in y.arcs if (b.src, b.tgt) == (nm[a.src], nm[a.tgt])]
            if not fits:
                break
            am[a.id] = rng.choice(fits)
        else:
            return GraphMorphism(x, y, nm, am)


# Every witness a valid morphism can get.  A morphism sends a strongly
# connected component, and its arcs, into one codomain component, so the
# "spans components" and "maps into excluded component" checks never fire.
WITNESS_KINDS = (
    "both map onto",
    "is not the image",
    "not injective on nodes",
    "nodes but its image",
    "not injective on arcs",
    "arcs but its image",
)


def test_component_verdict_matches_the_set_based_reference():
    """The table-based verdict against the verdict as it was before it read
    precomputed component tables: same truth value, component matching and
    witness, in all three verdicts, on corpus draws, quotient maps, relabelling
    isomorphisms, cofibrant embeddings and the lifts of all of them."""
    from hog.enumeration import small_graphs
    from hog.reflexive import is_weak_equivalence_reflexive, lift_morphism
    from oracles import weq_by_sets, weq_cycles_only_by_sets, weq_reflexive_by_sets

    rng = random.Random(20141408)
    corpus = list(small_graphs(3, 4))
    morphisms = [_corpus_morphism(rng, corpus) for _ in range(3000)]
    for _ in range(150):
        g = _random_multigraph(rng, rng.randint(1, 40))
        morphisms += [_random_quotient(rng, g), _relabelling(rng, g), cofibrant_replacement(g)[1]]

    def triple(v):
        return v.is_weak_equivalence, v.component_matching, v.witness

    witnesses = set()
    true_counts = [0, 0, 0]
    pairs = (
        (is_weak_equivalence, weq_by_sets),
        (is_weak_equivalence_cycles_only, weq_cycles_only_by_sets),
        (is_weak_equivalence_reflexive, weq_reflexive_by_sets),
    )
    for f in morphisms:
        lifted = lift_morphism(f)
        for k, (verdict, reference) in enumerate(pairs):
            arg = lifted if k == 2 else f
            got = triple(verdict(arg))
            assert got == triple(reference(arg)), (k, f)
            true_counts[k] += got[0]
            witnesses.update(kind for kind in WITNESS_KINDS if kind in (got[2] or ""))
    assert all(0 < t < len(morphisms) for t in true_counts), true_counts
    assert witnesses == set(WITNESS_KINDS)
