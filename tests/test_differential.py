"""The per-arc passes against their loop-based references in ``oracles``.

The edge-list parser, the SCC decomposition with its inner-arc buckets and
acyclicity test, and the cofibrant core must give the same values, in the
same order, as the loops they replaced: components, the node-to-component
map, the condensation with its ``e{k}`` ids, the kept arcs, the embedding's
maps, parsed graphs with their node order, and the type and text of every
error.  The graphs are seeded multigraphs with parallel arcs, self-loops,
isolated nodes and arc ids out of node order, built from triples, from
``Arc`` values and from a mix, plus a long path for depth.

The walk splice behind postman tours and ``euler_via_homology`` must give
the same arcs and base as splicing whole validated walks, on the walks that
``decompose_positive_chain`` yields for seeded postman and Euler inputs and
for every strongly connected graph of ``connected_small_graphs(3, 5)``.
"""

import random
from collections import Counter

import pytest

from hog import homology
from hog.core import Arc, DirectedGraph, graph_from_columns, standard_path
from hog.enumeration import connected_small_graphs
from hog.errors import DuplicateIdError, HogError, ParseError
from hog.euler import euler_check
from hog.homology import ArcChain, decompose_positive_chain, fundamental_chain
from hog.homotopy import cofibrant_replacement
from hog.io import parse_edgelist
from hog.scc import is_acyclic, is_strongly_connected, scc_decompose
from oracles import (
    cofibrant_replacement_by_loop,
    component_arcs_by_loop,
    is_acyclic_by_loop,
    parse_edgelist_by_loop,
    scc_decompose_by_loops,
    splice_all_by_walks,
)

FORMS = ("triples", "arcs", "mix")


def _triples(rng: random.Random, n: int, m: int) -> tuple[list[str], list[tuple[str, str, str]]]:
    """n nodes named out of order, two of them isolated, and m arcs with
    parallel arcs, self-loops and shuffled ids."""
    nodes = [f"v{i}" for i in rng.sample(range(3 * n), n)]
    ends: list[tuple[str, str]] = []
    for _ in range(m):
        r = rng.random()
        if r < 0.1 and ends:
            ends.append(rng.choice(ends))
        elif r < 0.2:
            v = rng.choice(nodes)
            ends.append((v, v))
        else:
            ends.append((rng.choice(nodes), rng.choice(nodes)))
    for k in range(2):
        nodes.insert(rng.randrange(len(nodes) + 1), f"iso{k}")
    ids = rng.sample(range(10 * m + 1), m)
    return nodes, [(f"a{i}", s, t) for i, (s, t) in zip(ids, ends)]


def _graph(seed: int, form: str) -> DirectedGraph:
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    nodes, triples = _triples(rng, n, rng.randint(0, 3 * n))
    if form == "arcs":
        arcs = [Arc(*t) for t in triples]
    elif form == "mix":
        arcs = [Arc(*t) if rng.random() < 0.5 else t for t in triples]
    else:
        arcs = triples
    return DirectedGraph(tuple(nodes), tuple(arcs))


def _assert_same_decomposition(g: DirectedGraph) -> None:
    got, want = scc_decompose(g), scc_decompose_by_loops(g)
    assert got.components == want.components
    assert list(got.component_of.items()) == list(want.component_of.items())
    assert got.condensation.nodes == want.condensation.nodes
    assert got.condensation.arcs == want.condensation.arcs
    assert {type(a) for a in got.condensation.arcs} <= {Arc}
    assert got.table.arc_ids == tuple(
        tuple(a.id for a in arcs) for arcs in component_arcs_by_loop(want)
    )
    assert is_acyclic(g) == is_acyclic_by_loop(g)


def _assert_same_core(g: DirectedGraph) -> None:
    (core, emb), (ref_core, ref_emb) = cofibrant_replacement(g), cofibrant_replacement_by_loop(g)
    assert core.nodes == ref_core.nodes
    assert core.arcs == ref_core.arcs
    assert list(emb.node_map.items()) == list(ref_emb.node_map.items())
    assert list(emb.arc_map.items()) == list(ref_emb.arc_map.items())
    assert emb.domain == ref_emb.domain and emb.codomain is g


@pytest.mark.parametrize("form", FORMS)
def test_construction_keeps_arcs_as_arc_values(form):
    for seed in range(40):
        g = _graph(seed, form)
        assert {type(a) for a in g.arcs} <= {Arc}
        assert g == DirectedGraph(g.nodes, tuple(map(tuple, g.arcs)))


def test_construction_returns_arc_subclasses_and_lists_as_plain_arcs():
    class Tagged(Arc):
        pass

    tagged = Tagged("a", "x", "y")
    g = DirectedGraph(("x", "y"), (tagged, ["b", "y", "x"], ("c", "x", "x")))
    assert [type(a) for a in g.arcs] == [Arc, Arc, Arc]
    assert g.arcs == (Arc("a", "x", "y"), Arc("b", "y", "x"), Arc("c", "x", "x"))


@pytest.mark.parametrize("form", FORMS)
def test_decomposition_matches_the_loop_reference(form):
    for seed in range(150):
        _assert_same_decomposition(_graph(1000 + seed, form))


def test_decomposition_of_a_long_path_matches_the_loop_reference():
    g = standard_path(10_000)
    _assert_same_decomposition(g)
    reversed_ids = DirectedGraph(g.nodes[::-1], g.arcs[::-1])
    _assert_same_decomposition(reversed_ids)


@pytest.mark.parametrize("form", FORMS)
def test_cofibrant_core_matches_the_loop_reference(form):
    for seed in range(150):
        _assert_same_core(_graph(2000 + seed, form))
    _assert_same_core(standard_path(10_000))


def _edgelist_text(rng: random.Random) -> str:
    """A seeded edge list with comments, blank lines, tabs, CRLF line ends,
    and three-column lines among two-column ones."""
    _, triples = _triples(rng, rng.randint(1, 30), rng.randint(0, 80))
    lines = []
    for aid, s, t in triples:
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "  ", "\t", "# note", "   # indented"]))
        sep = rng.choice([" ", "\t", "  ", " \t "])
        fields = [s, t, aid] if rng.random() < 0.4 else [s, t]
        line = sep.join(fields)
        if rng.random() < 0.2:
            line += rng.choice([" # trailing", "#tight", "\t#"])
        lines.append(line)
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])


def _outcome(parse, text: str):
    try:
        g = parse(text)
    except HogError as exc:
        return type(exc), str(exc)
    return g.nodes, g.arcs, {type(a) for a in g.arcs} <= {Arc}


def test_parse_matches_the_loop_reference():
    rng = random.Random(20141014)
    for _ in range(300):
        text = _edgelist_text(rng)
        assert _outcome(parse_edgelist, text) == _outcome(parse_edgelist_by_loop, text)


def test_parse_errors_match_the_loop_reference():
    rng = random.Random(1014)
    faults = ["x", "x y z w", "a b c d # four columns", "x y e0", "x y e1"]
    kinds = set()
    for _ in range(200):
        lines = _edgelist_text(rng).splitlines()
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(faults))
        text = "\n".join(lines)
        got = _outcome(parse_edgelist, text)
        assert got == _outcome(parse_edgelist_by_loop, text)
        kinds.add(got[0])
    assert {ParseError, DuplicateIdError} <= kinds


def _postman_walks(g: DirectedGraph) -> list:
    """The closed walks, repeated by multiplicity, that the postman splices."""
    total = Counter(dict.fromkeys(g.arc_ids, 1))
    total.update(homology._min_cost_duplicates(g))
    dec = decompose_positive_chain(ArcChain(g, dict(total)))
    return [w for w, m in zip(dec.cycles, dec.multiplicities) for _ in range(m)]


def _euler_walks(g: DirectedGraph) -> list:
    """The closed walks that ``euler_via_homology`` splices."""
    return list(decompose_positive_chain(fundamental_chain(g)).cycles)


def _tours(rng: random.Random, n: int, cycles: int, extra: int) -> DirectedGraph:
    """A shuffled Hamiltonian cycle on n nodes plus that many short random
    cycles (Eulerian) plus extra random arcs (unbalanced when extra > 0)."""
    nodes = [f"v{i}" for i in range(n)]
    order = rng.sample(nodes, n)
    ends = list(zip(order, order[1:] + order[:1]))
    for _ in range(cycles):
        loop = [rng.choice(nodes) for _ in range(rng.randint(1, 4))]
        ends.extend(zip(loop, loop[1:] + loop[:1]))
    ends.extend((rng.choice(nodes), rng.choice(nodes)) for _ in range(extra))
    rng.shuffle(ends)
    ids = [f"a{k}" for k in rng.sample(range(10 * len(ends)), len(ends))]
    return graph_from_columns(nodes, ids, *zip(*ends))


def _assert_same_splice(walks: list) -> None:
    got, want = homology._splice_all(walks), splice_all_by_walks(walks)
    assert got.arcs == want.arcs and got.base == want.base


def test_splice_matches_whole_walk_splicing_on_seeded_graphs():
    rng = random.Random(1742)
    for _ in range(30):
        n = rng.randint(2, 40)
        _assert_same_splice(_postman_walks(_tours(rng, n, n, rng.randint(1, 2 * n))))
        _assert_same_splice(_euler_walks(_tours(rng, n, 2 * n, 0)))


def test_splice_matches_whole_walk_splicing_on_small_graphs():
    checked = 0
    for g in connected_small_graphs(3, 5):
        if not is_strongly_connected(g):
            continue
        _assert_same_splice(_postman_walks(g))
        if euler_check(g).is_eulerian:
            _assert_same_splice(_euler_walks(g))
        checked += 1
    assert checked > 0
