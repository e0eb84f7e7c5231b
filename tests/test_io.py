import gc
import random

import pytest

from hog.core import Arc, DirectedGraph, standard_cycle
from hog.errors import DuplicateIdError, ParseError
from hog.homotopy import cofibrant_replacement
from hog.io import (
    chain_from_dict,
    graph_from_dict,
    morphism_from_dict,
    parse_edgelist,
    reflexive_from_dict,
)
from hog.pagerank import connectivity_report, pagerank
from hog.scc import scc_decompose


def test_edgelist_skips_blank_and_comment_only_lines():
    g = parse_edgelist("# header\n\n   \nx y # trailing\n   # indented\ny z#tight\n#\n")
    assert g.nodes == ("x", "y", "z")
    assert g.arcs == (Arc("e0", "x", "y"), Arc("e1", "y", "z"))


def test_edgelist_generated_ids_count_every_arc_line():
    g = parse_edgelist("x y a\ny z\n# not an arc\nz x b\n\nx x\n")
    assert g.arcs == (
        Arc("a", "x", "y"),
        Arc("e1", "y", "z"),
        Arc("b", "z", "x"),
        Arc("e3", "x", "x"),
    )


def test_edgelist_explicit_id_may_clash_with_generated_one():
    with pytest.raises(DuplicateIdError) as exc:
        parse_edgelist("x y e1\ny x\n")
    assert str(exc.value) == "duplicate arc id 'e1'"


def test_edgelist_nodes_in_first_appearance_order():
    g = parse_edgelist("c b\na c\nb d\nd d\n")
    assert g.nodes == ("c", "b", "a", "d")


def test_edgelist_empty_text_is_the_empty_graph():
    g = parse_edgelist("# only a comment\n\n")
    assert g.nodes == () and g.arcs == ()


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("x\n", 1),
        ("x y\n# comment\n\nz\n", 4),
        ("x y a b\n", 1),
        ("# comment\n\nx y\nx y a b # trailing\n", 4),
    ],
)
def test_edgelist_errors_name_the_line(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse_edgelist(text)
    assert str(exc.value) == f"line {lineno}: expected 'src tgt [arc_id]'"


@pytest.mark.parametrize(
    "coefficients, bad",
    [({"a0": True, "a1": True}, "a0"), ({"a0": 1, "a1": False}, "a1")],
)
def test_chain_rejects_bool_coefficients(coefficients, bad):
    with pytest.raises(ParseError) as exc:
        chain_from_dict({"coefficients": coefficients}, standard_cycle(2))
    assert str(exc.value) == f"coefficient of {bad!r} is not an integer"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"nodes": ["x", 1, True, None, 1.5]}, "node #1 is not a string: 1"),
        ({"nodes": ["x", True]}, "node #1 is not a string: true"),
        ({"nodes": [None]}, "node #0 is not a string: null"),
        ({"nodes": ["x", 1.5]}, "node #1 is not a string: 1.5"),
        ({"nodes": [["x"]]}, 'node #0 is not a string: ["x"]'),
        (
            {"nodes": ["x"], "arcs": [{"id": "a", "src": "x", "tgt": "x"}, {"id": 7}]},
            "arc #1 'id' is not a string: 7",
        ),
        (
            {"nodes": ["x"], "arcs": [{"id": "a", "src": "x", "tgt": False}]},
            "arc #0 'tgt' is not a string: false",
        ),
    ],
)
def test_graph_json_rejects_names_that_are_not_strings(payload, message):
    with pytest.raises(ParseError) as exc:
        graph_from_dict(payload)
    assert str(exc.value) == message


def test_morphism_and_degeneracy_json_reject_names_that_are_not_strings():
    c1 = standard_cycle(1)
    with pytest.raises(ParseError) as exc:
        morphism_from_dict({"nodes": {"x0": 0}, "arcs": {"a0": "a0"}}, c1, c1)
    assert str(exc.value) == "image of node 'x0' is not a string: 0"
    with pytest.raises(ParseError) as exc:
        morphism_from_dict({"nodes": {"x0": "x0"}, "arcs": {"a0": None}}, c1, c1)
    assert str(exc.value) == "image of arc 'a0' is not a string: null"
    payload = {
        "nodes": ["x"],
        "arcs": [{"id": "l", "src": "x", "tgt": "x"}],
        "degeneracies": {"x": 0},
    }
    with pytest.raises(ParseError) as exc:
        reflexive_from_dict(payload)
    assert str(exc.value) == "degeneracy of 'x' is not a string: 0"


def test_parsed_graph_equals_and_hashes_like_a_built_one():
    parsed = parse_edgelist("x y a\ny z\nz x b\nx x\n")
    triples = [("a", "x", "y"), ("e1", "y", "z"), ("b", "z", "x"), ("e3", "x", "x")]
    built = DirectedGraph(["x", "y", "z"], [Arc(*t) for t in triples])
    assert parsed == built and hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)


def _arc_instances(*roots):
    """Every Arc reachable from the roots through containers and graphs."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Arc):
            found.append(obj)
        if isinstance(obj, (dict, tuple, list, set, frozenset)) or hasattr(obj, "__dict__"):
            stack.extend(r for r in gc.get_referents(obj) if not isinstance(r, type))
    return found


def test_a_parsed_graph_holds_no_arc_records():
    """The arcs live in three string columns: parsing, counting the arcs and
    the web-rank analyses leave no Arc in the graph or its decomposition."""
    rng = random.Random(7)
    text = "".join(f"v{rng.randrange(500)} v{rng.randrange(500)}\n" for _ in range(10_000))
    g = parse_edgelist(text)
    assert _arc_instances(g) == []
    assert len(g.arcs) == 10_000
    assert _arc_instances(g) == []
    dec = scc_decompose(g)
    core, embedding = cofibrant_replacement(g)
    connectivity_report(g)
    pagerank(g)
    assert _arc_instances(g, dec, core, embedding) == []
