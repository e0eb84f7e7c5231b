import pytest

from hog.core import Arc
from hog.errors import DuplicateIdError, ParseError
from hog.io import parse_edgelist


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
