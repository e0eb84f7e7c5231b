"""Reading and writing graphs, morphisms, and chains.

Graph JSON: {"nodes": ["x", ...], "arcs": [{"id": "a", "src": "x", "tgt": "y"}, ...]}
Reflexive graphs add {"degeneracies": {"x": "loop_x", ...}}.
Morphism JSON: {"nodes": {"x": "u", ...}, "arcs": {"a": "b", ...}} with the
domain and codomain supplied separately.
Chain JSON: {"coefficients": {"a": 2, ...}}.
Edge lists: one "src tgt [arc_id]" per line, nodes inferred in first-appearance
order, "#" starts a comment.

Readers are lenient about extra keys but take only JSON strings as names,
and accept payloads wrapped in a {"graph": ...} envelope, so command output
pipes back in unchanged.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from typing import TYPE_CHECKING, Any

from .core import DirectedGraph, GraphMorphism, build_graph, graph_from_columns
from .errors import CoefficientError, ParseError

if TYPE_CHECKING:
    from types import ModuleType

    from .homology import ArcChain
    from .reflexive import ReflexiveGraph, ReflexiveMorphism


def _reflexive(g: Any) -> ModuleType | None:
    """``hog.reflexive`` when g is one of its ReflexiveGraphs, else None.

    Such a graph exists only once that module is loaded, so telling one
    apart does not load it.
    """
    module = sys.modules.get("hog.reflexive")
    return module if module is not None and isinstance(g, module.ReflexiveGraph) else None


def graph_to_dict(g: DirectedGraph | ReflexiveGraph) -> dict[str, Any]:
    if _reflexive(g):
        g = g.graph
    return {
        "nodes": list(g.nodes),
        "arcs": [
            {"id": aid, "src": src, "tgt": tgt}
            for aid, src, tgt in zip(g.arc_ids, g.arc_srcs, g.arc_tgts)
        ],
    }


def reflexive_to_dict(g: ReflexiveGraph) -> dict[str, Any]:
    return {**graph_to_dict(g), "degeneracies": dict(g.degeneracy)}


def morphism_to_dict(m: GraphMorphism) -> dict[str, Any]:
    return {"nodes": dict(m.node_map), "arcs": dict(m.arc_map)}


def chain_to_dict(u: ArcChain) -> dict[str, Any]:
    return {"coefficients": dict(u.coefficients)}


def _unwrap(payload: Any) -> Any:
    if isinstance(payload, dict) and "graph" in payload and "nodes" not in payload:
        return payload["graph"]
    return payload


def _name(value: Any, what: str, *keys: object) -> str:
    """value, if it is a string; what.format(*keys) names the entry if not."""
    if isinstance(value, str):
        return value
    raise ParseError(f"{what.format(*keys)} is not a string: {json.dumps(value, default=repr)}")


def _parse_arcs(raw: Any) -> list[tuple[str, str, str]]:
    arcs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ParseError(f"arc #{i} is not an object")
        try:
            arcs.append(tuple(_name(entry[k], "arc #{} {!r}", i, k) for k in ("id", "src", "tgt")))
        except KeyError as exc:
            raise ParseError(f"arc #{i} lacks key {exc.args[0]!r}") from None
    return arcs


def graph_from_dict(payload: Any) -> DirectedGraph:
    payload = _unwrap(payload)
    if not isinstance(payload, dict):
        raise ParseError("graph payload must be a JSON object")
    nodes = payload.get("nodes")
    arcs = payload.get("arcs", [])
    if not isinstance(nodes, list) or not isinstance(arcs, list):
        raise ParseError('graph payload needs "nodes" and "arcs" lists')
    return build_graph([_name(n, "node #{}", i) for i, n in enumerate(nodes)], _parse_arcs(arcs))


def reflexive_from_dict(payload: Any) -> ReflexiveGraph:
    from .reflexive import ReflexiveGraph

    payload = _unwrap(payload)
    if not isinstance(payload, dict) or "degeneracies" not in payload:
        raise ParseError('reflexive graph payload needs a "degeneracies" map')
    g = graph_from_dict({k: v for k, v in payload.items() if k != "degeneracies"})
    deg = payload["degeneracies"]
    if not isinstance(deg, dict):
        raise ParseError('"degeneracies" must be an object')
    deg = {k: _name(v, "degeneracy of {!r}", k) for k, v in deg.items()}
    return ReflexiveGraph(g.nodes, g.arcs, deg)


def morphism_from_dict(
    payload: Any,
    domain: DirectedGraph | ReflexiveGraph,
    codomain: DirectedGraph | ReflexiveGraph,
) -> GraphMorphism | ReflexiveMorphism:
    """A GraphMorphism, or a ReflexiveMorphism between reflexive graphs."""
    if not isinstance(payload, dict):
        raise ParseError("morphism payload must be a JSON object")
    nodes = payload.get("nodes")
    arcs = payload.get("arcs", {})
    if not isinstance(nodes, dict) or not isinstance(arcs, dict):
        raise ParseError('morphism payload needs "nodes" and "arcs" maps')
    reflexive = _reflexive(domain)
    cls = GraphMorphism if reflexive is None else reflexive.ReflexiveMorphism
    return cls(
        domain,
        codomain,
        {k: _name(v, "image of node {!r}", k) for k, v in nodes.items()},
        {k: _name(v, "image of arc {!r}", k) for k, v in arcs.items()},
    )


def chain_from_dict(payload: Any, graph: DirectedGraph) -> ArcChain:
    from .homology import ArcChain

    if not isinstance(payload, dict) or not isinstance(payload.get("coefficients"), dict):
        raise ParseError('chain payload needs a "coefficients" map')
    try:
        return ArcChain(graph, payload["coefficients"])
    except CoefficientError as exc:
        raise ParseError(str(exc)) from None


def parse_edgelist(text: str) -> DirectedGraph:
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    ids: list[str] = []
    srcs: list[str] = []
    tgts: list[str] = []
    add_id, add_src, add_tgt = ids.append, srcs.append, tgts.append
    for lineno, parts in enumerate(map(str.split, lines), 1):
        if len(parts) == 2:
            add_id(f"e{len(ids)}")
            src, tgt = parts
        elif len(parts) == 3:
            src, tgt, arc_id = parts
            add_id(arc_id)
        elif parts:
            raise ParseError(f"line {lineno}: expected 'src tgt [arc_id]'")
        else:
            continue
        add_src(src)
        add_tgt(tgt)
    nodes = dict.fromkeys(chain.from_iterable(zip(srcs, tgts)))
    return graph_from_columns(nodes, ids, srcs, tgts)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def load_json(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def parse_graph_text(text: str, fmt: str = "auto", source: str = "<input>") -> DirectedGraph:
    if fmt == "auto":
        stripped = text.lstrip()
        fmt = "json" if stripped.startswith("{") else "edgelist"
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}: invalid JSON ({exc})") from None
        return graph_from_dict(payload)
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise ParseError(f"unknown format {fmt!r}")


def load_graph(path: str, fmt: str = "auto") -> DirectedGraph:
    """Read a graph from a file or stdin ("-"); format by extension then content."""
    text = _read_text(path)
    if fmt == "auto" and path.endswith(".json"):
        fmt = "json"
    return parse_graph_text(text, fmt, source=path)


def load_reflexive(path: str) -> ReflexiveGraph:
    return reflexive_from_dict(load_json(path))


def load_morphism(
    path: str,
    domain: DirectedGraph | ReflexiveGraph,
    codomain: DirectedGraph | ReflexiveGraph,
) -> GraphMorphism | ReflexiveMorphism:
    return morphism_from_dict(load_json(path), domain, codomain)


def load_chain(path: str, graph: DirectedGraph) -> ArcChain:
    return chain_from_dict(load_json(path), graph)
