"""Core data model: directed multigraphs, morphisms, walks, closed-walk counts.

A graph is a finite directed multigraph: parallel arcs and self-loops are
allowed, and every arc carries its own identity (adjacency counts alone would
lose the arc-level data that morphisms need).  Node and arc ids are opaque
strings; iteration order is always insertion order, so identical inputs give
identical outputs.  All types are immutable values, safe to share across
threads; operations that change a graph return a new one.

A graph stores its arcs as three string columns, ``arc_ids``, ``arc_srcs``
and ``arc_tgts``: arc k is (arc_ids[k], arc_srcs[k], arc_tgts[k]).  ``g.arcs``
builds a new tuple of ``Arc`` records from them on each access and keeps
none, as do ``arc``, ``out_arcs`` and ``in_arcs``, so a graph holds no
per-arc object for the cyclic garbage collector to walk.  Hot paths read the
columns, and the lookup tables a graph builds on first use (``node_index``,
``arc_index``, the per-node arc ids) hold only strings and ints.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import and_, itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DanglingEndpointError,
    DuplicateIdError,
    InvalidMorphismError,
    UnknownArcError,
    UnknownNodeError,
    ValidationError,
)


class Arc(NamedTuple):
    """A directed arc; parallel arcs differ only by id."""

    id: str
    src: str
    tgt: str


_arc_id, _arc_src, _arc_tgt = itemgetter(0), itemgetter(1), itemgetter(2)
# Arc inputs whose columns itemgetter reads exactly as Arc(*a) would lay them out.
_PLAIN_ARC_TYPES = {Arc, tuple, list}


def _read_only(record: object, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of the records that keep their
    fields in the instance dict: the constructor sets them once."""
    raise AttributeError(f"{type(record).__name__} is immutable: cannot change {name!r}")


class DirectedGraph:
    """Finite directed multigraph with named nodes and arcs.

    ``DirectedGraph(nodes, arcs)`` takes ``Arc`` values, (id, src, tgt)
    triples or lists; ``graph_from_columns`` takes the three columns.  Both
    validate alike and raise for the first faulty node or arc in input order.
    Two graphs are equal when their nodes and arc columns are.
    """

    nodes: tuple[str, ...]
    arc_ids: tuple[str, ...]
    arc_srcs: tuple[str, ...]
    arc_tgts: tuple[str, ...]

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self, nodes: Iterable[str] = (), arcs: Iterable[Arc | Sequence[str]] = ()
    ) -> None:
        arcs = tuple(arcs)
        if not set(map(type, arcs)) <= _PLAIN_ARC_TYPES or not set(map(len, arcs)) <= {3}:
            arcs = [a if isinstance(a, Arc) else Arc(*a) for a in arcs]
        _fill(
            self,
            tuple(nodes),
            tuple(map(_arc_id, arcs)),
            tuple(map(_arc_src, arcs)),
            tuple(map(_arc_tgt, arcs)),
        )

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as ``Arc`` records, built anew on each access and not kept."""
        # Filled as a list first: a tuple grown from an iterator is tracked
        # anew by the cyclic collector at every resize, so each young
        # collection the new arcs trigger would walk all of it again.
        return tuple(
            list(map(tuple.__new__, repeat(Arc), zip(self.arc_ids, self.arc_srcs, self.arc_tgts)))
        )

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(nodes={self.nodes!r}, arcs={self.arcs!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nodes, self.arc_ids, self.arc_srcs, self.arc_tgts) == (
            other.nodes, other.arc_ids, other.arc_srcs, other.arc_tgts
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self.nodes, self.arc_ids, self.arc_srcs, self.arc_tgts))

    def __hash__(self) -> int:
        # Hashed once per instance: scc_decompose's cache looks graphs up on
        # every call, and the field hash walks every arc.
        return self._hash

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so the stored one stays behind.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @cached_property
    def node_index(self) -> dict[str, int]:
        return dict(zip(self.nodes, range(len(self.nodes))))

    @cached_property
    def arc_index(self) -> dict[str, int]:
        """The position of every arc id in the columns."""
        return dict(zip(self.arc_ids, range(len(self.arc_ids))))

    @cached_property
    def _out_ids(self) -> dict[str, tuple[str, ...]]:
        return _ids_by_node(self.nodes, self.arc_srcs, self.arc_ids)

    @cached_property
    def _in_ids(self) -> dict[str, tuple[str, ...]]:
        return _ids_by_node(self.nodes, self.arc_tgts, self.arc_ids)

    def has_node(self, node: str) -> bool:
        return node in self.node_index

    def arc_position(self, arc_id: str) -> int:
        """The index of the arc in the columns."""
        try:
            return self.arc_index[arc_id]
        except KeyError:
            raise UnknownArcError(f"unknown arc {arc_id!r}") from None

    def arc(self, arc_id: str) -> Arc:
        k = self.arc_position(arc_id)
        return Arc(self.arc_ids[k], self.arc_srcs[k], self.arc_tgts[k])

    def out_arc_ids(self, node: str) -> tuple[str, ...]:
        try:
            return self._out_ids[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def in_arc_ids(self, node: str) -> tuple[str, ...]:
        try:
            return self._in_ids[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def out_arcs(self, node: str) -> tuple[Arc, ...]:
        return tuple(map(self.arc, self.out_arc_ids(node)))

    def in_arcs(self, node: str) -> tuple[Arc, ...]:
        return tuple(map(self.arc, self.in_arc_ids(node)))


def _fill(
    g: DirectedGraph,
    nodes: tuple[str, ...],
    ids: tuple[str, ...],
    srcs: tuple[str, ...],
    tgts: tuple[str, ...],
) -> None:
    """Set the fields of a new graph and validate them."""
    # ``__setattr__`` refuses every assignment, so the fields go straight
    # into the instance dict, all four in one update.
    vars(g).update(nodes=nodes, arc_ids=ids, arc_srcs=srcs, arc_tgts=tgts)
    node_set = set(nodes)
    if (
        len(node_set) != len(nodes)
        or len(set(ids)) != len(ids)
        or not node_set.issuperset(srcs)
        or not node_set.issuperset(tgts)
    ):
        _raise_first_fault(nodes, ids, srcs, tgts)


def _raise_first_fault(
    nodes: tuple[str, ...], ids: tuple[str, ...], srcs: tuple[str, ...], tgts: tuple[str, ...]
) -> None:
    """Raise for the first duplicate node, then the first arc, in input order,
    that reuses an id or names an unknown endpoint."""
    node_set: set[str] = set()
    for n in nodes:
        if n in node_set:
            raise DuplicateIdError(f"duplicate node id {n!r}")
        node_set.add(n)
    arc_ids: set[str] = set()
    for aid, src, tgt in zip(ids, srcs, tgts):
        if aid in arc_ids:
            raise DuplicateIdError(f"duplicate arc id {aid!r}")
        arc_ids.add(aid)
        if src not in node_set:
            raise DanglingEndpointError(f"arc {aid!r} has unknown source {src!r}")
        if tgt not in node_set:
            raise DanglingEndpointError(f"arc {aid!r} has unknown target {tgt!r}")


def _ids_by_node(
    nodes: tuple[str, ...], ends: tuple[str, ...], ids: tuple[str, ...]
) -> dict[str, tuple[str, ...]]:
    """The ids of the arcs at each node, in arc order, keyed by ends[k]."""
    buckets: dict[str, list[str]] = {n: [] for n in nodes}
    for end, aid in zip(ends, ids):
        buckets[end].append(aid)
    return {n: tuple(v) for n, v in buckets.items()}


def graph_from_columns(
    nodes: Iterable[str],
    arc_ids: Iterable[str],
    arc_srcs: Iterable[str],
    arc_tgts: Iterable[str],
) -> DirectedGraph:
    """The graph whose arc k is (arc_ids[k], arc_srcs[k], arc_tgts[k]).

    Validated exactly as ``DirectedGraph(nodes, arcs)``, with no ``Arc`` made.
    """
    ids, srcs, tgts = tuple(arc_ids), tuple(arc_srcs), tuple(arc_tgts)
    if not len(ids) == len(srcs) == len(tgts):
        raise ValidationError(
            f"arc columns differ in length ({len(ids)} ids, {len(srcs)} sources, "
            f"{len(tgts)} targets)"
        )
    g = DirectedGraph.__new__(DirectedGraph)
    _fill(g, tuple(nodes), ids, srcs, tgts)
    return g


def select_arcs(
    g: DirectedGraph, keep: Iterable[object]
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The id, source and target columns of the arcs whose keep flag is true."""
    keep = list(keep)
    return (
        tuple(compress(g.arc_ids, keep)),
        tuple(compress(g.arc_srcs, keep)),
        tuple(compress(g.arc_tgts, keep)),
    )


def build_graph(
    nodes: Iterable[str], arcs: Iterable[tuple[str, str, str] | Arc]
) -> DirectedGraph:
    """Build and validate a graph from node ids and (arc id, src, tgt) triples."""
    return DirectedGraph(nodes, arcs)


def degrees(g: DirectedGraph, node: str) -> tuple[int, int]:
    """Return (in_degree, out_degree); a self-loop adds 1 to each."""
    return len(g.in_arc_ids(node)), len(g.out_arc_ids(node))


def standard_cycle(n: int) -> DirectedGraph:
    """The directed cycle with n nodes and n arcs.

    n = 0 gives the one-node arcless dot graph, n = 1 a single self-loop.
    """
    if n < 0:
        raise ValidationError("cycle length must be >= 0")
    if n == 0:
        return DirectedGraph(("x0",), ())
    nodes = tuple(f"x{i}" for i in range(n))
    ids = tuple(f"a{i}" for i in range(n))
    return graph_from_columns(nodes, ids, nodes, nodes[1:] + nodes[:1])


def standard_path(n: int) -> DirectedGraph:
    """The directed path with n nodes and n - 1 arcs x0 -> x1 -> ... -> x(n-1)."""
    if n < 1:
        raise ValidationError("path must have at least one node")
    nodes = tuple(f"x{i}" for i in range(n))
    ids = tuple(f"a{i}" for i in range(n - 1))
    return graph_from_columns(nodes, ids, nodes[:-1], nodes[1:])


def induced_subgraph(g: DirectedGraph, node_subset: Iterable[str]) -> DirectedGraph:
    """Subgraph on the given nodes with every arc whose endpoints both remain."""
    keep = set(node_subset)
    for n in keep:
        if not g.has_node(n):
            raise UnknownNodeError(f"unknown node {n!r}")
    kept = keep.__contains__
    nodes = tuple(filter(kept, g.nodes))
    return graph_from_columns(
        nodes, *select_arcs(g, map(and_, map(kept, g.arc_srcs), map(kept, g.arc_tgts)))
    )


def _chain_positions(g: DirectedGraph, arc_ids: tuple[str, ...]) -> list[int]:
    """The positions of the arcs named by arc_ids, each starting where the
    one before it ends."""
    try:
        ks = list(map(g.arc_index.__getitem__, arc_ids))
    except KeyError as exc:
        raise UnknownArcError(f"unknown arc {exc.args[0]!r}") from None
    ids, srcs, tgts = g.arc_ids, g.arc_srcs, g.arc_tgts
    for p, q in zip(ks, ks[1:]):
        if tgts[p] != srcs[q]:
            raise ValidationError(
                f"arcs {ids[p]!r} and {ids[q]!r} do not chain ({tgts[p]!r} != {srcs[q]!r})"
            )
    return ks


class Walk:
    """Open walk: consecutive arcs; nodes may repeat.

    The empty walk needs an explicit start node; otherwise the start is the
    source of the first arc (passing both must agree).
    """

    graph: DirectedGraph
    arcs: tuple[str, ...]
    start: str

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self, graph: DirectedGraph, arcs: Iterable[str] = (), start: str | None = None
    ) -> None:
        arcs = tuple(arcs)
        ks = _chain_positions(graph, arcs)
        if ks:
            derived = graph.arc_srcs[ks[0]]
            if start is not None and start != derived:
                raise ValidationError(
                    f"start {start!r} does not match first arc source {derived!r}"
                )
            start = derived
        elif start is None or not graph.has_node(start):
            raise ValidationError("empty walk needs an existing start node")
        vars(self).update(graph=graph, arcs=arcs, start=start)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(graph={self.graph!r}, arcs={self.arcs!r}, "
            f"start={self.start!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph, self.arcs, self.start) == (other.graph, other.arcs, other.start)

    def __hash__(self) -> int:
        return hash((self.graph, self.arcs, self.start))

    @property
    def length(self) -> int:
        return len(self.arcs)

    @property
    def end(self) -> str:
        if not self.arcs:
            return self.start  # type: ignore[return-value]
        g = self.graph
        return g.arc_tgts[g.arc_index[self.arcs[-1]]]

    @cached_property
    def visits(self) -> tuple[str, ...]:
        """All visited nodes in order, length len(arcs) + 1."""
        g = self.graph
        ends = map(g.arc_tgts.__getitem__, map(g.arc_index.__getitem__, self.arcs))
        return (self.start, *ends)  # type: ignore[return-value]

    def is_simple(self) -> bool:
        """True when no node repeats (hence no arc repeats either)."""
        return len(set(self.visits)) == len(self.visits)


class ClosedWalk:
    """Based closed walk: consecutive arcs returning to the start node.

    A closed walk of length n is exactly a morphism from the standard n-cycle
    into the graph, so rotations of the same arc sequence are distinct values.
    The empty walk needs an explicit base node; otherwise the base is the
    source of the first arc.
    """

    graph: DirectedGraph
    arcs: tuple[str, ...]
    base: str

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self, graph: DirectedGraph, arcs: Iterable[str] = (), base: str | None = None
    ) -> None:
        arcs = tuple(arcs)
        ks = _chain_positions(graph, arcs)
        if ks:
            derived, last = graph.arc_srcs[ks[0]], graph.arc_tgts[ks[-1]]
            if last != derived:
                raise ValidationError(
                    f"walk does not close: last target {last!r}, first source {derived!r}"
                )
            if base is not None and base != derived:
                raise ValidationError(
                    f"base {base!r} does not match first arc source {derived!r}"
                )
            base = derived
        elif base is None or not graph.has_node(base):
            raise ValidationError("empty closed walk needs an existing base node")
        vars(self).update(graph=graph, arcs=arcs, base=base)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(graph={self.graph!r}, arcs={self.arcs!r}, "
            f"base={self.base!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph, self.arcs, self.base) == (other.graph, other.arcs, other.base)

    def __hash__(self) -> int:
        return hash((self.graph, self.arcs, self.base))

    @property
    def length(self) -> int:
        return len(self.arcs)

    @cached_property
    def visits(self) -> tuple[str, ...]:
        """Node at each position 0..n-1 (just the base for length 0)."""
        if not self.arcs:
            return (self.base,)  # type: ignore[return-value]
        g = self.graph
        return tuple(map(g.arc_srcs.__getitem__, map(g.arc_index.__getitem__, self.arcs)))

    def rotated(self, k: int) -> "ClosedWalk":
        """The same cyclic walk re-based at position k."""
        if not self.arcs:
            return self
        k %= len(self.arcs)
        return ClosedWalk(self.graph, self.arcs[k:] + self.arcs[:k])

    def rotate_to(self, node: str) -> "ClosedWalk":
        """Re-base at the first visit of *node*."""
        if node not in self.visits:
            raise UnknownNodeError(f"walk does not visit {node!r}")
        if not self.arcs:
            return self
        return self.rotated(self.visits.index(node))

    def as_morphism(self) -> "GraphMorphism":
        """The morphism from the standard cycle of this length into the graph."""
        cyc = standard_cycle(self.length)
        if self.length == 0:
            return GraphMorphism(cyc, self.graph, {"x0": self.base}, {})
        node_map = {f"x{i}": v for i, v in enumerate(self.visits)}
        arc_map = {f"a{i}": a for i, a in enumerate(self.arcs)}
        return GraphMorphism(cyc, self.graph, node_map, arc_map)


class _GraphMorphismFields(NamedTuple):
    domain: DirectedGraph
    codomain: DirectedGraph
    node_map: dict[str, str]
    arc_map: dict[str, str]


class GraphMorphism(_GraphMorphismFields):
    """Node map plus arc map commuting with source and target.

    The morphism keeps its own copies of the two maps.
    """

    __slots__ = ()

    def __new__(
        cls,
        domain: DirectedGraph,
        codomain: DirectedGraph,
        node_map: Mapping[str, str],
        arc_map: Mapping[str, str],
    ) -> GraphMorphism:
        return tuple.__new__(cls, (domain, codomain, dict(node_map), dict(arc_map)))

    def violations(self) -> list[str]:
        """All ways this fails to be a morphism (empty list when valid): the
        nodes in domain order, then the arcs in domain order."""
        out: list[str] = []
        nm, am = self.node_map, self.arc_map
        dom, cod = self.domain, self.codomain
        node_index, arc_index = cod.node_index, cod.arc_index
        cod_srcs, cod_tgts = cod.arc_srcs, cod.arc_tgts
        for n in dom.nodes:
            img = nm.get(n)
            if img is None:
                out.append(f"node {n!r} is not mapped")
            elif img not in node_index:
                out.append(f"node {n!r} maps to unknown node {img!r}")
        for aid, src, tgt in zip(dom.arc_ids, dom.arc_srcs, dom.arc_tgts):
            img = am.get(aid)
            k = arc_index.get(img)
            if k is None or cod_srcs[k] != nm.get(src) or cod_tgts[k] != nm.get(tgt):
                ends = None if k is None else (cod_srcs[k], cod_tgts[k])
                out.extend(_arc_faults(aid, src, tgt, img, ends, nm))
        return out

    def is_valid(self) -> bool:
        return not self.violations()

    def validate(self) -> None:
        bad = self.violations()
        if bad:
            raise InvalidMorphismError("; ".join(bad))

    @classmethod
    def identity(cls, g: DirectedGraph) -> "GraphMorphism":
        return cls(g, g, dict(zip(g.nodes, g.nodes)), dict(zip(g.arc_ids, g.arc_ids)))

    def compose(self, inner: "GraphMorphism") -> "GraphMorphism":
        """self after inner (inner runs first)."""
        if inner.codomain != self.domain:
            raise InvalidMorphismError("composition mismatch: inner codomain != outer domain")
        return GraphMorphism(
            inner.domain,
            self.codomain,
            {n: self.node_map[v] for n, v in inner.node_map.items()},
            {a: self.arc_map[b] for a, b in inner.arc_map.items()},
        )


def _arc_faults(
    aid: str,
    src: str,
    tgt: str,
    img: str | None,
    ends: tuple[str, str] | None,
    nm: Mapping[str, str],
) -> list[str]:
    """The violations of one arc that fails the morphism check; ends are the
    source and target of its image arc, None when that arc is unknown."""
    if img is None:
        return [f"arc {aid!r} is not mapped"]
    if ends is None:
        return [f"arc {aid!r} maps to unknown arc {img!r}"]
    img_src, img_tgt = ends
    out = []
    if nm.get(src) != img_src:
        out.append(
            f"arc {aid!r}: source {src!r} maps to {nm.get(src)!r} "
            f"but image arc {img!r} starts at {img_src!r}"
        )
    if nm.get(tgt) != img_tgt:
        out.append(
            f"arc {aid!r}: target {tgt!r} maps to {nm.get(tgt)!r} "
            f"but image arc {img!r} ends at {img_tgt!r}"
        )
    return out


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def trace_of_power(g: DirectedGraph, n: int) -> int:
    """Number of based closed walks of length n: the trace of the n-th power
    of the arc-count matrix, by binary powering over exact Python ints."""
    if n < 0:
        raise ValidationError("matrix power must be >= 0")
    idx = g.node_index
    size = len(g.nodes)
    base = [[0] * size for _ in range(size)]
    for src, tgt in zip(g.arc_srcs, g.arc_tgts):
        base[idx[src]][idx[tgt]] += 1
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    while n:
        if n & 1:
            result = _matmul(result, base)
        n >>= 1
        if n:
            base = _matmul(base, base)
    return sum(result[i][i] for i in range(size))
