"""Core data model: directed multigraphs, morphisms, walks, adjacency matrices.

A graph is a finite directed multigraph: parallel arcs and self-loops are
allowed, and every arc carries its own identity (adjacency counts alone would
lose the arc-level data that morphisms need).  Node and arc ids are opaque
strings; iteration order is always insertion order, so identical inputs give
identical outputs.  All types are immutable values, safe to share across
threads; operations that change a graph return a new one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


def arcs_from_columns(ids: Iterable[str], srcs: Iterable[str], tgts: Iterable[str]) -> list[Arc]:
    """The arcs (ids[k], srcs[k], tgts[k]), built without a Python-level call per arc.

    A list, which ``DirectedGraph`` turns into its tuple: a tuple grown from
    an iterator is tracked anew by the cyclic collector at every resize, so
    each young collection the new arcs trigger would walk all of it again.
    """
    return list(map(tuple.__new__, repeat(Arc), zip(ids, srcs, tgts)))


def arc_ends(
    arcs: Sequence[Arc], key: Callable[[str], int]
) -> tuple[Iterator[int], Iterator[int]]:
    """key(src) and key(tgt) of every arc, in arc order, as two lazy columns.

    With a builtin key such as ``dict.__getitem__`` each column runs in C.
    """
    return map(key, map(_arc_src, arcs)), map(key, map(_arc_tgt, arcs))


@dataclass(frozen=True)
class DirectedGraph:
    """Finite directed multigraph with named nodes and arcs."""

    nodes: tuple[str, ...] = ()
    arcs: tuple[Arc, ...] = ()

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        arcs = tuple(self.arcs)
        if not set(map(type, arcs)) <= {Arc}:
            arcs = tuple(a if isinstance(a, Arc) else Arc(*a) for a in arcs)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arcs", arcs)
        node_set = set(nodes)
        if (
            len(node_set) != len(nodes)
            or len(set(map(_arc_id, arcs))) != len(arcs)
            or not node_set.issuperset(map(_arc_src, arcs))
            or not node_set.issuperset(map(_arc_tgt, arcs))
        ):
            _raise_first_fault(nodes, arcs)

    @cached_property
    def _hash(self) -> int:
        return hash((self.nodes, self.arcs))

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
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def arc_by_id(self) -> dict[str, Arc]:
        return {a.id: a for a in self.arcs}

    @cached_property
    def _out(self) -> dict[str, tuple[Arc, ...]]:
        out: dict[str, list[Arc]] = {n: [] for n in self.nodes}
        for a in self.arcs:
            out[a.src].append(a)
        return {n: tuple(v) for n, v in out.items()}

    @cached_property
    def _in(self) -> dict[str, tuple[Arc, ...]]:
        inc: dict[str, list[Arc]] = {n: [] for n in self.nodes}
        for a in self.arcs:
            inc[a.tgt].append(a)
        return {n: tuple(v) for n, v in inc.items()}

    def has_node(self, node: str) -> bool:
        return node in self.node_index

    def has_arc(self, arc_id: str) -> bool:
        return arc_id in self.arc_by_id

    def arc(self, arc_id: str) -> Arc:
        try:
            return self.arc_by_id[arc_id]
        except KeyError:
            raise UnknownArcError(f"unknown arc {arc_id!r}") from None

    def out_arcs(self, node: str) -> tuple[Arc, ...]:
        try:
            return self._out[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def in_arcs(self, node: str) -> tuple[Arc, ...]:
        try:
            return self._in[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None


def _raise_first_fault(nodes: tuple[str, ...], arcs: tuple[Arc, ...]) -> None:
    """Raise for the first duplicate node, then the first arc, in input order,
    that reuses an id or names an unknown endpoint."""
    node_set: set[str] = set()
    for n in nodes:
        if n in node_set:
            raise DuplicateIdError(f"duplicate node id {n!r}")
        node_set.add(n)
    arc_ids: set[str] = set()
    for a in arcs:
        if a.id in arc_ids:
            raise DuplicateIdError(f"duplicate arc id {a.id!r}")
        arc_ids.add(a.id)
        if a.src not in node_set:
            raise DanglingEndpointError(f"arc {a.id!r} has unknown source {a.src!r}")
        if a.tgt not in node_set:
            raise DanglingEndpointError(f"arc {a.id!r} has unknown target {a.tgt!r}")


def build_graph(
    nodes: Iterable[str], arcs: Iterable[tuple[str, str, str] | Arc]
) -> DirectedGraph:
    """Build and validate a graph from node ids and (arc id, src, tgt) triples."""
    return DirectedGraph(tuple(nodes), tuple(arcs))


def degrees(g: DirectedGraph, node: str) -> tuple[int, int]:
    """Return (in_degree, out_degree); a self-loop adds 1 to each."""
    return len(g.in_arcs(node)), len(g.out_arcs(node))


def standard_cycle(n: int) -> DirectedGraph:
    """The directed cycle with n nodes and n arcs.

    n = 0 gives the one-node arcless dot graph, n = 1 a single self-loop.
    """
    if n < 0:
        raise ValidationError("cycle length must be >= 0")
    if n == 0:
        return DirectedGraph(("x0",), ())
    nodes = tuple(f"x{i}" for i in range(n))
    arcs = tuple(Arc(f"a{i}", nodes[i], nodes[(i + 1) % n]) for i in range(n))
    return DirectedGraph(nodes, arcs)


def standard_path(n: int) -> DirectedGraph:
    """The directed path with n nodes and n - 1 arcs x0 -> x1 -> ... -> x(n-1)."""
    if n < 1:
        raise ValidationError("path must have at least one node")
    nodes = tuple(f"x{i}" for i in range(n))
    arcs = tuple(Arc(f"a{i}", nodes[i], nodes[i + 1]) for i in range(n - 1))
    return DirectedGraph(nodes, arcs)


def induced_subgraph(g: DirectedGraph, node_subset: Iterable[str]) -> DirectedGraph:
    """Subgraph on the given nodes with every arc whose endpoints both remain."""
    keep = set(node_subset)
    for n in keep:
        if not g.has_node(n):
            raise UnknownNodeError(f"unknown node {n!r}")
    nodes = tuple(n for n in g.nodes if n in keep)
    arcs = tuple(a for a in g.arcs if a.src in keep and a.tgt in keep)
    return DirectedGraph(nodes, arcs)


def _chained_arcs(g: DirectedGraph, arc_ids: tuple[str, ...]) -> list[Arc]:
    """The arcs named by arc_ids, each starting where the one before it ends."""
    records = [g.arc(a) for a in arc_ids]
    for prev, nxt in zip(records, records[1:]):
        if prev.tgt != nxt.src:
            raise ValidationError(
                f"arcs {prev.id!r} and {nxt.id!r} do not chain ({prev.tgt!r} != {nxt.src!r})"
            )
    return records


@dataclass(frozen=True)
class Walk:
    """Open walk: consecutive arcs; nodes may repeat.

    The empty walk needs an explicit start node; otherwise the start is the
    source of the first arc (passing both must agree).
    """

    graph: DirectedGraph
    arcs: tuple[str, ...] = ()
    start: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        g = self.graph
        records = _chained_arcs(g, self.arcs)
        if records:
            derived = records[0].src
            if self.start is not None and self.start != derived:
                raise ValidationError(
                    f"start {self.start!r} does not match first arc source {derived!r}"
                )
            object.__setattr__(self, "start", derived)
        else:
            if self.start is None or not g.has_node(self.start):
                raise ValidationError("empty walk needs an existing start node")

    @property
    def length(self) -> int:
        return len(self.arcs)

    @property
    def end(self) -> str:
        if not self.arcs:
            return self.start  # type: ignore[return-value]
        return self.graph.arc(self.arcs[-1]).tgt

    @cached_property
    def visits(self) -> tuple[str, ...]:
        """All visited nodes in order, length len(arcs) + 1."""
        if not self.arcs:
            return (self.start,)  # type: ignore[return-value]
        seq = [self.graph.arc(self.arcs[0]).src]
        seq.extend(self.graph.arc(a).tgt for a in self.arcs)
        return tuple(seq)

    def is_simple(self) -> bool:
        """True when no node repeats (hence no arc repeats either)."""
        return len(set(self.visits)) == len(self.visits)


@dataclass(frozen=True)
class ClosedWalk:
    """Based closed walk: consecutive arcs returning to the start node.

    A closed walk of length n is exactly a morphism from the standard n-cycle
    into the graph, so rotations of the same arc sequence are distinct values.
    The empty walk needs an explicit base node; otherwise the base is the
    source of the first arc.
    """

    graph: DirectedGraph
    arcs: tuple[str, ...] = ()
    base: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        g = self.graph
        records = _chained_arcs(g, self.arcs)
        if records:
            if records[-1].tgt != records[0].src:
                raise ValidationError(
                    f"walk does not close: last target {records[-1].tgt!r}, "
                    f"first source {records[0].src!r}"
                )
            derived = records[0].src
            if self.base is not None and self.base != derived:
                raise ValidationError(
                    f"base {self.base!r} does not match first arc source {derived!r}"
                )
            object.__setattr__(self, "base", derived)
        else:
            if self.base is None or not g.has_node(self.base):
                raise ValidationError("empty closed walk needs an existing base node")

    @property
    def length(self) -> int:
        return len(self.arcs)

    @cached_property
    def visits(self) -> tuple[str, ...]:
        """Node at each position 0..n-1 (just the base for length 0)."""
        if not self.arcs:
            return (self.base,)  # type: ignore[return-value]
        return tuple(self.graph.arc(a).src for a in self.arcs)

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


@dataclass(frozen=True)
class GraphMorphism:
    """Node map plus arc map commuting with source and target."""

    domain: DirectedGraph
    codomain: DirectedGraph
    node_map: Mapping[str, str]
    arc_map: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_map", dict(self.node_map))
        object.__setattr__(self, "arc_map", dict(self.arc_map))

    def violations(self) -> list[str]:
        """All ways this fails to be a morphism (empty list when valid): the
        nodes in domain order, then the arcs in domain order."""
        out: list[str] = []
        nm, am = self.node_map, self.arc_map
        node_index, arc_by_id = self.codomain.node_index, self.codomain.arc_by_id
        for n in self.domain.nodes:
            img = nm.get(n)
            if img is None:
                out.append(f"node {n!r} is not mapped")
            elif img not in node_index:
                out.append(f"node {n!r} maps to unknown node {img!r}")
        for aid, src, tgt in self.domain.arcs:
            img = am.get(aid)
            rec = arc_by_id.get(img)
            if rec is None or rec.src != nm.get(src) or rec.tgt != nm.get(tgt):
                out.extend(_arc_faults(aid, src, tgt, img, rec, nm))
        return out

    def is_valid(self) -> bool:
        return not self.violations()

    def validate(self) -> None:
        bad = self.violations()
        if bad:
            raise InvalidMorphismError("; ".join(bad))

    @classmethod
    def identity(cls, g: DirectedGraph) -> "GraphMorphism":
        return cls(g, g, {n: n for n in g.nodes}, {a.id: a.id for a in g.arcs})

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

    def map_closed_walk(self, walk: ClosedWalk) -> ClosedWalk:
        return ClosedWalk(
            self.codomain,
            tuple(self.arc_map[a] for a in walk.arcs),
            base=self.node_map[walk.base],
        )

    def map_walk(self, walk: Walk) -> Walk:
        return Walk(
            self.codomain,
            tuple(self.arc_map[a] for a in walk.arcs),
            start=self.node_map[walk.start],
        )


def _arc_faults(
    aid: str, src: str, tgt: str, img: str | None, rec: Arc | None, nm: Mapping[str, str]
) -> list[str]:
    """The violations of one arc that fails the morphism check."""
    if img is None:
        return [f"arc {aid!r} is not mapped"]
    if rec is None:
        return [f"arc {aid!r} maps to unknown arc {img!r}"]
    out = []
    if nm.get(src) != rec.src:
        out.append(
            f"arc {aid!r}: source {src!r} maps to {nm.get(src)!r} "
            f"but image arc {img!r} starts at {rec.src!r}"
        )
    if nm.get(tgt) != rec.tgt:
        out.append(
            f"arc {aid!r}: target {tgt!r} maps to {nm.get(tgt)!r} "
            f"but image arc {img!r} ends at {rec.tgt!r}"
        )
    return out


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Arc-count matrix over Python ints (exact for arbitrary powers)."""

    order: int
    entries: tuple[tuple[int, ...], ...]
    index: dict[str, int]

    def count(self, src: str, tgt: str) -> int:
        try:
            return self.entries[self.index[src]][self.index[tgt]]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node {exc.args[0]!r}") from None

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.order))

    def power(self, n: int) -> "AdjacencyMatrix":
        """Entrywise-exact n-th matrix power; entry (i, j) counts length-n walks."""
        if n < 0:
            raise ValidationError("matrix power must be >= 0")
        size = self.order
        result = [[int(i == j) for j in range(size)] for i in range(size)]
        base = [list(row) for row in self.entries]
        while n:
            if n & 1:
                result = _matmul(result, base)
            n >>= 1
            if n:
                base = _matmul(base, base)
        return AdjacencyMatrix(size, tuple(tuple(row) for row in result), self.index)


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    size = len(a)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def adjacency_matrix(g: DirectedGraph) -> AdjacencyMatrix:
    """Entry (i, j) counts the arcs from node i to node j, with multiplicity."""
    idx = g.node_index
    size = len(g.nodes)
    rows = [[0] * size for _ in range(size)]
    for a in g.arcs:
        rows[idx[a.src]][idx[a.tgt]] += 1
    return AdjacencyMatrix(size, tuple(tuple(r) for r in rows), dict(idx))


def trace_of_power(g: DirectedGraph, n: int) -> int:
    """Number of based closed walks of length n, computed algebraically."""
    return adjacency_matrix(g).power(n).trace()
