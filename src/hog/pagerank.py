"""Damped power-iteration scores of the random walk, and a component census.

The walk's transition matrix is column-normalized (column j holds the
out-probabilities of node j), so the score vector is a right fixed vector of
the damped matrix.  Dangling nodes get uniform columns, the standard fix that
keeps the matrix stochastic.

``pagerank`` never forms that matrix: each step spreads every node's score
over its out-arcs and the dangling mass over all nodes, in O(V + E) time and
memory.  numpy is imported only when it runs.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import DirectedGraph
from .errors import EmptyGraphError, NoConvergenceError, ValidationError
from .scc import scc_decompose


class RankVector(NamedTuple):
    scores: dict[str, float]
    iterations: int
    residual: float


class ConnectivityReport(NamedTuple):
    node_count: int
    component_count: int
    largest_component_size: int
    largest_component_fraction: float
    irreducible: bool


def pagerank(
    g: DirectedGraph,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> RankVector:
    """Power iteration on the damped transition matrix until the L1 step
    shrinks below tol.  Deterministic: fixed start, fixed accumulation order.

    Each step runs on the arc list, so the n x n matrix is never built;
    parallel arcs add mass and dangling nodes spread uniformly.
    """
    if not 0.0 < damping < 1.0:
        raise ValidationError("damping must lie strictly between 0 and 1")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")
    if not g.nodes:
        raise EmptyGraphError("cannot normalize an empty graph")
    import numpy as np

    n, m = len(g.nodes), len(g.arc_ids)
    at = g.node_index.__getitem__
    src, tgt = (
        np.fromiter(map(at, ends), dtype=np.intp, count=m) for ends in (g.arc_srcs, g.arc_tgts)
    )
    outdeg = np.bincount(src, minlength=n)
    dangling = np.flatnonzero(outdeg == 0)
    inv_outdeg = np.zeros(n)
    np.divide(1.0, outdeg, out=inv_outdeg, where=outdeg > 0)
    teleport = (1.0 - damping) / n
    rank = np.full(n, 1.0 / n)
    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        spread = np.bincount(tgt, weights=(rank * inv_outdeg)[src], minlength=n)
        nxt = damping * (spread + rank[dangling].sum() / n) + teleport
        residual = float(np.abs(nxt - rank).sum())
        rank = nxt
        if residual < tol:
            scores = dict(zip(g.nodes, rank.tolist()))
            return RankVector(scores, iteration, residual)
    raise NoConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})"
    )


def connectivity_report(g: DirectedGraph) -> ConnectivityReport:
    """Component census: count, largest strongly connected component, fraction."""
    if not g.nodes:
        return ConnectivityReport(0, 0, 0, 0.0, False)
    decomposition = scc_decompose(g)
    sizes = [len(c) for c in decomposition.components]
    largest = max(sizes)
    return ConnectivityReport(
        node_count=len(g.nodes),
        component_count=len(sizes),
        largest_component_size=largest,
        largest_component_fraction=largest / len(g.nodes),
        irreducible=len(sizes) == 1,
    )
