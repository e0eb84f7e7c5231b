"""Directed multigraph toolkit.

Strongly-connected-component structure, walk-counting equivalence of graph
morphisms, Eulerian circuits and their cycle-attachment decompositions,
integer cycle-space homology, minimal covering walks (directed postman), and
damped random-walk scoring, behind one ``hog`` command-line tool.
"""

from .core import (
    AdjacencyMatrix,
    Arc,
    ClosedWalk,
    DirectedGraph,
    GraphMorphism,
    Walk,
    adjacency_matrix,
    build_graph,
    degrees,
    induced_subgraph,
    standard_cycle,
    standard_path,
    trace_of_power,
)
from .errors import DomainError, HogError, InputError
from .euler import (
    AttachmentDecomposition,
    EulerReport,
    covering_cycle,
    euler_check,
    euler_cycle,
    euler_decompose,
)
from .homology import (
    ArcChain,
    CycleDecomposition,
    HomologySummary,
    NodeChain,
    boundary_0,
    boundary_1,
    decompose_positive_chain,
    euler_via_homology,
    fundamental_chain,
    homology_summary,
    minimal_covering_walk,
)
from .homotopy import (
    HomSet,
    WeakEquivalenceVerdict,
    attach_cycle,
    brute_force_weq_check,
    cofibrant_replacement,
    enumerate_hom_cycles,
    glue_nodes,
    glue_paths,
    is_weak_equivalence,
    is_weak_equivalence_cycles_only,
)
from .pagerank import connectivity_report, markov_from_graph, pagerank
from .reflexive import (
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
from .scc import (
    SccDecomposition,
    is_acyclic,
    is_connected,
    is_strongly_connected,
    scc_decompose,
    weak_components,
)

__version__ = "0.1.0"
