"""Directed multigraph toolkit.

Strongly-connected-component structure, walk-counting equivalence of graph
morphisms, Eulerian circuits and their cycle-attachment decompositions,
integer cycle-space homology, minimal covering walks (directed postman), and
damped random-walk scoring, behind one ``hog`` command-line tool.

``import hog`` loads no submodule.  Each name in ``__all__`` is looked up in
its defining submodule on first access (PEP 562), so ``from hog import
build_graph`` loads ``hog.core`` and nothing else, and a ``hog`` subcommand
loads only the modules it runs.  ``hog.pagerank`` is always the submodule;
the function is ``hog.pagerank.pagerank``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Arc",
        "ClosedWalk",
        "DirectedGraph",
        "GraphMorphism",
        "Walk",
        "build_graph",
        "degrees",
        "induced_subgraph",
        "standard_cycle",
        "standard_path",
        "trace_of_power",
    ),
    "errors": ("DomainError", "HogError", "InputError"),
    "euler": (
        "AttachmentDecomposition",
        "EulerReport",
        "euler_check",
        "euler_cycle",
        "euler_decompose",
    ),
    "homology": (
        "ArcChain",
        "CycleDecomposition",
        "HomologySummary",
        "NodeChain",
        "boundary_0",
        "boundary_1",
        "decompose_positive_chain",
        "euler_via_homology",
        "fundamental_chain",
        "homology_summary",
        "minimal_covering_walk",
    ),
    "homotopy": (
        "HomSet",
        "WeakEquivalenceVerdict",
        "attach_cycle",
        "brute_force_weq_check",
        "cofibrant_replacement",
        "enumerate_hom_cycles",
        "glue_nodes",
        "glue_paths",
        "is_weak_equivalence",
        "is_weak_equivalence_cycles_only",
    ),
    "pagerank": ("connectivity_report",),
    "reflexive": (
        "ReflexiveGraph",
        "ReflexiveMorphism",
        "add_degeneracies",
        "enumerate_nondegenerate_cycles",
        "forget_reflexive",
        "is_degenerate_cycle",
        "is_weak_equivalence_reflexive",
        "lift_morphism",
        "strip_degeneracies",
    ),
    "scc": (
        "SccDecomposition",
        "is_acyclic",
        "is_connected",
        "is_strongly_connected",
        "scc_decompose",
        "weak_components",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
        return value
    if name in _EXPORTS:
        # A submodule not imported yet; importing binds it on the package.
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
