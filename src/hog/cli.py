"""Single ``hog`` executable exposing every analysis.

Each subcommand maps to one library operation.  Exit codes: 0 analysis ran
(whatever its verdict), 1 domain error (the input lacks a required property,
e.g. not Eulerian when a construction was requested), 2 malformed input
(parse failures, input that is not UTF-8, duplicate/dangling/unknown
references); a reader that closes the output pipe early ends the run quietly
with exit code 1.  ``--json`` switches to machine-readable output with stable
key order; identical inputs always produce byte-identical output.  The
environment variable HOG_HOM_CAP overrides the walk-enumeration cap (default
10^6).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import euler as euler_mod
from . import homology as homology_mod
from . import homotopy, io
from . import reflexive as reflexive_mod
from .core import Walk
from .errors import DomainError, HogError, InputError, ParseError, ValidationError
from .pagerank import connectivity_report, pagerank
from .scc import scc_decompose


def _hom_cap() -> int:
    raw = os.environ.get("HOG_HOM_CAP")
    if raw is None:
        return homotopy.DEFAULT_HOM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"HOG_HOM_CAP must be an integer, got {raw!r}") from None


def _emit(args: argparse.Namespace, payload: dict[str, Any], lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _walk_lines(label: str, arcs: tuple[str, ...], base: str) -> list[str]:
    seq = " ".join(arcs) if arcs else "(empty)"
    return [f"{label}: {seq} (base {base})"]


def _cmd_scc(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    dec = scc_decompose(g)
    payload = {
        "components": [list(c) for c in dec.components],
        "condensation": io.graph_to_dict(dec.condensation),
    }
    lines = [
        f"component {i}: " + " ".join(c) for i, c in enumerate(dec.components)
    ]
    lines.append("condensation:")
    cond = dec.condensation
    lines.extend(f"{src} {tgt}" for src, tgt in zip(cond.arc_srcs, cond.arc_tgts))
    _emit(args, payload, lines)
    return 0


def _verdict_output(
    verdict: homotopy.WeakEquivalenceVerdict, mode: str | None = None
) -> tuple[dict[str, Any], list[str]]:
    """Payload and text lines of a weak-equivalence verdict; mode, when
    given, is the payload's second key."""
    payload: dict[str, Any] = {"weak_equivalence": verdict.is_weak_equivalence}
    if mode is not None:
        payload["mode"] = mode
    matching = verdict.component_matching
    payload["component_matching"] = None if matching is None else [list(p) for p in matching]
    payload["witness"] = verdict.witness
    lines = [f"weak_equivalence: {str(verdict.is_weak_equivalence).lower()}"]
    lines.extend(f"component {i} -> {j}" for i, j in matching or ())
    if verdict.witness:
        lines.append(f"witness: {verdict.witness}")
    return payload, lines


def _cmd_weq(args: argparse.Namespace) -> int:
    dom = io.load_graph(args.domain, "auto")
    cod = io.load_graph(args.codomain, "auto")
    f = io.load_morphism(args.morphism, dom, cod)
    if args.cycles_only:
        verdict = homotopy.is_weak_equivalence_cycles_only(f)
    else:
        verdict = homotopy.is_weak_equivalence(f)
    payload, lines = _verdict_output(
        verdict, "cycles-only" if args.cycles_only else "cycles-and-nodes"
    )
    if args.oracle is not None:
        reports = homotopy.brute_force_weq_check(
            f, args.oracle, include_zero=not args.cycles_only, cap=_hom_cap()
        )
        payload["oracle"] = [
            {
                "n": r.n,
                "domain_count": r.domain_count,
                "codomain_count": r.codomain_count,
                "bijective": r.bijective,
            }
            for r in reports
        ]
        lines.extend(
            f"oracle n={r.n}: {r.domain_count} vs {r.codomain_count} "
            f"{'bijective' if r.bijective else 'NOT bijective'}"
            for r in reports
        )
    _emit(args, payload, lines)
    return 0


def _cmd_cofibrant(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    core, embedding = homotopy.cofibrant_replacement(g)
    payload = {
        "graph": io.graph_to_dict(core),
        "morphism": io.morphism_to_dict(embedding),
    }
    lines = [
        f"nodes: {len(core.nodes)}",
        f"arcs kept: {len(core.arc_ids)} of {len(g.arc_ids)}",
        "kept: " + " ".join(core.arc_ids),
    ]
    _emit(args, payload, lines)
    return 0


def _surgery_payload(result, morphism) -> dict[str, Any]:
    return {"graph": io.graph_to_dict(result), "morphism": io.morphism_to_dict(morphism)}


def _cmd_glue_nodes(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    result, morphism = homotopy.glue_nodes(g, args.x, args.y)
    _emit(
        args,
        _surgery_payload(result, morphism),
        [
            f"merged {args.x} and {args.y} into {morphism.node_map[args.x]}",
            f"nodes: {len(result.nodes)}  arcs: {len(result.arc_ids)}",
        ],
    )
    return 0


def _cmd_attach_cycle(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    result, morphism = homotopy.attach_cycle(g, args.node, args.length)
    _emit(
        args,
        _surgery_payload(result, morphism),
        [
            f"attached a cycle of length {args.length} at {args.node}",
            f"nodes: {len(result.nodes)}  arcs: {len(result.arc_ids)}",
        ],
    )
    return 0


def _cmd_glue_paths(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    p1 = Walk(g, tuple(args.path1.split(",")))
    p2 = Walk(g, tuple(args.path2.split(",")))
    result, morphism = homotopy.glue_paths(g, p1, p2)
    _emit(
        args,
        _surgery_payload(result, morphism),
        [
            f"glued paths {args.path1} and {args.path2}",
            f"nodes: {len(result.nodes)}  arcs: {len(result.arc_ids)}",
        ],
    )
    return 0


def _cmd_euler(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    report = euler_mod.euler_check(g, ignore_isolated=args.ignore_isolated)
    payload: dict[str, Any] = {
        "eulerian": report.is_eulerian,
        "connected": report.connected,
        "balance_violations": [list(v) for v in report.balance_violations],
    }
    lines = [
        f"eulerian: {str(report.is_eulerian).lower()}",
        f"connected: {str(report.connected).lower()}",
    ]
    lines.extend(
        f"unbalanced: {v} in={i} out={o}" for v, i, o in report.balance_violations
    )
    if args.construct:
        cycle = euler_mod.euler_cycle(g, ignore_isolated=args.ignore_isolated)
        payload["cycle"] = {"base": cycle.base, "arcs": list(cycle.arcs)}
        lines.extend(_walk_lines("cycle", cycle.arcs, cycle.base))
    if args.decompose:
        dec = euler_mod.euler_decompose(g, ignore_isolated=args.ignore_isolated)
        payload["decomposition"] = {
            "base_length": dec.base_length,
            "steps": [
                {"op": "glue", "first": s.first, "second": s.second}
                if isinstance(s, euler_mod.GlueStep)
                else {"op": "attach", "node": s.node, "length": s.length}
                for s in dec.steps
            ],
            "node_correspondence": dict(dec.node_correspondence),
        }
        lines.append(f"base cycle length: {dec.base_length}")
        for s in dec.steps:
            if isinstance(s, euler_mod.GlueStep):
                lines.append(f"glue {s.first} {s.second}")
            else:
                lines.append(f"attach cycle of length {s.length} at {s.node}")
    _emit(args, payload, lines)
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    summary = homology_mod.homology_summary(g)
    payload: dict[str, Any] = {
        "h0_rank": summary.h0_rank,
        "h1_rank": summary.h1_rank,
        "component_count": summary.component_count,
        "h1_basis": [io.chain_to_dict(c) for c in summary.h1_basis],
    }
    lines = [
        f"h0_rank: {summary.h0_rank}",
        f"h1_rank: {summary.h1_rank}",
        f"components: {summary.component_count}",
    ]
    for i, chain in enumerate(summary.h1_basis):
        entries = " ".join(f"{a}:{c}" for a, c in chain.coefficients.items())
        lines.append(f"basis {i}: {entries}")
    if args.max_coeff is not None:
        vectors = homology_mod.positive_kernel_vectors(g, args.max_coeff, cap=_hom_cap())
        payload["positive_kernel_vectors"] = [io.chain_to_dict(c) for c in vectors]
        for i, chain in enumerate(vectors):
            entries = " ".join(f"{a}:{c}" for a, c in chain.coefficients.items())
            lines.append(f"positive {i}: {entries}")
    _emit(args, payload, lines)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    chain = io.load_chain(args.chain, g)
    dec = homology_mod.decompose_positive_chain(chain)
    payload = {
        "cycles": [
            {"base": w.base, "arcs": list(w.arcs), "multiplicity": m}
            for w, m in zip(dec.cycles, dec.multiplicities)
        ]
    }
    lines = [
        f"cycle {i} (x{m}): " + " ".join(w.arcs) + f" (base {w.base})"
        for i, (w, m) in enumerate(zip(dec.cycles, dec.multiplicities))
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_postman(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    walk, minimal = homology_mod.minimal_covering_walk(g)
    payload = {
        "minimal_length": minimal,
        "walk": {"base": walk.base, "arcs": list(walk.arcs)},
    }
    lines = [f"minimal_length: {minimal}"]
    lines.extend(_walk_lines("walk", walk.arcs, walk.base))
    _emit(args, payload, lines)
    return 0


def _cmd_pagerank(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    rank = pagerank(g, args.damping, args.tol, args.max_iter)
    payload: dict[str, Any] = {
        "scores": rank.scores,
        "iterations": rank.iterations,
        "residual": rank.residual,
    }
    lines = [f"{node} {score:.12f}" for node, score in rank.scores.items()]
    lines.append(f"iterations: {rank.iterations}")
    lines.append(f"residual: {rank.residual:.3e}")
    if args.report:
        rep = connectivity_report(g)
        payload["report"] = {
            "component_count": rep.component_count,
            "largest_component_size": rep.largest_component_size,
            "largest_component_fraction": rep.largest_component_fraction,
            "irreducible": rep.irreducible,
        }
        lines.append(
            f"components: {rep.component_count}, largest {rep.largest_component_size} "
            f"({rep.largest_component_fraction:.3f}), "
            f"irreducible: {str(rep.irreducible).lower()}"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_hom_count(args: argparse.Namespace) -> int:
    from .core import trace_of_power

    g = io.load_graph(args.graph, args.format)
    if args.n < 0:
        raise ValidationError("walk length must be >= 0")
    counts = []
    for n in range(args.n + 1):
        if args.enumerate:
            counts.append(len(homotopy.enumerate_hom_cycles(g, n, cap=_hom_cap())))
        else:
            counts.append(trace_of_power(g, n))
    payload = {
        "method": "enumeration" if args.enumerate else "trace",
        "counts": [{"n": n, "count": c} for n, c in enumerate(counts)],
    }
    lines = [f"{n} {c}" for n, c in enumerate(counts)]
    _emit(args, payload, lines)
    return 0


def _cmd_reflexive_add(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph, args.format)
    rg = reflexive_mod.add_degeneracies(g)
    _emit(
        args,
        {"graph": io.reflexive_to_dict(rg)},
        [f"nodes: {len(rg.nodes)}  arcs: {len(rg.arcs)} "
         f"({len(rg.degeneracy)} degenerate)"],
    )
    return 0


def _cmd_reflexive_strip(args: argparse.Namespace) -> int:
    rg = io.load_reflexive(args.graph)
    g = reflexive_mod.strip_degeneracies(rg)
    _emit(
        args,
        {"graph": io.graph_to_dict(g)},
        [f"nodes: {len(g.nodes)}  arcs: {len(g.arc_ids)}"],
    )
    return 0


def _cmd_reflexive_weq(args: argparse.Namespace) -> int:
    dom = io.load_reflexive(args.domain)
    cod = io.load_reflexive(args.codomain)
    f = io.load_morphism(args.morphism, dom, cod)
    _emit(args, *_verdict_output(reflexive_mod.is_weak_equivalence_reflexive(f)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hog", description="directed multigraph analysis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.set_defaults(handler=handler)
        return p

    def graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="graph file (JSON or edge list), '-' for stdin")
        p.add_argument(
            "--format", choices=("auto", "json", "edgelist"), default="auto"
        )

    p = add(sub, "scc", _cmd_scc, help="strongly connected components and condensation")
    graph_arg(p)

    p = add(sub, "weq", _cmd_weq, help="decide whether a morphism is a weak equivalence")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("morphism")
    p.add_argument("--cycles-only", action="store_true",
                   help="ignore node counts (positive lengths only)")
    p.add_argument("--oracle", type=int, default=None, metavar="N",
                   help="also check hom-map bijectivity for lengths up to N")

    p = add(sub, "cofibrant", _cmd_cofibrant,
            help="all nodes, only arcs inside strongly connected components")
    graph_arg(p)

    p = add(sub, "glue-nodes", _cmd_glue_nodes, help="identify two nodes")
    graph_arg(p)
    p.add_argument("x")
    p.add_argument("y")

    p = add(sub, "attach-cycle", _cmd_attach_cycle, help="attach a fresh cycle at a node")
    graph_arg(p)
    p.add_argument("node")
    p.add_argument("length", type=int)

    p = add(sub, "glue-paths", _cmd_glue_paths,
            help="identify two parallel simple paths (comma-separated arc ids)")
    graph_arg(p)
    p.add_argument("path1")
    p.add_argument("path2")

    p = add(sub, "euler", _cmd_euler, help="Eulerian check, construction, decomposition")
    graph_arg(p)
    p.add_argument("--construct", action="store_true")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--ignore-isolated", action="store_true",
                   help="drop arcless nodes before checking connectivity")

    p = add(sub, "homology", _cmd_homology, help="ranks and cycle-space basis")
    graph_arg(p)
    p.add_argument("--max-coeff", type=int, default=None, metavar="K",
                   help="also list boundaryless vectors with coefficients <= K")

    p = add(sub, "decompose", _cmd_decompose,
            help="write a positive boundaryless chain as closed walks")
    graph_arg(p)
    p.add_argument("chain", help="chain JSON file")

    p = add(sub, "postman", _cmd_postman, help="minimal covering closed walk")
    graph_arg(p)

    p = add(sub, "pagerank", _cmd_pagerank, help="damped random-walk scores")
    graph_arg(p)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--report", action="store_true",
                   help="include the component census")

    p = add(sub, "hom-count", _cmd_hom_count, help="closed-walk counts for lengths 0..N")
    graph_arg(p)
    p.add_argument("n", type=int)
    p.add_argument("--enumerate", action="store_true",
                   help="count by explicit enumeration instead of matrix powers")

    refl = sub.add_parser("reflexive", help="reflexive graph operations")
    rsub = refl.add_subparsers(dest="subcommand", required=True)

    p = add(rsub, "add", _cmd_reflexive_add, help="freely add degenerate loops")
    graph_arg(p)

    p = add(rsub, "strip", _cmd_reflexive_strip, help="drop the degenerate loops")
    p.add_argument("graph", help="reflexive graph JSON, '-' for stdin")

    p = add(rsub, "weq", _cmd_reflexive_weq, help="reflexive weak-equivalence verdict")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("morphism")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early, as `| head` does: drop the rest
        # of the output, so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HogError as exc:  # fallback, should not happen
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
