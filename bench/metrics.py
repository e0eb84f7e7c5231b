"""Metric definitions shared by the runner, the tests and BENCHMARK.json.

Every per-layer metric names the end-to-end metric it should move and the
workload on which it should move it; "nothing" marks an invariant or a floor.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = ("weq-stream", "web-rank", "cycle-space", "cli-mix")

# The modules of src/hog that do work inside an op; enumeration only makes
# inputs and errors only defines exception types.
LAYERS = ("io", "core", "scc", "homotopy", "reflexive", "euler", "homology", "pagerank", "cli")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("op_tail_ms", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
)

# Where each layer spends most of its time, which is where its generic
# calls/self/share metrics should move the op latency.
_LAYER_HOME = {
    "io": ("op_p50_ms", "web-rank"),
    "core": ("op_p50_ms", "web-rank"),
    "scc": ("op_p50_ms", "web-rank"),
    "homotopy": ("ops_per_s", "weq-stream"),
    "reflexive": ("ops_per_s", "weq-stream"),
    "euler": ("op_p50_ms", "cycle-space"),
    "homology": ("op_p50_ms", "cycle-space"),
    "pagerank": ("op_p50_ms", "web-rank"),
    "cli": ("op_p50_ms", "cli-mix"),
}


def _generic() -> tuple[PerLayer, ...]:
    out = []
    for layer in LAYERS:
        moves, on = _LAYER_HOME[layer]
        out.append(PerLayer(f"{layer}.calls", "calls/op", "lower", moves, on))
        out.append(PerLayer(f"{layer}.self_s", "s/op", "lower", moves, on))
        out.append(PerLayer(f"{layer}.share", "ratio", "lower", moves, on))
    return tuple(out)


PER_LAYER = _generic() + (
    PerLayer("core.morphism_us", "us", "lower", "ops_per_s", "weq-stream"),
    PerLayer("scc.hit_us", "us", "lower", "ops_per_s", "weq-stream"),
    PerLayer("scc.cache_hit_ratio", "ratio", "higher", "ops_per_s", "weq-stream"),
    PerLayer("scc.cached_graphs", "count", "lower", "peak_rss_mb", "web-rank"),
    PerLayer("homotopy.verdict_us", "us", "lower", "ops_per_s", "weq-stream"),
    PerLayer("reflexive.verdict_us", "us", "lower", "ops_per_s", "weq-stream"),
    PerLayer("homotopy.cofibrant_s", "s", "lower", "op_p50_ms", "web-rank"),
    PerLayer("homotopy.surgery_calls", "count", "lower", "op_p50_ms", "cycle-space"),
    PerLayer("euler.cycle_s", "s", "lower", "op_p50_ms", "cycle-space"),
    PerLayer("euler.decompose_s", "s", "lower", "op_p50_ms", "cycle-space"),
    PerLayer("homology.summary_s", "s", "lower", "op_p50_ms", "cycle-space"),
    PerLayer("homology.postman_s", "s", "lower", "op_p50_ms", "cycle-space"),
    PerLayer("pagerank.peak_alloc_mb", "MB", "lower", "peak_rss_mb", "web-rank"),
    PerLayer("cli.interpreter_ms", "ms", "lower", "nothing", "cli-mix"),
    PerLayer("cli.import_ms", "ms", "lower", "op_p50_ms", "cli-mix"),
    PerLayer("cli.numpy_loaded", "count", "lower", "op_p50_ms", "cli-mix"),
    PerLayer("euler.script_steps", "count", "lower", "nothing", "cycle-space"),
    PerLayer("homology.postman_extra_arcs", "count", "lower", "nothing", "cycle-space"),
    PerLayer("pagerank.iterations", "count", "lower", "nothing", "web-rank"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "nothing", "all"),
)

# Counts that must repeat exactly for a given seed.
EXACT = (
    "homotopy.surgery_calls",
    "euler.script_steps",
    "homology.postman_extra_arcs",
    "pagerank.iterations",
)
