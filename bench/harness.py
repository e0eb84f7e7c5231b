"""Closed-loop runner: set-up, timed loop, output checks, metrics.

One client in one process sends the next op only after the previous one has
completed.  Inputs for op i are made before the op, off the clock, and the
clock only runs inside ops, so ``--seconds`` is seconds of op time.  Checks
run after the loop.  A traced run spends half its time untraced and half
traced, on fresh inputs of the same shape, which gives the tracing overhead.
"""

from __future__ import annotations

import gc
import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from time import perf_counter

from calibrate import REFERENCE_S, Calibrator
from metrics import END_TO_END, EXACT, LAYERS, PER_LAYER
from tracer import OP_SPAN, Tracer

SETUP_REPEATS = 5
MIN_OPS = 11  # the tail percentile needs ten ops beyond it
TRACED_BASE = 100_000  # traced ops use their own input indices
TRACED_MIN_OPS = 2  # per half of a traced run; the traced run has no tail
TOP_LEVEL = {
    "homotopy.verdict_us": ("homotopy.is_weak_equivalence", "homotopy.is_weak_equivalence_cycles_only"),
    "reflexive.verdict_us": ("reflexive.is_weak_equivalence_reflexive",),
    "homotopy.cofibrant_s": ("homotopy.cofibrant_replacement",),
    "euler.cycle_s": ("euler.euler_cycle",),
    "euler.decompose_s": ("euler.euler_decompose",),
    "homology.summary_s": ("homology.homology_summary",),
    "homology.postman_s": ("homology.minimal_covering_walk",),
}


class Workload:
    """One workload: inputs from the seed, the op, its digest and its check."""

    name = ""
    op_doc = ""
    imports: tuple[str, ...] = ("hog",)

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root
        self.tracer: Tracer | None = None

    def setup(self) -> None:
        """Input generation and warm-up; runs several times, the last one is kept."""

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def digest(self, inp, out):
        """Keep what the check needs, off the clock."""
        return out

    def check(self, rec) -> list[str]:
        raise NotImplementedError

    def exact_counts(self, rec) -> dict[str, float]:
        return {}

    def layer_extras(self) -> dict[str, float]:
        return {}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def notes(self) -> list[str]:
        """Lines to print after the checks, such as known defects they met."""
        return []

    def report_shares(self, values: dict[str, float], op_s: float, out) -> None:
        """Print how the traced op time splits, where the workload cares."""

    def close(self) -> None:
        pass


class Loop:
    """Latencies, digests and failures of one phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.records: list[tuple[int, object]] = []
        self.errors: list[str] = []
        self.peak_rss_kb = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_loop(wl, first_index: int, seconds: float, min_ops: int = MIN_OPS,
             cal: Calibrator | None = None, tracer: Tracer | None = None) -> Loop:
    loop = Loop()
    spent = 0.0
    i = first_index
    while spent < seconds or loop.ops < min_ops:
        inp = wl.make_input(i)
        # After making the input: just after a large op the host runs slow
        # for a fraction of a second.  Before the collection: a full
        # collection of a large heap leaves the caches cold.  The collection
        # makes every op start from the same collector state, so no op pays
        # for a collection of the whole heap that an earlier op provoked.
        if cal is not None:
            cal.sample()
        gc.collect()
        out, err = None, None
        t0 = perf_counter()
        if tracer is not None:
            tracer.active = True
            root = tracer.begin_op(i)
        try:
            out = wl.op(inp)
        except Exception:  # an op that raises is a failed op, the run goes on
            err = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.close(root)
                tracer.active = False
        dt = perf_counter() - t0
        spent += dt
        loop.latencies.append(dt)
        if err is None:
            loop.records.append((i, wl.digest(inp, out)))
        else:
            loop.errors.append(f"op {i} raised:\n{err}")
        if loop.ops <= MIN_OPS:  # peak RSS over a fixed amount of work
            loop.peak_rss_kb = wl.peak_rss_kb()
        i += 1
    return loop


def tail(sorted_lat: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    n = len(sorted_lat)
    if n < MIN_OPS:
        return statistics.median(sorted_lat), 50.0
    return sorted_lat[n - MIN_OPS], 100.0 * (n - 10) / n


def machine_facts() -> dict[str, str]:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
    }


def import_seconds(modules: tuple[str, ...], root: str) -> float:
    """Import time of the modules in a fresh interpreter, start-up excluded."""
    code = ("import importlib, time\nt = time.perf_counter()\n"
            f"for m in {list(modules)!r}: importlib.import_module(m)\n"
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def run(workload_cls, seed: int, seconds: float, trace: bool, root: str, out=sys.stdout) -> dict:
    # Set-up is scaled by calibration samples taken between its own steps.
    setup_cal = Calibrator()
    imports = workload_cls.imports
    import_times = [0.0]
    if imports:
        import_times = []
        for _ in range(SETUP_REPEATS):
            setup_cal.sample()
            import_times.append(import_seconds(imports, root))
    for module in imports:
        importlib.import_module(module)
    setup_times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        wl = workload_cls(seed, root)
        setup_cal.sample()
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    print(f"workload {wl.name}, seed {seed}: closed loop, 1 client, {wl.op_doc}", file=out)
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine_facts().items()), file=out)
    try:
        if trace:
            result = _traced(wl, seconds, root, out)
        else:
            result = _untraced(wl, seconds, (setup_s, setup_cal.factor()), Calibrator(), out)
    finally:
        wl.close()
    return result


def _check(wl, loops: list[Loop], out) -> tuple[int, int]:
    attempted = failed = 0
    for loop in loops:
        attempted += loop.ops
        failed += len(loop.errors)
        for msg in loop.errors:
            print(msg, file=sys.stderr)
        for i, rec in loop.records:
            problems = wl.check(rec)
            if problems:
                failed += 1
                print(f"op {i} failed its check: " + "; ".join(problems), file=sys.stderr)
    for line in wl.notes():
        print(line, file=out)
    print(f"failed_op_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)", file=out)
    return attempted, failed


def _untraced(wl, seconds, setup: tuple[float, float], cal: Calibrator, out) -> dict:
    """End-to-end metrics; setup is (raw set-up seconds, its own scale factor)."""
    loop = run_loop(wl, 0, seconds, cal=cal)
    # Each op is scaled by the kernel samples around it: the host switches
    # between fast and slow spells within a run, and the tail falls in the
    # slow ones.
    scaled = sorted(t * f for t, f in zip(loop.latencies, cal.local_factors()))
    lat = sorted(loop.latencies)
    raw = {
        "ops_per_s": loop.ops / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail(lat)[0],
        "setup_s": setup[0],
    }
    tail_s, pct = tail(scaled)
    values = {
        "ops_per_s": loop.ops / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": setup[0] * setup[1],
        "peak_rss_mb": loop.peak_rss_kb / 1024.0,
    }
    print(f"host speed: calibration kernel median {1e3 * statistics.median(cal.samples):.3f} ms "
          f"over {len(cal.samples)} samples, reference {1e3 * REFERENCE_S:g} ms, "
          f"set-up factor {setup[1]:.4f}; times below are scaled", file=out)
    for m in END_TO_END:
        note = f" (raw {raw[m.name]:.6g})" if m.name in raw else f" (after {min(loop.ops, MIN_OPS)} ops)"
        if m.name == "op_tail_ms":
            note += f" p{pct:.1f} of {loop.ops} ops"
        print(f"{m.name} {values[m.name]:.6g} {m.unit}{note}", file=out)
    attempted, failed = _check(wl, [loop], out)
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _traced(wl, seconds, root, out) -> dict:
    half = seconds / 2
    plain = run_loop(wl, 0, half, TRACED_MIN_OPS)
    tracer = Tracer()
    wl.tracer = tracer
    tracer.install()
    cache = tracer.scc_cache_info
    before = cache() if cache else None
    try:
        traced = run_loop(wl, TRACED_BASE, half, TRACED_MIN_OPS, tracer=tracer)
    finally:
        tracer.uninstall()
    after = cache() if cache else None
    values = layer_metrics(tracer)
    wall_plain = sum(plain.latencies) / plain.ops
    wall_traced = sum(traced.latencies) / traced.ops
    values["trace.overhead_ratio"] = wall_traced / wall_plain
    if cache:
        lookups = (after.hits - before.hits) + (after.misses - before.misses)
        values["scc.cache_hit_ratio"] = (after.hits - before.hits) / lookups if lookups else 0.0
        values["scc.cached_graphs"] = after.currsize
    first = dict(traced.records).get(TRACED_BASE)
    if first is not None:
        values.update(wl.exact_counts(first))
    values["homotopy.surgery_calls"] = surgery_calls(tracer, TRACED_BASE)
    values.update(wl.layer_extras())

    os.makedirs(os.path.join(root, "bench_out"), exist_ok=True)
    span_file = os.path.join(root, "bench_out", f"trace-{wl.name}.spans")
    tracer.dump(span_file)
    print(f"traced {traced.ops} ops after {plain.ops} untraced; {tracer.span_count()} spans "
          f"written to {os.path.relpath(span_file, root)}", file=out)
    for m in PER_LAYER:
        v = values.get(m.name, 0.0)
        exact = " exact" if m.name in EXACT else ""
        print(f"{m.name} {v:.6g} {m.unit}{exact}  (moves {m.moves} on {m.on})", file=out)
    wl.report_shares(values, wall_traced, out)
    attempted, failed = _check(wl, [plain, traced], out)
    metrics = {m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit} for m in PER_LAYER}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    names, nid, start, end, parent = tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent
    own = tracer.self_times()
    op_id = tracer.intern(OP_SPAN)
    ops = wall = 0
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    top: dict[str, list[float]] = {}
    hits: list[float] = []
    morph = 0.0
    verdict_spans = set()
    layer_of = [n.split(".")[0] for n in names]
    for i in range(len(start)):
        dur = end[i] - start[i]
        name = names[nid[i]]
        if nid[i] == op_id:
            ops += 1
            wall += dur
            continue
        layer = layer_of[nid[i]]
        calls[layer] += 1
        self_s[layer] += own[i]
        if name == "scc.scc_decompose:hit":
            hits.append(dur)
        p = parent[i]
        if p >= 0 and nid[p] == op_id:
            top.setdefault(name, []).append(dur)
            if name in TOP_LEVEL["homotopy.verdict_us"]:
                verdict_spans.add(i)
            elif name == "core.GraphMorphism":
                morph += dur
        elif name == "core.GraphMorphism.validate" and p in verdict_spans:
            morph += dur
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls[layer] / ops
        values[f"{layer}.self_s"] = self_s[layer] / ops
        values[f"{layer}.share"] = self_s[layer] / wall
    for metric, span_names in TOP_LEVEL.items():
        durs = [d for n in span_names for d in top.get(n, [])]
        if metric.endswith("_us"):
            values[metric] = 1e6 * sum(durs) / len(durs) if durs else 0.0
        else:
            values[metric] = sum(durs) / ops
    values["scc.hit_us"] = 1e6 * sum(hits) / len(hits) if hits else 0.0
    if verdict_spans:
        values["core.morphism_us"] = 1e6 * morph / len(verdict_spans)
    return values


def surgery_calls(tracer: Tracer, op_index: int) -> int:
    """glue_nodes/attach_cycle spans under euler_decompose in one op."""
    nid, parent, op = tracer.name_id, tracer.parent, tracer.op
    surgery = {tracer.intern("homotopy.glue_nodes"), tracer.intern("homotopy.attach_cycle")}
    decompose = tracer.intern("euler.euler_decompose")
    count = 0
    for i in range(len(nid)):
        if op[i] != op_index or nid[i] not in surgery:
            continue
        p = parent[i]
        while p >= 0 and nid[p] != decompose:
            p = parent[p]
        count += p >= 0
    return count
