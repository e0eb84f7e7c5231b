"""cli-mix: one hog CLI process per op on small seeded files.

Each process runs ``hog.cli`` as ``__main__``, as ``python -m hog.cli`` does,
from a stub that also reports the process's own peak RSS.

The subcommands rotate through twelve entries; every other round adds
``--json``.  Every process pays interpreter start and package import, so
this is where import cost shows and the library layers do almost nothing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import checks
from gen import (edgelist_pairs, hamiltonian_union, largest_scc, random_multigraph, relabel,
                 rng_for, strongly_connected, web_text)
from harness import Workload

ROTATION = (
    ("scc", ["scc", "web.txt"]),
    ("cofibrant", ["cofibrant", "web.txt"]),
    ("weq", ["weq", "dom.json", "cod.json", "iso.json"]),
    ("euler", ["euler", "euler.json", "--construct", "--decompose"]),
    ("homology", ["homology", "hom.json"]),
    ("postman", ["postman", "sc.json"]),
    ("pagerank", ["pagerank", "web.txt", "--report"]),
    ("hom-count", ["hom-count", "small.json", "6"]),
    ("glue-nodes", ["glue-nodes", "web.txt", "p0", "p1"]),
    ("attach-cycle", ["attach-cycle", "small.json", "v0", "3"]),
    ("reflexive-add", ["reflexive", "add", "small.json"]),
    ("reflexive-weq", ["reflexive", "weq", "rdom.json", "rcod.json", "riso.json"]),
)
PROCESS_TIMEOUT_S = 60
FLOOR_SAMPLES = 5
PEAK_TAG = "bench-peak-rss-kb"
# ``python -m hog.cli`` that also reports its own peak RSS on exit.  The peak
# is read from VmHWM, which belongs to the process's own address space.
# ru_maxrss of a child would not do: a child forked from the benchmark
# process keeps that process's peak RSS through exec.
CLI_MAIN = f"""\
import atexit, runpy, sys

def report_peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_TAG} " + kb + "\\n")

atexit.register(report_peak)
runpy.run_module("hog.cli", run_name="__main__", alter_sys=True)
"""


def _graph_json(nodes, arcs, degeneracies=None) -> str:
    payload = {"nodes": list(nodes), "arcs": [{"id": a, "src": s, "tgt": t} for a, s, t in arcs]}
    if degeneracies is not None:
        payload["degeneracies"] = degeneracies
    return json.dumps(payload)


def _with_loops(nodes, arcs):
    loops = {v: f"loop_{v}" for v in nodes}
    return arcs + [(loops[v], v, v) for v in nodes], loops


def make_files(seed: int) -> dict[str, str]:
    """File name -> content, all from the seed."""
    rng = rng_for(seed, "cli-files")
    files = {"web.txt": web_text(rng, 150, 400)}
    files["hom.json"] = _graph_json(*strongly_connected(rng, 25, 75))
    files["euler.json"] = _graph_json(*hamiltonian_union(rng, 30, 4))
    files["sc.json"] = _graph_json(*largest_scc(rng, 80, 320))
    files["small.json"] = _graph_json(*random_multigraph(rng, 10, 24))
    nodes, arcs = random_multigraph(rng, 30, 60)
    new_nodes, new_arcs, nm, am = relabel(rng, nodes, arcs)
    files["dom.json"] = _graph_json(nodes, arcs)
    files["cod.json"] = _graph_json(new_nodes, new_arcs)
    files["iso.json"] = json.dumps({"nodes": nm, "arcs": am})
    nodes, arcs = random_multigraph(rng, 12, 24)
    new_nodes, new_arcs, nm, am = relabel(rng, nodes, arcs)
    rarcs, loops = _with_loops(nodes, arcs)
    new_rarcs, new_loops = _with_loops(new_nodes, new_arcs)
    files["rdom.json"] = _graph_json(nodes, rarcs, loops)
    files["rcod.json"] = _graph_json(new_nodes, new_rarcs, new_loops)
    am.update({loops[v]: new_loops[nm[v]] for v in nodes})
    files["riso.json"] = json.dumps({"nodes": nm, "arcs": am})
    return files


class CliMix(Workload):
    name = "cli-mix"
    op_doc = f"one op = one hog CLI process, rotating over {len(ROTATION)} subcommands, --json every other round"
    imports = ()

    def setup(self) -> None:
        self.dir = os.path.join(self.root, "bench_out", f"cli-{os.getpid()}-{id(self)}")
        os.makedirs(self.dir, exist_ok=True)
        self.files = make_files(self.seed)
        for name, content in self.files.items():
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as handle:
                handle.write(content)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.child_peak_kb = 0
        self.op(self.make_input(0))

    def close(self) -> None:
        shutil.rmtree(getattr(self, "dir", ""), ignore_errors=True)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)

    def make_input(self, i: int) -> tuple[int, bool]:
        return i % len(ROTATION), (i // len(ROTATION)) % 2 == 1

    def op(self, inp):
        k, as_json = inp
        sub, args = ROTATION[k]
        span = self.tracer.span(f"cli.{sub}") if self.tracer else nullcontext()
        with span:
            proc = self._run([sys.executable, "-c", CLI_MAIN, *args, *(["--json"] if as_json else [])])
        stderr, tag, peak = proc.stderr.rpartition(f"\n{PEAK_TAG} ")
        if not tag:  # the process died before it could report
            return proc.returncode, proc.stdout, proc.stderr
        self.child_peak_kb = max(self.child_peak_kb, int(peak))
        return proc.returncode, proc.stdout, stderr

    def peak_rss_kb(self) -> int:
        """The largest peak RSS of the CLI processes so far."""
        return self.child_peak_kb

    def digest(self, inp, out):
        return inp, out

    def check(self, rec) -> list[str]:
        (k, as_json), (code, stdout, stderr) = rec
        sub, args = ROTATION[k]
        if code != 0:
            return [f"{sub} exited {code}: {stderr.strip()[-300:]}"]
        try:
            payload = json.loads(stdout) if as_json else _FROM_TEXT[sub](stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"{sub} output does not parse: {exc}"]
        return _CHECKS[sub](self, payload, args)

    # -- helpers for the checks ----------------------------------------

    def graph(self, name: str):
        """(nodes, {arc id: (src, tgt)}) of one input file."""
        text = self.files[name]
        if name.endswith(".txt"):
            pairs = edgelist_pairs(text)
            nodes = list(dict.fromkeys(v for p in pairs for v in p))
            return nodes, {f"e{k}": p for k, p in enumerate(pairs)}
        payload = json.loads(text)
        return payload["nodes"], {a["id"]: (a["src"], a["tgt"]) for a in payload["arcs"]}

    def layer_extras(self) -> dict[str, float]:
        """Interpreter floor, import cost and which subcommands load numpy."""
        def wall(argv) -> float:
            t0 = perf_counter()
            self._run(argv)
            return perf_counter() - t0

        py = sys.executable
        floor = statistics.median(wall([py, "-c", "pass"]) for _ in range(FLOOR_SAMPLES))
        imp = statistics.median(wall([py, "-c", "import hog.cli"]) for _ in range(FLOOR_SAMPLES))
        numpy_loaded = 0
        for sub, args in ROTATION:
            if sub != "pagerank":
                err = self._run([py, "-X", "importtime", "-m", "hog.cli", *args]).stderr
                numpy_loaded += any(line.rsplit("|", 1)[-1].strip() == "numpy" for line in err.splitlines())
        return {"cli.interpreter_ms": 1e3 * floor, "cli.import_ms": 1e3 * (imp - floor),
                "cli.numpy_loaded": numpy_loaded}


# -- text output parsed into the shape of the --json payload ----------------

def _fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _walk(field: str) -> tuple[list[str], str]:
    m = re.fullmatch(r"(.*) \(base (\S+)\)", field)
    return m.group(1).split(), m.group(2)


def _scc_text(text):
    comps = [line.split(": ", 1)[1].split() for line in text.splitlines() if line.startswith("component ")]
    return {"components": comps}


def _cofibrant_text(text):
    f = _fields(text)
    return {"graph": {"arcs": [{"id": a} for a in f["kept"].split()]}}


def _verdict_text(text):
    return {"weak_equivalence": _fields(text)["weak_equivalence"] == "true"}


def _euler_text(text):
    f = _fields(text)
    arcs, base = _walk(f["cycle"])
    steps = [{"op": "attach", "length": int(line.split()[4])} for line in text.splitlines()
             if line.startswith("attach cycle of length ")]
    return {"eulerian": f["eulerian"] == "true", "cycle": {"arcs": arcs, "base": base},
            "decomposition": {"base_length": int(f["base cycle length"]), "steps": steps}}


def _homology_text(text):
    f = _fields(text)
    basis = []
    for line in text.splitlines():
        if line.startswith("basis "):
            entries = line.split(": ", 1)[1].split()
            basis.append({"coefficients": {e.rsplit(":", 1)[0]: int(e.rsplit(":", 1)[1]) for e in entries}})
    return {"h0_rank": int(f["h0_rank"]), "h1_rank": int(f["h1_rank"]),
            "component_count": int(f["components"]), "h1_basis": basis}


def _postman_text(text):
    f = _fields(text)
    arcs, base = _walk(f["walk"])
    return {"minimal_length": int(f["minimal_length"]), "walk": {"arcs": arcs, "base": base}}


def _pagerank_text(text):
    scores = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and ":" not in parts[0]:
            scores[parts[0]] = float(parts[1])
    count = int(re.search(r"components: (\d+),", text).group(1))
    return {"scores": scores, "report": {"component_count": count}}


def _hom_count_text(text):
    return {"counts": [{"n": int(n), "count": int(c)} for n, c in (line.split() for line in text.splitlines())]}


def _size_text(text):
    m = re.search(r"nodes: (\d+)\s+arcs: (\d+)", text)
    return {"size": (int(m.group(1)), int(m.group(2)))}


_FROM_TEXT = {
    "scc": _scc_text, "cofibrant": _cofibrant_text, "weq": _verdict_text, "euler": _euler_text,
    "homology": _homology_text, "postman": _postman_text, "pagerank": _pagerank_text,
    "hom-count": _hom_count_text, "glue-nodes": _size_text, "attach-cycle": _size_text,
    "reflexive-add": _size_text, "reflexive-weq": _verdict_text,
}


# -- checks on the payload --------------------------------------------------

def _check_scc(wl, payload, args):
    nodes, ends = wl.graph(args[1])
    return checks.scc_partition(checks.weighted_digraph(nodes, ends.values()), payload["components"])


def _check_cofibrant(wl, payload, args):
    nodes, ends = wl.graph(args[1])
    g = checks.weighted_digraph(nodes, ends.values())
    kept = [a["id"] for a in payload["graph"]["arcs"]]
    return checks.core_arcs(list(ends.values()), list(ends), kept, g)


def _check_true(wl, payload, args):
    return [] if payload["weak_equivalence"] is True else ["isomorphism judged not a weak equivalence"]


def _check_euler(wl, payload, args):
    _, ends = wl.graph(args[1])
    out = [] if payload["eulerian"] else ["Eulerian input judged not Eulerian"]
    out += checks.closed_walk(payload["cycle"]["arcs"], ends, every_arc_once=True)
    dec = payload["decomposition"]
    covered = dec["base_length"] + sum(s["length"] for s in dec["steps"] if s["op"] == "attach")
    if covered != len(ends):
        out.append(f"decomposition script lays {covered} arcs, graph has {len(ends)}")
    return out


def _check_homology(wl, payload, args):
    nodes, ends = wl.graph(args[1])
    return checks.homology(nodes, ends, payload["h0_rank"], payload["h1_rank"], payload["component_count"],
                           [c["coefficients"] for c in payload["h1_basis"]])


def _check_postman(wl, payload, args):
    nodes, ends = wl.graph(args[1])
    length = payload["minimal_length"]
    return (checks.postman_length(nodes, list(ends.values()), length)
            + checks.closed_walk(payload["walk"]["arcs"], ends, length=length))


def _check_pagerank(wl, payload, args):
    nodes, ends = wl.graph(args[1])
    g = checks.weighted_digraph(nodes, ends.values())
    out = checks.pagerank(g, payload["scores"])
    want = checks.scc_count(g)
    if payload["report"]["component_count"] != want:
        out.append(f"census counts {payload['report']['component_count']} components, expected {want}")
    return out


def _check_hom_count(wl, payload, args):
    nodes, ends = wl.graph(args[1])
    want = checks.closed_walk_counts(nodes, ends.values(), int(args[2]))
    got = [c["count"] for c in payload["counts"]]
    return [] if got == want else [f"closed-walk counts {got}, expected {want}"]


def _check_size(wl, payload, args):
    """Surgery and reflexive add change the node and arc counts by known amounts."""
    if args[0] == "glue-nodes":
        nodes, ends = wl.graph(args[1])
        want = (len(nodes) - 1, len(ends))
    elif args[0] == "attach-cycle":
        nodes, ends = wl.graph(args[1])
        length = int(args[3])
        want = (len(nodes) + length - 1, len(ends) + length)
    else:
        nodes, ends = wl.graph(args[2])
        want = (len(nodes), len(ends) + len(nodes))
    if "size" in payload:
        got = payload["size"]
    else:
        got = (len(payload["graph"]["nodes"]), len(payload["graph"]["arcs"]))
    return [] if tuple(got) == want else [f"result has (nodes, arcs) {tuple(got)}, expected {want}"]


_CHECKS = {
    "scc": _check_scc, "cofibrant": _check_cofibrant, "weq": _check_true, "euler": _check_euler,
    "homology": _check_homology, "postman": _check_postman, "pagerank": _check_pagerank,
    "hom-count": _check_hom_count,
    "glue-nodes": _check_size, "attach-cycle": _check_size, "reflexive-add": _check_size,
    "reflexive-weq": _check_true,
}
