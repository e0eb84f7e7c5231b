"""Tests of the benchmark itself: seeded inputs, planted wrong answers, tracing.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
from gen import rng_for, web_text  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import load_spans  # noqa: E402
from wl_cli import CliMix, make_files  # noqa: E402
from wl_cycle import CycleSpace, make_case  # noqa: E402
from wl_weq import CorpusSampler, WeqStream  # noqa: E402


def _quiet_run(cls, *, trace=False, seconds=0.0, seed=3):
    return harness.run(cls, seed, seconds, trace, ROOT, out=io.StringIO())


def _weq_inputs(seed: int) -> bytes:
    wl = WeqStream(seed, ROOT)
    wl.setup()
    pools = {k: [(d.nodes, d.arcs, c.nodes, c.arcs, sorted(nm.items()), sorted(am.items()))
                 for d, c, nm, am in v] for k, v in wl.pools.items()}
    return repr((pools, [wl.make_input(i) for i in range(5)])).encode()


@pytest.mark.parametrize("make", [
    lambda s: web_text(rng_for(s, "web", 4), 300, 3000).encode(),
    lambda s: repr(make_case(rng_for(s, "cycle", 4))).encode(),
    lambda s: json.dumps(make_files(s), sort_keys=True).encode(),
    _weq_inputs,
])
def test_same_seed_gives_identical_inputs(make):
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_corpus_sampler_draws_uniformly_from_the_enumeration():
    from hog import core, enumeration

    graphs = list(enumeration.small_graphs(2, 2))
    counts = {}  # (domain, codomain) -> valid morphisms, enumerated as the acceptance scan does
    for x, dom in enumerate(graphs):
        for y, cod in enumerate(graphs):
            counts[x, y] = 0
            for images in itertools.product(cod.nodes, repeat=len(dom.nodes)):
                nm = dict(zip(dom.nodes, images))
                counts[x, y] += math.prod(
                    sum((b.src, b.tgt) == (nm[a.src], nm[a.tgt]) for b in cod.arcs) for a in dom.arcs)
    index = {id(g): i for i, g in enumerate(graphs)}
    sampler, rng = CorpusSampler(graphs), random.Random(5)
    draws = 20_000
    seen = Counter()
    for _ in range(draws):
        dom, cod, nm, am = sampler.draw(rng)
        assert core.GraphMorphism(dom, cod, nm, am).is_valid()
        seen[index[id(dom)], index[id(cod)]] += 1
    total = sum(counts.values())
    for pair, n in counts.items():
        expected = draws * n / total
        assert abs(seen[pair] - expected) <= 5 * math.sqrt(expected) + 1, pair
    bijective = CorpusSampler(graphs, bijective=True)
    for _ in range(200):
        dom, cod, nm, _ = bijective.draw(rng)
        assert sorted(nm.values()) == sorted(cod.nodes) and len(dom.nodes) == len(cod.nodes)


def test_clean_runs_have_no_failed_ops():
    for cls in (WeqStream, CycleSpace):
        result = _quiet_run(cls)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == {m.name for m in END_TO_END}


def test_flipped_verdict_shows_in_failed_ops(monkeypatch):
    from hog import homotopy

    real = homotopy.is_weak_equivalence

    def flipped(f):
        return homotopy.WeakEquivalenceVerdict(not real(f).is_weak_equivalence)

    monkeypatch.setattr(homotopy, "is_weak_equivalence", flipped)
    result = _quiet_run(WeqStream)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_cycles_only_true_on_every_morphism_shows_in_failed_ops(monkeypatch):
    from hog import homotopy

    monkeypatch.setattr(homotopy, "is_weak_equivalence_cycles_only",
                        lambda f: homotopy.WeakEquivalenceVerdict(True))
    result = _quiet_run(WeqStream)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_changed_postman_length_shows_in_failed_ops(monkeypatch):
    from hog import homology

    real = homology.minimal_covering_walk
    monkeypatch.setattr(homology, "minimal_covering_walk", lambda g: (real(g)[0], real(g)[1] + 1))
    result = _quiet_run(CycleSpace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_traced_run_reports_every_per_layer_metric():
    from hog import homotopy

    original = homotopy.is_weak_equivalence
    result = _quiet_run(WeqStream, trace=True, seconds=0.2)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m.name for m in PER_LAYER}
    assert metrics["homotopy.calls"]["value"] > 0
    assert 0.0 < metrics["scc.cache_hit_ratio"]["value"] <= 1.0
    assert homotopy.is_weak_equivalence is original  # wrappers removed
    names, cols = load_spans(os.path.join(ROOT, "bench_out", "trace-weq-stream.spans"))
    ops = [i for i, n in enumerate(cols["name_id"]) if names[n] == "bench.op"]
    assert len(ops) >= 2
    assert all(cols["end"][i] >= cols["start"][i] for i in range(len(cols["start"])))


def test_cli_peak_rss_is_the_child_own():
    ballast = bytearray(64 * 2**20)
    for page in range(0, len(ballast), 4096):  # make it resident
        ballast[page] = 1
    wl = CliMix(3, ROOT)
    try:
        wl.setup()
        code, _, stderr = wl.op(wl.make_input(1))
        assert code == 0 and "peak-rss" not in stderr
        assert 0 < wl.peak_rss_kb() < 64 * 1024
    finally:
        wl.close()
    del ballast


def test_tail_leaves_ten_ops_beyond():
    lat = [float(i) for i in range(40)]
    value, pct = harness.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == 75.0


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [m._asdict() for m in END_TO_END]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weq-stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
