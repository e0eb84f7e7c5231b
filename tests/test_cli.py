import argparse
import io
import json
import os
import subprocess
import sys

import pytest

import hog
from hog.cli import build_parser, main
from hog.core import standard_cycle
from hog.io import graph_to_dict, reflexive_to_dict
from hog.reflexive import add_degeneracies


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(graph_to_dict(standard_cycle(3))))
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(
        json.dumps({"nodes": ["u", "v"], "arcs": [{"id": "a", "src": "u", "tgt": "v"}]})
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scc_text(capsys, c3_file):
    code, out, _ = run(capsys, "scc", c3_file)
    assert code == 0
    assert "component 0: x0 x1 x2" in out


def test_euler_json(capsys, c3_file):
    code, out, _ = run(capsys, "euler", c3_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eulerian"] is True


def test_euler_construct_on_path_fails_with_exit_1(capsys, p2_file):
    code, _, err = run(capsys, "euler", p2_file, "--construct")
    assert code == 1
    assert "error" in err


def test_postman_not_strongly_connected(capsys, p2_file):
    code, _, err = run(capsys, "postman", p2_file)
    assert code == 1
    assert "strongly connected" in err


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "scc", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"nodes": ' + "[" * 200_000 + "]" * 200_000 + "}", "maximum recursion depth exceeded"),
        ('{"nodes": [' + "9" * 5000 + '], "arcs": []}', "integer string conversion"),
    ],
    ids=["deep-nesting", "long-integer"],
)
@pytest.mark.parametrize("command", ["scc", "decompose"])
def test_json_past_the_decoder_limits_exit_2(capsys, tmp_path, c3_file, command, text, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = [command, str(bad)] if command == "scc" else [command, c3_file, str(bad)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: invalid JSON (") and reason in err


def test_dangling_arc_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": ["x"], "arcs": [{"id": "a", "src": "x", "tgt": "y"}]}))
    code, _, _ = run(capsys, "scc", str(bad))
    assert code == 2


def test_node_that_is_not_a_string_exit_2(capsys, tmp_path):
    bad = tmp_path / "numbers.json"
    bad.write_text(json.dumps({"nodes": [1, True, None, 1.5], "arcs": []}))
    code, out, err = run(capsys, "scc", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: node #0 is not a string: 1\n"


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "scc", "/nonexistent/graph.json")
    assert code == 2


def test_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"x y\ncaf\xe9 x\n")
    code, out, err = run(capsys, "scc", str(bad))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xe9 "
        "in position 7: invalid continuation byte)\n"
    )


def test_cofibrant_json_pipes_into_scc(capsys, monkeypatch, c3_file):
    code, out, _ = run(capsys, "cofibrant", c3_file, "--json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "scc", "-")
    assert code == 0
    assert "component 0: x0 x1 x2" in out2


def test_edgelist_parsing(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\nx y first\ny x\n\nx y  # trailing comment\n")
    code, out, _ = run(capsys, "scc", str(path))
    assert code == 0
    assert "component 0: x y" in out


def test_hom_count_matches_trace(capsys, c3_file):
    code, out, _ = run(capsys, "hom-count", c3_file, "6")
    assert code == 0
    assert out.splitlines() == ["0 3", "1 0", "2 0", "3 3", "4 0", "5 0", "6 3"]
    code, out_enum, _ = run(capsys, "hom-count", c3_file, "6", "--enumerate")
    assert code == 0
    assert out_enum == out


def test_hom_cap_env(capsys, monkeypatch, tmp_path):
    path = tmp_path / "loops.json"
    path.write_text(
        json.dumps(
            {
                "nodes": ["x"],
                "arcs": [{"id": f"a{i}", "src": "x", "tgt": "x"} for i in range(4)],
            }
        )
    )
    monkeypatch.setenv("HOG_HOM_CAP", "10")
    code, _, err = run(capsys, "hom-count", str(path), "8", "--enumerate")
    assert code == 1
    assert "10" in err


def test_weq_false_exits_zero(capsys, tmp_path, p2_file):
    dot = tmp_path / "dot.json"
    dot.write_text(json.dumps({"nodes": ["z"], "arcs": []}))
    morphism = tmp_path / "f.json"
    morphism.write_text(json.dumps({"nodes": {"u": "z", "v": "z"}, "arcs": {"a": None}}))
    # collapsing the arc needs an arc image; the only valid collapse has none,
    # so supply the legal morphism to the dot graph with a loop instead
    loop = tmp_path / "loop.json"
    loop.write_text(
        json.dumps({"nodes": ["z"], "arcs": [{"id": "l", "src": "z", "tgt": "z"}]})
    )
    morphism.write_text(json.dumps({"nodes": {"u": "z", "v": "z"}, "arcs": {"a": "l"}}))
    code, out, _ = run(capsys, "weq", p2_file, str(loop), str(morphism))
    assert code == 0
    assert "weak_equivalence: false" in out
    assert "witness" in out


def test_weq_oracle_lines(capsys, tmp_path, c3_file):
    ident = tmp_path / "ident.json"
    ident.write_text(
        json.dumps(
            {
                "nodes": {f"x{i}": f"x{i}" for i in range(3)},
                "arcs": {f"a{i}": f"a{i}" for i in range(3)},
            }
        )
    )
    code, out, _ = run(capsys, "weq", c3_file, c3_file, str(ident), "--oracle", "4")
    assert code == 0
    assert "weak_equivalence: true" in out
    assert "oracle n=3: 3 vs 3 bijective" in out


def test_invalid_morphism_exit_2(capsys, tmp_path, c3_file):
    bad = tmp_path / "bad_f.json"
    bad.write_text(json.dumps({"nodes": {"x0": "x0"}, "arcs": {}}))
    code, _, _ = run(capsys, "weq", c3_file, c3_file, str(bad))
    assert code == 2


def test_glue_and_surgery_commands(capsys, tmp_path, c3_file):
    code, out, _ = run(capsys, "glue-nodes", c3_file, "x0", "x2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["graph"]["nodes"]) == 2

    code, out, _ = run(capsys, "attach-cycle", c3_file, "x0", "2", "--json")
    assert code == 0
    assert len(json.loads(out)["graph"]["arcs"]) == 5

    parallel = tmp_path / "parallel.json"
    parallel.write_text(
        json.dumps(
            {
                "nodes": ["x", "y"],
                "arcs": [
                    {"id": "a", "src": "x", "tgt": "y"},
                    {"id": "b", "src": "x", "tgt": "y"},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "glue-paths", str(parallel), "a", "b", "--json")
    assert code == 0
    assert len(json.loads(out)["graph"]["arcs"]) == 1


def test_decompose_command(capsys, tmp_path, c3_file):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"coefficients": {"a0": 1, "a1": 1, "a2": 1}}))
    code, out, _ = run(capsys, "decompose", c3_file, str(chain))
    assert code == 0
    assert "cycle 0 (x1): a0 a1 a2" in out


def test_decompose_rejects_bool_coefficients_exit_2(capsys, tmp_path, c3_file):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"coefficients": {"a0": True, "a1": True, "a2": True}}))
    code, out, err = run(capsys, "decompose", c3_file, str(chain))
    assert code == 2
    assert out == ""
    assert err == "error: coefficient of 'a0' is not an integer\n"


def _python(args, cwd):
    """Run a fresh interpreter that imports this checkout's hog."""
    src = os.path.dirname(os.path.dirname(hog.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "morphism payload must be a JSON object"),
        ({"nodes": ["x"], "arcs": {}}, 'morphism payload needs "nodes" and "arcs" maps'),
        ({"arcs": {}}, 'morphism payload needs "nodes" and "arcs" maps'),
    ],
    ids=["list", "node-list", "no-nodes"],
)
def test_reflexive_weq_rejects_malformed_morphism_exit_2(capsys, tmp_path, payload, message):
    rc3 = tmp_path / "rc3.json"
    rc3.write_text(json.dumps(reflexive_to_dict(add_degeneracies(standard_cycle(3)))))
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "reflexive", "weq", str(rc3), str(rc3), str(f_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


def test_reflexive_weq_text_lists_the_component_matching_like_weq(capsys):
    def golden(*names):
        return [os.path.join(GOLDEN, name) for name in names]

    _, plain, _ = run(capsys, "weq", *golden(
        "twocycles.json", "twocycles-image.json", "twocycles.morphism.json"
    ))
    code, lifted, _ = run(capsys, "reflexive", "weq", *golden(
        "twocycles-reflexive.json", "twocycles-image-reflexive.json",
        "twocycles-reflexive.morphism.json",
    ))
    assert code == 0
    assert lifted == plain
    assert "component 0 -> 3\n" in lifted


def test_enumerating_long_walks_on_a_self_loop(tmp_path):
    (tmp_path / "loop.txt").write_text("x x\n")
    proc = _python(["-m", "hog.cli", "hom-count", "loop.txt", "1500", "--enumerate"], tmp_path)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1] == "1500 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hom-count", "two.txt", "-1"], "walk length must be >= 0"),
        (["hom-count", "two.txt", "-1", "--enumerate"], "walk length must be >= 0"),
        (["homology", "two.txt", "--max-coeff", "-1"], "max_coeff must be >= 0"),
    ],
    ids=["hom-count", "hom-count-enumerate", "homology-max-coeff"],
)
def test_negative_length_and_coefficient_bound_exit_2(tmp_path, argv, message):
    (tmp_path / "two.txt").write_text("x y a\ny x b\n")
    proc = _python(["-m", "hog.cli", *argv], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stderr


def test_homology_command(capsys, c3_file):
    code, out, _ = run(capsys, "homology", c3_file, "--max-coeff", "1")
    assert code == 0
    assert "h1_rank: 1" in out
    assert "positive 0: a0:1 a1:1 a2:1" in out


def test_reflexive_roundtrip(capsys, monkeypatch, c3_file):
    code, out, _ = run(capsys, "reflexive", "add", c3_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["graph"]["degeneracies"]) == 3
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "reflexive", "strip", "-", "--json")
    assert code == 0
    assert len(json.loads(out2)["graph"]["arcs"]) == 3


def test_reflexive_weq_command(capsys, tmp_path):
    from hog.io import reflexive_to_dict
    from hog.reflexive import add_degeneracies
    from hog.core import standard_path

    arc_r = add_degeneracies(standard_path(2))
    dot_r = add_degeneracies(standard_cycle(0))
    a_path = tmp_path / "ar.json"
    d_path = tmp_path / "dr.json"
    f_path = tmp_path / "f.json"
    a_path.write_text(json.dumps(reflexive_to_dict(arc_r)))
    d_path.write_text(json.dumps(reflexive_to_dict(dot_r)))
    f_path.write_text(
        json.dumps(
            {
                "nodes": {"x0": "x0", "x1": "x0"},
                "arcs": {"a0": "loop_x0", "loop_x0": "loop_x0", "loop_x1": "loop_x0"},
            }
        )
    )
    code, out, _ = run(capsys, "reflexive", "weq", str(a_path), str(d_path), str(f_path))
    assert code == 0
    assert "weak_equivalence: false" in out


def test_pagerank_json(capsys, c3_file):
    code, out, _ = run(capsys, "pagerank", c3_file, "--json", "--report")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["scores"].values()) == pytest.approx(1.0)
    assert payload["report"]["irreducible"] is True


def test_outputs_are_deterministic(capsys, c3_file):
    _, first, _ = run(capsys, "homology", c3_file, "--json")
    _, second, _ = run(capsys, "homology", c3_file, "--json")
    assert first == second


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--damping", "1.5"], "damping must lie strictly between 0 and 1"),
        (["--damping", "0"], "damping must lie strictly between 0 and 1"),
        (["--tol", "0"], "tol must be positive"),
        (["--tol", "nan"], "tol must be positive"),
        (["--max-iter", "0"], "max_iter must be at least 1"),
    ],
)
def test_pagerank_bad_parameters_exit_2(capsys, c3_file, flags, message):
    code, out, err = run(capsys, "pagerank", c3_file, *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


# Which of numpy and dataclasses are loaded after import and after each run.
STDLIB_PROBE = """
import contextlib, io, json, sys
import hog, hog.cli
def seen():
    return [name for name in ("numpy", "dataclasses") if name in sys.modules]
loaded = {"import": seen()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hog.cli.main(argv)
    assert code == 0, (argv, code)
    loaded[" ".join(argv[:2])] = seen()
print(json.dumps(loaded))
"""


def _subcommands(parser):
    """Every leaf subcommand name, nested ones as 'reflexive add'."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                names += [f"{name} {n}" for n in _subcommands(sub)] or [name]
    return names


def _every_subcommand(tmp_path):
    """Input files in tmp_path, and one argv per leaf subcommand."""
    c3 = standard_cycle(3)
    files = {
        "c3.json": graph_to_dict(c3),
        "ident.json": {"nodes": {n: n for n in c3.nodes}, "arcs": {a.id: a.id for a in c3.arcs}},
        "chain.json": {"coefficients": {a.id: 1 for a in c3.arcs}},
        "rc3.json": reflexive_to_dict(add_degeneracies(c3)),
        "rident.json": {
            "nodes": {n: n for n in c3.nodes},
            "arcs": {a.id: a.id for a in add_degeneracies(c3).arcs},
        },
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    (tmp_path / "parallel.txt").write_text("x y a\nx y b\n")
    runs = [
        ["scc", "c3.json"],
        ["weq", "c3.json", "c3.json", "ident.json", "--oracle", "3"],
        ["cofibrant", "c3.json"],
        ["glue-nodes", "c3.json", "x0", "x1"],
        ["attach-cycle", "c3.json", "x0", "2"],
        ["glue-paths", "parallel.txt", "a", "b"],
        ["euler", "c3.json", "--construct", "--decompose"],
        ["homology", "c3.json", "--max-coeff", "1"],
        ["decompose", "c3.json", "chain.json"],
        ["postman", "c3.json"],
        ["hom-count", "c3.json", "4", "--enumerate"],
        ["reflexive", "add", "c3.json"],
        ["reflexive", "strip", "rc3.json"],
        ["reflexive", "weq", "rc3.json", "rc3.json", "rident.json"],
        ["pagerank", "c3.json", "--report"],
    ]
    covered = {" ".join(r[:2]) if r[0] == "reflexive" else r[0] for r in runs}
    assert covered == set(_subcommands(build_parser()))
    return runs


def test_only_pagerank_imports_numpy(tmp_path):
    runs = _every_subcommand(tmp_path)
    proc = _python(["-c", STDLIB_PROBE, json.dumps(runs)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    # The probe runs every subcommand in one interpreter, so pagerank comes
    # last: no other subcommand loads numpy, and none loads dataclasses.
    assert list(loaded)[-1] == "pagerank c3.json"
    assert loaded.pop("pagerank c3.json") == ["numpy"]
    assert not any(loaded.values()), loaded


# Each run starts from a fork of an interpreter that has imported hog.cli and
# nothing else of hog, so it sees the modules that subcommand alone loads.
MODULES_PROBE = """
import contextlib, io, json, os, sys, traceback

def loaded():
    return sorted(m[4:] for m in sys.modules if m.startswith("hog.") and m != "hog.cli")

import hog
print(json.dumps(["import hog", loaded()]), flush=True)
import hog.cli
for argv in json.loads(sys.argv[1]):
    pid = os.fork()
    if pid == 0:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = hog.cli.main(argv)
            print(json.dumps([" ".join(argv), loaded() if code == 0 else code]), flush=True)
        except BaseException:
            traceback.print_exc()
        os._exit(0)
    os.waitpid(pid, 0)
"""


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    runs = _every_subcommand(tmp_path) + [["hom-count", "c3.json", "4"]]
    proc = _python(["-c", MODULES_PROBE, json.dumps(runs)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(json.loads(line) for line in proc.stdout.splitlines())
    base = ["core", "errors", "io"]
    homotopy = sorted(base + ["homotopy", "scc"])
    homology = sorted(homotopy + ["euler", "homology"])
    reflexive = sorted(homotopy + ["reflexive"])
    assert loaded == {
        "import hog": [],
        "scc c3.json": sorted(base + ["scc"]),
        "weq c3.json c3.json ident.json --oracle 3": homotopy,
        "cofibrant c3.json": homotopy,
        "glue-nodes c3.json x0 x1": homotopy,
        "attach-cycle c3.json x0 2": homotopy,
        "glue-paths parallel.txt a b": homotopy,
        "euler c3.json --construct --decompose": sorted(homotopy + ["euler"]),
        "homology c3.json --max-coeff 1": homology,
        "decompose c3.json chain.json": homology,
        "postman c3.json": homology,
        "hom-count c3.json 4 --enumerate": homotopy,
        "hom-count c3.json 4": base,
        "reflexive add c3.json": reflexive,
        "reflexive strip rc3.json": reflexive,
        "reflexive weq rc3.json rc3.json rident.json": reflexive,
        "pagerank c3.json --report": sorted(base + ["pagerank", "scc"]),
    }


def test_every_exported_name_is_the_object_of_its_module():
    for name in hog.__all__:
        obj = getattr(hog, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert "pagerank" not in hog.__all__
    with pytest.raises(AttributeError):
        hog.no_such_name


@pytest.mark.parametrize(
    "first", ["", "import hog; hog.pagerank", "from hog import connectivity_report"]
)
def test_hog_pagerank_is_the_module_whatever_was_looked_up_first(tmp_path, first):
    script = (
        f"{first}\n"
        "import hog.pagerank as pr\n"
        "from hog import pagerank\n"
        "assert pagerank is pr and type(pr).__name__ == 'module', pr\n"
        "print(pr.connectivity_report.__module__, pr.pagerank.__module__)\n"
    )
    proc = _python(["-c", script], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "hog.pagerank hog.pagerank\n", "")


def test_reader_closing_the_pipe_early_ends_without_a_traceback(tmp_path):
    """``hog scc --json big.txt | head -2``: the output outgrows the pipe, so
    the write after the reader has gone fails; hog exits 1 and prints nothing
    to stderr."""
    (tmp_path / "path.txt").write_text("".join(f"v{i} v{i + 1}\n" for i in range(20_000)))
    src = os.path.dirname(os.path.dirname(hog.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hog.cli", "scc", "--json", "path.txt"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == [b"{\n", b'  "components": [\n']
    assert err == ""
