"""Byte-for-byte CLI output, text and ``--json``.

The homology and Euler files were written by independent earlier
implementations (ranks by rational elimination, the Euler script by replaying
every surgery step), so they pin the output of the closed-form ones.  Their
inputs cover several weak components, an isolated node, self-loops, parallel
arcs, a glue-heavy Eulerian graph with repeated attaches at one hub, and a
union of Hamiltonian cycles.

The verdict, glue-paths and reflexive files were written before those
commands shared one union-find, one verdict printer and one morphism reader:
a weak equivalence whose component matching is not the identity (with the
walk-count oracle), a wrapping that is not one, a cycles-only verdict that
ignores an extra isolated node, a glue whose positionwise identification
merges nodes transitively, and degenerate loops whose default ids are taken.
Only the JSON of ``reflexive weq`` is pinned, as its text now lists the
component matching too.

The edge-list files were written before ``parse_edgelist`` and the scc,
cofibrant and pagerank passes ran their per-arc loops through ``map`` and
``zip``.  Their input has comments, blank and whitespace-only lines, tabs,
CRLF line ends, three-column ids among two-column lines (so the ``e{k}`` ids
count every arc before them), parallel arcs, self-loops and six components.
The two failing inputs pin stdout, stderr and the exit code of a malformed
line and of a default id that an explicit one already took.
"""

import os

import pytest

from hog.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# (stem of the expected files, argv with inputs named relative to GOLDEN)
CASES = [
    ("components.homology", ["homology", "components.json"]),
    ("glued.homology", ["homology", "glued.json"]),
    ("glued.euler", ["euler", "glued.json", "--construct", "--decompose"]),
    ("hamiltonian.euler", ["euler", "hamiltonian.json", "--construct", "--decompose"]),
    ("twocycles.weq", [
        "weq", "twocycles.json", "twocycles-image.json", "twocycles.morphism.json",
        "--oracle", "3",
    ]),
    ("wrap.weq", ["weq", "c6.json", "c3.json", "wrap.morphism.json"]),
    ("twocycles-extra.weq-cycles-only", [
        "weq", "twocycles-extra.json", "twocycles-image.json",
        "twocycles-extra.morphism.json", "--cycles-only",
    ]),
    ("crossed.glue-paths", ["glue-paths", "crossed.json", "a,b,c", "d,e,f"]),
    ("clash.reflexive-add", ["reflexive", "add", "clash.json"]),
    ("clash.reflexive-strip", ["reflexive", "strip", "clash-reflexive.json"]),
    ("twocycles.reflexive-weq", [
        "reflexive", "weq", "twocycles-reflexive.json",
        "twocycles-image-reflexive.json", "twocycles-reflexive.morphism.json",
    ]),
    ("web.scc", ["scc", "web.txt"]),
    ("web.cofibrant", ["cofibrant", "web.txt"]),
    ("web.pagerank-report", ["pagerank", "web.txt", "--report"]),
]
# (stem, argv, exit code) of inputs that fail: "{stem}.err" holds stderr too.
FAILING = [
    ("malformed.scc", ["scc", "malformed.txt"], 2),
    ("duplicate.scc", ["scc", "duplicate.txt"], 2),
]
JSON_ONLY = {"twocycles.reflexive-weq"}
PARAMS = [
    pytest.param(
        stem, argv, as_json, id=f"{stem.replace('.', '-')}-{'json' if as_json else 'text'}"
    )
    for stem, argv in CASES
    for as_json in (False, True)
    if as_json or stem not in JSON_ONLY
]




def _run(capsys, argv: list[str], as_json: bool) -> tuple[int, str, str]:
    argv = [os.path.join(GOLDEN, a) if a.endswith((".json", ".txt")) else a for a in argv]
    code = main(argv + ["--json"] if as_json else argv)
    out, err = capsys.readouterr()
    return code, out, err


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("stem, argv, as_json", PARAMS)
def test_cli_output_matches_golden(capsys, stem, argv, as_json):
    code, out, _ = _run(capsys, argv, as_json)
    assert code == 0
    assert out == _golden(f"{stem}{'.json' if as_json else ''}.out")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "stem, argv, code", FAILING, ids=[c[0].replace(".", "-") for c in FAILING]
)
def test_cli_failure_matches_golden(capsys, stem, argv, code, as_json):
    suffix = ".json" if as_json else ""
    assert _run(capsys, argv, as_json) == (
        code, _golden(f"{stem}{suffix}.out"), _golden(f"{stem}{suffix}.err")
    )
