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


@pytest.mark.parametrize("stem, argv, as_json", PARAMS)
def test_cli_output_matches_golden(capsys, stem, argv, as_json):
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]
    suffix = ".json.out" if as_json else ".out"
    if as_json:
        argv.append("--json")
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, f"{stem}{suffix}"), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
