"""Byte-for-byte CLI output of ``hog homology`` and ``hog euler``.

The expected files in tests/golden were written by independent earlier
implementations (ranks by rational elimination, the Euler script by replaying
every surgery step), so they pin the output of the closed-form ones.  The
inputs cover several weak components, an isolated node, self-loops, parallel
arcs, a glue-heavy Eulerian graph with repeated attaches at one hub, and a
union of Hamiltonian cycles.
"""

import os

import pytest

from hog.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CASES = [
    ("components", "homology", ()),
    ("glued", "homology", ()),
    ("glued", "euler", ("--construct", "--decompose")),
    ("hamiltonian", "euler", ("--construct", "--decompose")),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("graph, command, flags", CASES, ids=[f"{g}-{c}" for g, c, _ in CASES])
def test_cli_output_matches_golden(capsys, graph, command, flags, as_json):
    argv = [command, os.path.join(GOLDEN, f"{graph}.json"), *flags]
    suffix = ".json.out" if as_json else ".out"
    if as_json:
        argv.append("--json")
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, f"{graph}.{command}{suffix}"), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
