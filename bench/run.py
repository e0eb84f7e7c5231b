"""Run one benchmark workload against the hog sources of this checkout.

    python3 bench/run.py --workload web-rank --seed 1 --seconds 12 --trace 0

Prints the metrics by name with their units, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    from metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hog", "__init__.py")):
        print(f"error: no hog sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # One CPU for this process and every process it starts, set before numpy
    # loads so that its BLAS starts no threads: the ops, the calibration
    # kernel and the CLI children then all run where the kernel measures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import harness
    from wl_cli import CliMix
    from wl_cycle import CycleSpace
    from wl_web import WebRank
    from wl_weq import WeqStream

    classes = {cls.name: cls for cls in (WeqStream, WebRank, CycleSpace, CliMix)}
    result = harness.run(classes[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
