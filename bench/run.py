"""Run one workload of the weakhopf benchmark and print its metrics.

    python3 bench/run.py --workload swarm --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and nowhere else, and fails with exit code 1
when the sources are missing.  Inputs, reports, output digests and span
files go to ``.bench_work/`` in the checkout.

Human-readable lines come first.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one extra traced pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def import_library():
    """Import weakhopf from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "weakhopf" / "__init__.py").is_file():
        raise SystemExit(f"bench: no weakhopf sources under {src}")
    sys.path.insert(0, str(src))
    lib = importlib.import_module("weakhopf")
    if Path(lib.__file__).resolve().parent != src / "weakhopf":
        raise SystemExit(f"bench: imported weakhopf from {lib.__file__}, "
                         f"not from {src}")
    for name in spans.MODULES:
        importlib.import_module(f"weakhopf.{name}")
    return lib


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = import_library()
    result, notes = workloads.run(lib, args.workload, args.seed, args.seconds,
                                  args.trace, WORK)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
