"""End-to-end, layer-by-layer step benchmark of the paper's workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dwd_gravity --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``.perfbench_work/``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``layers.json``
says what each metric measures and which workload it should move.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dwd_gravity", "blast_hydro", "star_regrid")


def parse_args(argv):  # noqa: ANN001, ANN201
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench_work",
                        help="directory for plan caches, spans and digests")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest meshes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:  # noqa: ANN001
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from bench import Run, stop_helpers

    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.workdir, smoke=args.smoke)
        result = run.run()
    finally:
        stop_helpers()
    print("\n".join(run.lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
