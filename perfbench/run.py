"""fplm benchmark: time to a certified (or refuted) embedding.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload open-surface --seed 0 --seconds 30 --trace 0

Workloads: open-surface, closed-sphere, solid-ball, folded-foreign (see
README.md beside this file). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the details (sample counts, outcome, environment).

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("open-surface", "closed-sphere", "solid-ball", "folded-foreign")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="relabelling seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_fplm():
    """Import fplm from ROOT/src, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "fplm" / "__init__.py").is_file():
        _fail(f"no fplm package under {src}")
    sys.path.insert(0, str(src))
    import fplm
    # modules the audit and the solver import lazily on first use
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import scipy.spatial  # noqa: F401

    if Path(fplm.__file__).resolve().parent != (src / "fplm").resolve():
        _fail(f"imported fplm from {fplm.__file__}, not {src}")
    return fplm


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS/OpenMP thread, fixed before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    fplm = import_fplm()
    import harness

    detail, result = harness.measure(
        fplm, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
