"""masswell benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload presets|dense|sweep --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; masswell is imported from the
checkout's ``src`` directory.  With ``--trace 0`` the workload's request
list is run in closed-loop passes for ``--seconds`` after one warm-up
pass, and the end-to-end metrics are printed.  With ``--trace 1`` one
untraced and one traced pass are run and the per-layer metrics are
printed.  Every output is checked against an independent reference
outside the timed region.  The last line of standard output is the
result object; the line before it records the environment.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread here and in every interpreter started from here
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("presets", "dense", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "masswell" / "__init__.py").is_file():
        print(f"masswell sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import masswell

    if Path(masswell.__file__).resolve().parent != SRC / "masswell":
        print(f"imported masswell from {masswell.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    harness.bench(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
