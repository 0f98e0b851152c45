"""Compare the tracer's counts with the baseline profile's figures.

    python3 perfbench/anchors.py

Traces three CLI requests and prints each count beside the figure a
cProfile run of the same request gave when this benchmark was written.
Exits 1 if any differs.  A change that moves these counts on purpose
says so and gives the new figures; the figures belong to that program
version, not to the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: (CLI arguments, {count: baseline figure})
ANCHORS = (
    (
        ["spectrum", "--preset", "constant-negative", "--window=-100:100"],
        {"matching.mismatch.calls": 20_656, "spectrum.verdict.evals": 9_988},
    ),
    (
        ["spectrum", "--preset", "step", "--window=-100:100"],
        {"matching.mismatch.calls": 26_088, "spectrum.verdict.evals": 10_476},
    ),
    (
        ["spectrum", "--preset", "uniform", "--window=-100:1e5"],
        {"matching.mismatch.calls": 378_542, "wavefunction.evaluate.calls": 81_002},
    ),
)


def main() -> int:
    status = 0
    for argv, want in ANCHORS:
        with tracing.Tracer() as tracer:
            workloads.run_cli(argv)
        got = tracer.metrics()
        for name, figure in want.items():
            count = got[name][0]
            status |= count != figure
            print(f"{' '.join(argv)}: {name} = {count} (baseline {figure})")
    return status


if __name__ == "__main__":
    sys.exit(main())
