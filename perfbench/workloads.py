"""The benchmark's three workloads, each a list of requests drawn from a seed.

A request is one closed-loop call into masswell: a CLI invocation
through ``masswell.cli.main`` in this process, or a library call.  Every
call looks its entry point up on the module at call time, so the tracer's
wrappers are seen.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle
from masswell import cli, matching, spectrum, wavefunction

TOL = 1e-12

#: the failing request kept visible in ``dense``, run once per run, untimed
KNOWN_FAILURE = ["spectrum", "--preset", "constant-negative", "--window=-100:4e4", "--parity", "even"]
KNOWN_FAILURE_WINDOW = (-100.0, 4e4)


class Failed(Exception):
    """The program raised or exited with a nonzero code."""


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], object]
    #: raises oracle.Wrong, or returns the number of roots it verified
    check: Callable[[object], int]
    is_cli: bool


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise Failed(f"exit code {code}")
    return out.getvalue()


def _cli(argv: list[str], check) -> Request:
    return Request(" ".join(argv), partial(run_cli, argv), check, True)


def _levels(prof, window, parity):
    """run_scenario's per-level work without the verdict: solve, count nodes, localize."""
    return [
        (energy, parity, wavefunction.count_nodes(psi), wavefunction.localization_fraction(psi))
        for energy, psi in matching.eigenvalues(prof, window, parity, tol=TOL)
    ]


def presets(rng: random.Random) -> list[Request]:
    out = []
    for name in oracle.PRESETS:
        lo, hi = round(rng.uniform(-101.0, -99.0), 3), round(rng.uniform(99.0, 101.0), 3)
        for parity in ("even", "odd"):
            argv = ["spectrum", "--preset", name, f"--window={lo}:{hi}", "--parity", parity, "--tol", "1e-12"]
            out.append(_cli(argv, partial(oracle.check_spectrum, name, (lo, hi), parity)))
    argv = ["wavefunction", "--preset", "step", "--window=-4:1", "--level", "1", "--samples", "401"]
    out.append(_cli(argv, partial(oracle.check_wavefunction, "step", (-4.0, 1.0), 1, 401)))
    return out


#: (preset, window, chunks per parity); chunks split the far side evenly in sqrt|E|
DENSE = (
    ("uniform", (-100.0, 1e5), 12),
    ("constant-negative", (-1e5, 10.0), 6),
    ("tanh", (-100.0, 2e4), 3),
)


def dense(rng: random.Random) -> list[Request]:
    out = []
    for name, (lo, hi), chunks in DENSE:
        lo, hi = round(lo * rng.uniform(0.98, 1.0), 3), round(hi * rng.uniform(0.98, 1.0), 3)
        sign = 1.0 if hi > -lo else -1.0
        far = math.sqrt(max(hi, -lo))
        cuts = [sign * (far * (j + rng.uniform(-0.05, 0.05)) / chunks) ** 2 for j in range(1, chunks)]
        edges = [lo] + sorted(cuts) + [hi]
        model = oracle.PRESETS[name]
        prof = oracle.profile(model)
        for window in zip(edges, edges[1:]):
            for parity in ("even", "odd"):
                out.append(
                    Request(
                        f"levels {name} {window[0]:.6g}:{window[1]:.6g} {parity}",
                        partial(_levels, prof, window, parity),
                        partial(oracle.check_levels, model, window, parity),
                        False,
                    )
                )
    return out


NUS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


def _staircase(L: float, beta_max: float, steps: int):
    return spectrum.ground_state_staircase(L, beta_max, steps)


def sweep(rng: random.Random) -> list[Request]:
    out = []
    # two geometries, so the slowest request type fills the top 18% of the
    # latencies and p90 falls inside it rather than on its edge
    for L in sorted(round(rng.uniform(1.9, 2.1), 4) for _ in range(2)):
        argv = ["critical-beta", "--L", str(L), "--count", "5000"]
        out.append(_cli(argv, partial(oracle.check_critical_betas, L, 5000)))
    hi = round(rng.uniform(190.0, 200.0), 3)
    for branch in oracle.CURVE_BRANCHES:
        argv = ["curves", "--branch", branch, "--range", f"0.05:{hi}", "--samples", "20000"]
        out.append(_cli(argv, partial(oracle.check_curves, branch, 0.05, hi, 20000)))
    ratio, L = round(rng.uniform(0.9, 1.1), 4), round(rng.uniform(1.9, 2.1), 4)
    argv = ["delta-limit", "--b-over-nu", str(ratio), "--L", str(L), "--nus", ",".join(map(str, NUS))]
    out.append(_cli(argv, partial(oracle.check_delta_limit, ratio, L, NUS)))
    L = round(rng.uniform(1.9, 2.1), 4)
    out.append(
        Request(
            f"ground_state_staircase L={L} beta_max=200 steps=20000",
            partial(_staircase, L, 200.0, 20000),
            partial(oracle.check_staircase, L, 200.0, 20000),
            False,
        )
    )
    return out


WORKLOADS = {"presets": presets, "dense": dense, "sweep": sweep}
