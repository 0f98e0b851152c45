"""Passes, checks and metrics for one benchmark run (see run.py)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: fresh interpreters timed for setup_s in a timed run
SETUP_SPAWNS = 9
#: latency samples a timed run collects even past --seconds, so that ten lie beyond p90
MIN_SAMPLES = 110
#: calibration kernel time that normalized times are scaled to (see ``kernel``)
KERNEL_REF_S = 1e-3


@dataclass(frozen=True)
class _Piece:
    q: float
    a: float
    b: float


def kernel() -> float:
    """Fixed work in the style of masswell's inner loops, with no masswell code.

    On a 2-vCPU Intel Xeon VM that shares physical cores with other
    tenants, speed swings by up to 1.8x for tens of seconds at a time.
    Timing this kernel between requests tracks that speed; every timed metric is
    scaled by ``KERNEL_REF_S / kernel time``, so it reads as time on a
    machine where the kernel takes ``KERNEL_REF_S``.  Since the kernel
    never calls masswell, a change to masswell moves the scaled times
    as it moves the raw ones.  Of the kernels tried, this mix of small
    numpy calls and float math tracked masswell's slowdowns best: over
    the machine's swings, log request time rose 0.82 to 0.88 times as
    fast as log kernel time.
    """
    acc = 0.0
    grid = np.arange(8.0)
    for i in range(150):
        x = 0.01 * i
        p = _Piece(math.sqrt(x + 1.0), math.cos(x), math.sinh(0.1 * x))
        acc += p.a * math.cosh(p.q)
        mask = (grid >= x) & (grid <= x + 3.0)
        if np.any(mask):
            acc += float(np.where(mask, np.cos(p.q * grid), acc)[0])
    return acc


def kernel_time() -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SetupProbe:
    """Times fresh interpreters importing masswell.cli, spread over the timed passes.

    The cost every CLI call pays before any work.  Spawns run between
    requests, one per ``interval`` seconds, so they sample the machine's
    speed over the whole run rather than one moment of it.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self.due = 0.0
        self._spawn()  # warms the bytecode cache; not recorded

    def _spawn(self) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import masswell.cli"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
            check=True,
        )
        return time.perf_counter() - start

    def poll(self) -> None:
        if len(self.raw) < SETUP_SPAWNS and time.perf_counter() >= self.due:
            before = kernel_time()
            elapsed = self._spawn()
            after = kernel_time()
            self.raw.append(elapsed)
            self.scaled.append(elapsed * 2.0 * KERNEL_REF_S / (before + after))
            self.due = time.perf_counter() + self.interval

    def medians(self) -> tuple[float, float]:
        while len(self.raw) < SETUP_SPAWNS:
            self.due = 0.0
            self.poll()
        return statistics.median(self.scaled), statistics.median(self.raw)


def digest(output) -> str:
    text = output if isinstance(output, str) else repr(output)
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """One workload's requests, the first outputs' checks and the pass records."""

    def __init__(self, requests) -> None:
        self.requests = requests
        self.expected: list = [None] * len(requests)  # digest of each checked output
        self.roots = [0] * len(requests)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, setup: SetupProbe | None = None) -> tuple[list[float], list[float], int, int]:
        """Run every request once, polling ``setup`` between requests.

        Returns the raw latencies, the latencies scaled by the kernel
        times measured around each request, the roots delivered and the
        bytes the CLI printed.
        """
        latencies, kernels, roots, cli_bytes = [], [kernel_time()], 0, 0
        for i, request in enumerate(self.requests):
            start = time.perf_counter()
            try:
                output = request.call()
            except Exception as exc:  # a raise is a failed request, never a crash of the run
                output = exc
            latencies.append(time.perf_counter() - start)
            kernels.append(kernel_time())
            if setup is not None:
                setup.poll()
            self.attempted += 1
            if isinstance(output, Exception):
                self._fail(request, f"{type(output).__name__}: {output}")
                continue
            if request.is_cli:
                cli_bytes += len(output.encode())
            if self.expected[i] is None:
                try:
                    self.roots[i] = request.check(output)
                except oracle.Wrong as exc:
                    self._fail(request, str(exc))
                    continue
                self.expected[i] = digest(output)
            elif digest(output) != self.expected[i]:
                self._fail(request, "output differs from the first pass")
                continue
            roots += self.roots[i]
        scaled = [lat * 2.0 * KERNEL_REF_S / (kernels[i] + kernels[i + 1]) for i, lat in enumerate(latencies)]
        return latencies, scaled, roots, cli_bytes

    def _fail(self, request, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{request.label}: {reason}")


def known_failure(run: Run) -> int:
    """Run the documented failing request once; 1 while it still fails."""
    try:
        text = workloads.run_cli(workloads.KNOWN_FAILURE)
    except Exception as exc:  # the documented defect raises ValueError today
        print(f"known failure still present: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    run.attempted += 1
    try:
        oracle.check_spectrum("constant-negative", workloads.KNOWN_FAILURE_WINDOW, "even", text)
    except oracle.Wrong as exc:
        run.failed += 1
        run.problems.append(f"{' '.join(workloads.KNOWN_FAILURE)}: {exc}")
    return 0


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    run.one_pass()  # warm-up; its outputs are the ones checked
    setup = SetupProbe(seconds / (SETUP_SPAWNS + 1))
    walls, raw_walls, latencies, raw = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(latencies) < MIN_SAMPLES or time.perf_counter() + statistics.median(raw_walls) <= deadline:
        lat, scaled, roots, _ = run.one_pass(setup)
        walls.append(sum(scaled))
        raw_walls.append(sum(lat))
        latencies += scaled
        raw += lat
    p90 = statistics.quantiles(latencies, n=10)[8]
    setup_s, raw_setup = setup.medians()
    info = {
        "passes": len(walls),
        "latency_samples": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_request_p50_ms": 1e3 * statistics.median(raw),
        "raw_request_p90_ms": 1e3 * statistics.quantiles(raw, n=10)[8],
        "raw_setup_s": raw_setup,
    }
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "request_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "request_p90_ms": (1e3 * p90, "ms"),
        "roots_per_s": (roots / statistics.median(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, info


def traced(run: Run) -> tuple[dict, dict]:
    plain, _, _, _ = run.one_pass()
    with tracing.Tracer() as tracer:
        lat, _, _, cli_bytes = run.one_pass()
    metrics = tracer.metrics()
    metrics["cli.bytes_out"] = (cli_bytes, "bytes")
    metrics["trace.overhead_s"] = (sum(lat) - sum(plain), "s")
    return metrics, {"untraced_wall_s": sum(plain), "traced_wall_s": sum(lat)}


def bench(workload: str, seed: int, seconds: float, trace: int) -> None:
    run = Run(workloads.WORKLOADS[workload](random.Random(seed)))
    known = known_failure(run) if workload == "dense" else 0
    if trace:
        metrics, info = traced(run)
        metrics["known_failures"] = (known, "count")
    else:
        metrics, info = timed(run, seconds)

    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    info.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        requests_per_pass=len(run.requests),
        known_failures=known,
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
