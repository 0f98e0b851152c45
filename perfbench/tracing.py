"""Per-layer tracing from outside the program.

:class:`Tracer` replaces masswell's public functions with timing
wrappers, under every name that any masswell module bound them to (a
module that did ``from .matching import mismatch`` holds its own
reference, so patching ``matching.mismatch`` alone would miss its
calls).  Each wrapper is keyed ``layer@module``, where ``module`` is the
module whose name was replaced; that is how the verdict's calls, made
through ``spectrum``'s own names, are told apart from the eigenvalue
scan's.  Spans are aggregated in memory as calls, inclusive time and
self time (inclusive time minus the time of traced calls inside it).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import masswell
from masswell import _rootscan, cli, matching, profiles, secular, spectrum, wavefunction

MODULES = (masswell, cli, spectrum, matching, secular, wavefunction, _rootscan, profiles)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.evals: dict[str, int] = defaultdict(int)
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, key: str, fn):
        stack, clock = self._stack, time.perf_counter
        calls, total, own = self.calls, self.total, self.own

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                calls[key] += 1
                total[key] += elapsed
                own[key] += elapsed - inner

        return span

    def _count(self, key: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _isolate(self, key: str, fn):
        """Span whose residual callback is a span too, counting points per scan."""
        evals, site = self.evals, key.split("@")[1]

        def isolate(f, *args, **kwargs):
            scans = []

            def residual(ts):
                n = int(np.size(ts))
                evals["rootscan.scan@" + site] += n
                if scans:
                    evals["rootscan.rescan@" + site] += n
                scans.append(n)
                return f(ts)

            return fn(self._span("rootscan.residual@" + site, residual), *args, **kwargs)

        return self._span(key, isolate)

    def _bisect(self, key: str, fn):
        evals = self.evals

        def bisect(f, *args, **kwargs):
            def residual(t):
                evals[key] += 1
                return f(t)

            return fn(residual, *args, **kwargs)

        return self._span(key, bisect)

    def _points(self, key: str, fn):
        """Span that also counts the points a vectorized residual is evaluated at."""
        evals = self.evals

        def points(self_, t, *args, **kwargs):
            evals[key] += int(np.size(t))
            return fn(self_, t, *args, **kwargs)

        return self._span(key, points)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "Tracer":
        targets = {
            id(fn): (layer, make)
            for fn, layer, make in (
                (_rootscan.isolate_sign_changes, "rootscan.isolate", self._isolate),
                (_rootscan.bisect_root, "rootscan.bisect", self._bisect),
                (matching.mismatch, "matching.mismatch", self._span),
                (matching.eigenvalues, "matching.eigenvalues", self._span),
                (matching.build_solution, "matching.build_solution", self._span),
                (spectrum.run_scenario, "spectrum.run_scenario", self._span),
                (spectrum.ground_state_staircase, "spectrum.staircase", self._span),
                (spectrum.delta_limit_study, "spectrum.delta_limit", self._span),
                (secular.find_roots, "secular.find_roots", self._span),
                (secular.critical_betas, "secular.critical_betas", self._span),
                (wavefunction.count_nodes, "wavefunction.count_nodes", self._span),
                (wavefunction.evaluate, "wavefunction.evaluate", self._span),
                (wavefunction.localization_fraction, "wavefunction.localization", self._span),
                (cli.main, "cli.main", self._span),
            )
        }
        for module in MODULES:
            site = module.__name__.rsplit(".", 1)[-1]
            for name, value in list(vars(module).items()):
                if id(value) in targets:
                    layer, make = targets[id(value)]
                    self._patch(module, name, make(f"{layer}@{site}", value))
        for law in (profiles.ConstantInner, profiles.TanhInner, profiles.StepInner, profiles.ScaledInner):
            self._patch(law, "value", self._count("profiles.inner_value", law.value))
        for branch in vars(secular).values():
            if isinstance(branch, type) and issubclass(branch, secular.SecularBranch):
                if "residual_raw" in vars(branch):
                    self._patch(branch, "residual_raw", self._points("secular.residual", branch.residual_raw))
                if "curve_pair" in vars(branch):
                    self._patch(branch, "curve_pair", self._span("secular.curve_pair", branch.curve_pair))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- per-layer figures -----------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures summed over every module a layer was called through."""

        def layer(table, name):
            return sum(v for k, v in table.items() if k.split("@")[0] == name)

        mismatch_calls = layer(self.calls, "matching.mismatch")
        mismatch_s = layer(self.total, "matching.mismatch")
        bisect_calls = layer(self.calls, "rootscan.bisect")
        scan_evals = layer(self.evals, "rootscan.scan")
        return {
            "matching.mismatch.calls": (mismatch_calls, "count"),
            "matching.mismatch.s": (mismatch_s, "s"),
            "matching.mismatch.us_per_call": (1e6 * mismatch_s / mismatch_calls if mismatch_calls else 0.0, "us"),
            "matching.eigenvalues.s": (layer(self.total, "matching.eigenvalues"), "s"),
            "matching.build_solution.calls": (layer(self.calls, "matching.build_solution"), "count"),
            "rootscan.isolate.calls": (layer(self.calls, "rootscan.isolate"), "count"),
            "rootscan.isolate.self_s": (layer(self.own, "rootscan.isolate"), "s"),
            "rootscan.scan_evals": (scan_evals, "count"),
            "rootscan.rescan_frac": (layer(self.evals, "rootscan.rescan") / scan_evals if scan_evals else 0.0, "frac"),
            "rootscan.bisect.calls": (bisect_calls, "count"),
            "rootscan.bisect.s": (layer(self.total, "rootscan.bisect"), "s"),
            "rootscan.bisect_evals_per_root": (
                layer(self.evals, "rootscan.bisect") / bisect_calls if bisect_calls else 0.0,
                "count",
            ),
            "spectrum.run_scenario.s": (layer(self.total, "spectrum.run_scenario"), "s"),
            "spectrum.verdict.s": (self.total["rootscan.isolate@spectrum"], "s"),
            "spectrum.verdict.evals": (self.calls["matching.mismatch@spectrum"], "count"),
            "spectrum.staircase.s": (layer(self.total, "spectrum.staircase"), "s"),
            "wavefunction.count_nodes.calls": (layer(self.calls, "wavefunction.count_nodes"), "count"),
            "wavefunction.count_nodes.s": (layer(self.total, "wavefunction.count_nodes"), "s"),
            "wavefunction.evaluate.calls": (layer(self.calls, "wavefunction.evaluate"), "count"),
            "wavefunction.localization.s": (layer(self.total, "wavefunction.localization"), "s"),
            "secular.find_roots.calls": (layer(self.calls, "secular.find_roots"), "count"),
            "secular.find_roots.s": (layer(self.total, "secular.find_roots"), "s"),
            "secular.residual.evals": (self.evals["secular.residual"], "count"),
            "secular.segments": (self.calls["rootscan.isolate@secular"], "count"),
            "profiles.inner_value.calls": (self.calls["profiles.inner_value"], "count"),
            "cli.self_s": (layer(self.own, "cli.main"), "s"),
        }
