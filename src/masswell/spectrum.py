"""Scenario-level spectral reports, threshold staircases and the delta limit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._rootscan import bracket_roots, integers_crossed
from .matching import _below_break, level_diagnostics, levels, winding
from .profiles import MassProfile, WellGeometry
from .secular import DEFAULT_TOL, TwoParamNeg, critical_betas, reduced_kappa1

__all__ = [
    "Level",
    "Verdict",
    "SpectrumReport",
    "StaircaseStep",
    "DeltaLimitRow",
    "run_scenario",
    "ground_state_staircase",
    "delta_limit_study",
]

# growth-probe windows in kappa for the boundedness verdict at the inner level
# spacing pi (a sqrt|m| = 1); _probe_kappas scales them to the spacing of the
# profile's own inner law and moves them past its lowest break
PROBE_KAPPA_SMALL = 10.0
PROBE_KAPPA_LARGE = 40.0


@dataclass(frozen=True)
class Level:
    energy: float
    parity: str
    nodes: int
    localization: float


@dataclass(frozen=True)
class Verdict:
    """Boundedness-below call: 'bounded_below', 'unbounded_below' or 'empty'.

    An unbounded verdict follows from the inner law below its lowest break
    and carries the root-count growth that shows it at two probe energies,
    wherever the probes can represent that growth; otherwise ``evidence`` is None.
    """

    kind: str
    evidence: Optional[dict] = None


@dataclass(frozen=True)
class SpectrumReport:
    profile: MassProfile
    window: tuple[float, float]
    parities: tuple[str, ...]
    levels: tuple[Level, ...]
    verdict: Verdict


class StaircaseStep(NamedTuple):
    beta: float
    negative_count: int
    ground_state_nodes: int


@dataclass(frozen=True)
class DeltaLimitRow:
    nu: float
    a: float
    b: float
    leftmost_root: float
    second_root: float
    reduced_fixed_point: float


def _probe_kappas(geo: WellGeometry, pieces: list) -> tuple[float, float, float]:
    """The verdict's probes K1 < K2 in kappa = sqrt(-E) and the inner level spacing.

    Both probes lie past kappa_0 = kappa_b (1 + 1e-9), where -kappa_b^2 is
    the inner law's lowest break below E = 0 (kappa_b = 0 if none), by
    10/pi and 40/pi inner level spacings pi / (a r), with -kappa_b^2 and the
    inner rate r = sqrt|m| taken from the lowest of ``pieces``, the
    profile's :meth:`~masswell.profiles.MassProfile.pieces` below E = 0.
    Where r = 0 (m >= 0), wherever a r = 1 (every preset), and where -K2^2
    would leave the float range, the probes are kappa_0 + 10 and
    kappa_0 + 40.
    """
    _, e_b, rate = pieces[0]
    kappa_0 = math.sqrt(-e_b) * (1.0 + 1e-9)
    scale = geo.a * rate or 1.0
    k2 = kappa_0 + PROBE_KAPPA_LARGE / scale
    if not k2 * k2 < math.inf:
        scale = 1.0
    return kappa_0 + PROBE_KAPPA_SMALL / scale, kappa_0 + PROBE_KAPPA_LARGE / scale, math.pi / scale


def _levels_from(profile: MassProfile, pieces: list, parity: str, kappa: float) -> int:
    """Levels with kappa = sqrt(-E) in (0, kappa] that :func:`masswell.matching.winding` crosses on
    ``pieces``, the profile's stretches below E = 0, cut at -kappa^2 and ended as :func:`masswell.matching.levels`
    ends them; with inner rate r = 0 both sides of the seam are hyperbolic or linear, and hold no level.
    With no margin, a level on an end counts."""
    lo = -kappa * kappa
    ends = [(max(e0, lo), _below_break(profile, e1)) for e0, e1, rate in pieces if rate > 0.0 and e1 > lo]
    return sum(integers_crossed(*(winding(profile, e, parity) for e in pair), 0.0) for pair in ends)


def _boundedness_verdict(profile: MassProfile, parities: Sequence[str], have_levels: bool) -> Verdict:
    """Unbounded below exactly where the lowest stretch below E = 0 has inner rate r > 0: there the inner
    region oscillates at every lower energy, a r kappa / pi times over, so the levels never end.  The
    probes' level counts are its evidence where they grow as the rate asks; they cannot where the probes
    fall back or round together (a r below about 1e-153, or kappa past about 1e18)."""
    pieces = profile.pieces(-math.inf, 0.0)
    if not pieces[0][2] > 0.0:
        return Verdict("bounded_below" if have_levels else "empty")
    k1, k2, spacing = _probe_kappas(profile.geometry, pieces)
    counts = [(_levels_from(profile, pieces, p, k1), _levels_from(profile, pieces, p, k2)) for p in parities]
    required = max(1, math.floor((k2 - k1) / spacing) - 1)
    if counts and all(large - small >= required for small, large in counts):
        return Verdict(
            "unbounded_below",
            evidence={
                "kappa_window_small": k1,
                "count_small": sum(small for small, _ in counts),
                "kappa_window_large": k2,
                "count_large": sum(large for _, large in counts),
                "required_growth": required,
            },
        )
    return Verdict("unbounded_below")


def _levels_by_energy(
    profile: MassProfile, window: tuple[float, float], parities: Sequence[str], tol: float
) -> list[tuple[float, str]]:
    """(energy, parity) for every level in the window, sorted by energy.

    Each energy is within ``tol`` of its level, floored at 8 ulp in
    s = sign(E) sqrt|E|, so two computed energies closer than
    max(2 tol, 32 ulp(E)) may sit in either order whatever the levels'
    own order (a deep even/odd pair split by 1e-17, say).  Each run of
    levels that close prints in the order of ``parities`` instead, which
    the root refinement cannot change.
    """
    found = sorted((e, i) for i, parity in enumerate(parities) for e in levels(profile, window, parity, tol))
    run, previous, keys = 0, -math.inf, []
    for energy, rank in found:
        run += energy - previous > max(2.0 * tol, 32.0 * math.ulp(energy))
        previous = energy
        keys.append((run, rank, energy))
    return [(energy, parities[rank]) for _, rank, energy in sorted(keys)]


def run_scenario(
    profile: MassProfile,
    window: tuple[float, float],
    parities: Sequence[str] = ("even", "odd"),
    tol: float = DEFAULT_TOL,
) -> SpectrumReport:
    """Enumerate the spectrum in the window and attach per-level diagnostics.

    Negative energies below a step threshold are handled by the honest
    energy dependence of the mass itself: below the threshold the inner
    mass is +1 and the matching solver finds nothing there, which is the
    admissibility cut kappa <= beta in disguise.
    """
    found = [
        Level(energy, parity, *level_diagnostics(profile, energy, parity))
        for energy, parity in _levels_by_energy(profile, window, parities, tol)
    ]
    verdict = _boundedness_verdict(profile, parities, bool(found))
    return SpectrumReport(profile, (float(window[0]), float(window[1])), tuple(parities), tuple(found), verdict)


def ground_state_staircase(
    L: float,
    beta_max: float,
    steps: int,
    tol: float = DEFAULT_TOL,
) -> list[StaircaseStep]:
    """Admissible negative-level count and ground-state node count along beta.

    Uses the canonical inner half-width a = 1.  The admissibility rule is
    kappa <= beta with the boundary admitted, so counts jump exactly at
    the critical beta values, those of :func:`critical_betas`.  With n
    levels admitted the ground state has 2 max(n - 1, 0) nodes, which the
    tests check against the matching solver.  It sits at root j = n - 1,
    on (j pi + pi/4, j pi + pi/2), so its inner cos(kappa x) has 2 j zeros
    on (-1, 1) and none at -1 or 1, its hyperbolic outer pieces have none,
    and psi is continuous and nonzero at the seams.  With n = 0 it is the
    lowest positive level, whose inner cosh(k x) has no zeros, nor has its
    outer sin(k (L - |x|)): u = k (L - 1) lies in (pi/2, pi), as the
    matching residual sin(u) tanh(k) + cos(u) is positive for u <= pi/2
    and -1 at u = pi.
    """
    if not beta_max > 0.0:
        raise ValueError(f"require beta_max > 0, got {beta_max!r}")
    if steps < 1:
        raise ValueError(f"require steps >= 1, got {steps!r}")
    geometry = WellGeometry(L, 1.0)
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    # a beta placed on a root is known to tol, as the root is: 2 tol is the boundary
    slack = 2.0 * tol
    # critical value j lies on (j pi + pi/4, j pi + pi/2)
    branches = math.floor((beta_max + slack) / math.pi - 0.25) + 1
    neg_roots = critical_betas(geometry, branches, tol=tol) if branches > 0 else []
    betas = beta_max * np.arange(1, steps + 1) / steps
    counts = np.searchsorted(neg_roots, betas + slack, side="right")
    nodes = 2 * np.maximum(counts - 1, 0)
    return list(map(StaircaseStep, betas.tolist(), counts.tolist(), nodes.tolist()))


def delta_limit_study(
    b_over_nu: float,
    L: float,
    nus: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> list[DeltaLimitRow]:
    """Track the two lowest kappa roots of the full two-parameter equation
    along the deep-narrow sequence nu -> 0 at fixed b/nu.

    Each nu gives (a, b) = (b_over_nu * nu**2, b_over_nu * nu).  The
    leftmost root converges to the reduced fixed point while the second
    root grows like pi/nu and escapes to infinity.  The
    :class:`TwoParamNeg` turns rise from -1/2 at kappa = 0, so these are
    its roots 0 and 1, each refined to ``tol`` from its bracket.
    """
    if not b_over_nu > 0.0:
        raise ValueError(f"require b/nu > 0, got {b_over_nu!r}")
    kappa1 = reduced_kappa1(b_over_nu, L, tol=min(tol, DEFAULT_TOL))
    rows: list[DeltaLimitRow] = []
    for nu in nus:
        if not nu > 0.0:
            raise ValueError(f"require nu > 0, got {nu!r}")
        b = b_over_nu * nu
        a = nu * b
        if not a < L:
            raise ValueError(f"inner half-width a = {a!r} does not fit inside L = {L!r}")
        branch = TwoParamNeg(WellGeometry(L, a), b=b, nu=nu)
        first, second = bracket_roots(branch.residual_raw, *branch.brackets(np.arange(2)), tol)
        rows.append(DeltaLimitRow(nu, a, b, first, second, kappa1))
    return rows
