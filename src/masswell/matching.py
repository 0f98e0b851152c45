"""Closed-form-free bound-state solver for arbitrary piecewise mass profiles.

The half-well solution is grown from the wall: the outer piece vanishes
at x = -L by construction and continuity of psi and psi' at the mass
breakpoint x = -a fixes the inner piece.  Both psi and psi' are matched
plainly, with NO 1/m weighting of the derivative: these models match
logarithmic derivatives directly, which deliberately departs from the
BenDaniel-Duke current-continuity convention common elsewhere in the
effective-mass literature.  The parity condition at the center is not
imposed; its amplitude-normalized residual (:func:`mismatch`) is the
quantity whose zeros in energy are the eigenvalues.

Because nothing here assumes a closed form for the quantization
condition, this module doubles as the brute-force oracle for
:mod:`masswell.secular` and it is the only solver for odd parity.
"""

from __future__ import annotations

import math

import numpy as np

from ._rootscan import ScanResolutionError, roots_in
from .profiles import MassProfile
from .wavefunction import PiecewiseWavefunction, RegionSolution, region_abs_max, region_l2

__all__ = [
    "LINEAR_BAND",
    "RegionSolution",
    "ScanResolutionError",
    "build_solution",
    "mismatch",
    "eigenvalues",
]

#: |m*E| below this switches a region to the exact linear limit; the trig
#: and hyperbolic forms lose precision as q -> 0 while c0 + c1 x is exact
LINEAR_BAND = 1e-12

_PARITY_SIGN = {"even": 1.0, "odd": -1.0}


def _solution_kind(q2: float) -> tuple[str, float]:
    if q2 > LINEAR_BAND:
        return "trig", math.sqrt(q2)
    if q2 < -LINEAR_BAND:
        return "hyper", math.sqrt(-q2)
    return "linear", 0.0


def _basis_at(kind: str, q: float, t: float) -> tuple[float, float, float, float]:
    """(u, u', v, v') at local coordinate t, with u(0)=1, u'(0)=0, v(0)=0."""
    if kind == "trig":
        c, s = math.cos(q * t), math.sin(q * t)
        return c, -q * s, s, q * c
    if kind == "hyper":
        ch, sh = math.cosh(q * t), math.sinh(q * t)
        return ch, q * sh, sh, q * ch
    return 1.0, 0.0, t, 1.0


def _half_solution(profile: MassProfile, energy: float) -> tuple[RegionSolution, RegionSolution]:
    """Outer and inner pieces on [-L, 0] with psi(-L) = 0 and exact matching at -a."""
    geo = profile.geometry
    kind_o, q_o = _solution_kind(profile.outer_mass * energy)
    outer = RegionSolution(kind_o, q_o, -geo.L, 0.0, 1.0, (-geo.L, -geo.a))

    # outer value and slope where the mass jumps
    _, _, val, slo = _basis_at(kind_o, q_o, geo.L - geo.a)

    kind_i, q_i = _solution_kind(profile.inner.value(energy) * energy)
    u, du, v, dv = _basis_at(kind_i, q_i, -geo.a)
    wronskian = q_i if kind_i != "linear" else 1.0
    a_in = (val * dv - slo * v) / wronskian
    b_in = (slo * u - val * du) / wronskian
    inner = RegionSolution(kind_i, q_i, 0.0, a_in, b_in, (-geo.a, 0.0))
    return outer, inner


def build_solution(profile: MassProfile, energy: float, parity: str) -> PiecewiseWavefunction:
    """Solution candidate at any real energy, extended over (-L, L) by parity.

    The wall condition at -L and the matching at -a hold exactly by
    construction; the parity condition at x = 0 is in general violated,
    and its residual is what :func:`mismatch` reports.  The returned
    state is unnormalized; its ``norm`` field carries the L2 norm.
    """
    sign = _PARITY_SIGN[parity]
    outer, inner = _half_solution(profile, energy)
    regions = (outer, inner, inner.reflected(sign), outer.reflected(sign))
    norm = math.sqrt(2.0 * (region_l2(outer) + region_l2(inner)))
    return PiecewiseWavefunction(regions=regions, parity=parity, energy=energy, norm=norm)


def mismatch(profile: MassProfile, energy: float, parity: str) -> float:
    """Scaled parity residual at the center; zero exactly at eigenvalues.

    Even states require psi'(0) = 0 and odd states psi(0) = 0.  The raw
    residual is divided by the maximum amplitude of the half-well
    solution, so rescaling the solution leaves the zero set unchanged.
    """
    if parity not in _PARITY_SIGN:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    outer, inner = _half_solution(profile, energy)
    if parity == "even":
        scale_v = inner.q if inner.kind != "linear" else 1.0
        residual = inner.b_coef * scale_v
    else:
        residual = inner.a_coef
    amplitude = max(region_abs_max(outer), region_abs_max(inner))
    return residual / amplitude


def _segment_bounds(profile: MassProfile, lo: float, hi: float) -> list[tuple[float, float]]:
    """Scan segments split where the mismatch can kink (E = 0) or jump (step).

    The step law takes its negative branch at the threshold itself, so
    the segment above the threshold starts exactly there while the
    segment below stops a hair earlier to stay on the positive branch.
    """
    cuts = {lo, hi}
    if lo < 0.0 < hi:
        cuts.add(0.0)
    thr = profile.threshold
    if thr is not None and lo < thr < hi:
        cuts.add(thr)
    bounds = sorted(cuts)
    segments = []
    for s0, s1 in zip(bounds, bounds[1:]):
        if thr is not None and s1 == thr:
            s1 = thr - 1e-13 * max(1.0, abs(thr))
        if s1 > s0:
            segments.append((s0, s1))
    return segments


def eigenvalues(
    profile: MassProfile,
    window: tuple[float, float],
    parity: str,
    tol: float = 1e-12,
) -> list[tuple[float, PiecewiseWavefunction]]:
    """All eigenvalues in the window with their normalized wavefunctions.

    Each window segment is scanned at 512 samples with the rescan
    stability guard, and every isolated sign change of the mismatch is
    bisected to ``tol`` in energy (floored near machine relative
    precision).  Returns (energy, state) pairs sorted by energy.
    """
    lo, hi = window
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"require finite lo < hi, got {lo!r}, {hi!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if parity not in _PARITY_SIGN:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")

    def f_vec(es):
        return np.array([mismatch(profile, float(e), parity) for e in np.atleast_1d(es)])

    def f_scalar(e):
        return mismatch(profile, float(e), parity)

    roots = roots_in(f_vec, f_scalar, _segment_bounds(profile, lo, hi), 512, tol)
    return [(e, build_solution(profile, e, parity).normalized()) for e in roots]
