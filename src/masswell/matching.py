"""Closed-form-free bound-state solver for arbitrary piecewise mass profiles.

Two one-sided solutions meet at the mass breakpoint x = -a: the outer
one grown from the wall (psi(-L) = 0) and the center one of the
requested parity (cos/cosh/1 for even, sin/sinh/x for odd).  An energy
is an eigenvalue when psi and psi' both match there.  They are matched
plainly, with NO 1/m weighting of the derivative: these models match
logarithmic derivatives directly, which deliberately departs from the
BenDaniel-Duke current-continuity convention common elsewhere in the
effective-mass literature.

Eigenvalues are the zeros in energy of :func:`seam_wronskian`, the
scaled Wronskian of the two solutions at x = -a.  It takes an array of
energies, never overflows, and is the residual that the level scan (in
s = sign(E) sqrt|E|) and the root refinement evaluate; :func:`mismatch` is its signed scalar form.
:func:`build_solution` assembles the state from the same two solutions, so wall and parity hold
exactly and only the seam sees the root tolerance; :func:`level_diagnostics` reads its node count
and localization at a level of :func:`levels` without building it.

Because nothing here assumes a closed form for the quantization
condition, this module doubles as the brute-force oracle for
:mod:`masswell.secular` and it is the only solver for odd parity.
"""

from __future__ import annotations

import math

import numpy as np

from ._rootscan import DEFAULT_TOL, integers_crossed, roots_in, scan_cells
from .profiles import MassProfile
from .wavefunction import PiecewiseWavefunction, RegionSolution, _value_slope, region_l2

__all__ = ["LINEAR_BAND", "build_solution", "level_diagnostics", "mismatch", "seam_wronskian", "levels",
           "eigenvalues", "winding"]

#: |m*E| below this switches a region to the exact linear limit; the trig
#: and hyperbolic forms lose precision as q -> 0 while c0 + c1 x is exact
LINEAR_BAND = 1e-12

_PARITY_SIGN = {"even": 1.0, "odd": -1.0}


def _parity_sign(parity: str) -> float:
    if parity not in _PARITY_SIGN:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _PARITY_SIGN[parity]


def _solution_kind(q2: float) -> tuple[str, float]:
    if q2 > LINEAR_BAND:
        return "trig", math.sqrt(q2)
    if q2 < -LINEAR_BAND:
        return "hyper", math.sqrt(-q2)
    return "linear", 0.0


def _seam_pieces(profile: MassProfile, energy: float, me: float, parity: str):
    """The parity sign, the outer piece on (-L, -a) and the center piece of :func:`build_solution`, m E = ``me``."""
    sign = _parity_sign(parity)
    geo = profile.geometry
    outer = RegionSolution(*_solution_kind(energy), -geo.L, 0.0, 1.0, (-geo.L, -geo.a))
    kind_i, q_i = _solution_kind(me)
    unit = (sign, 1.0) if kind_i == "hyper" else (1.0, 0.0) if sign > 0.0 else (0.0, 1.0)
    center = RegionSolution(kind_i, q_i, 0.0, *unit, (-geo.a, geo.a))
    (y_o, dy_o), (y, dy) = _value_slope(outer, -geo.a), _value_slope(center, -geo.a)
    # near a zero of y, dividing by it would amplify the seam leftover
    c = dy_o / dy if abs(dy) > 2.0 * q_i * abs(y) else y_o / y
    return sign, outer, center.scaled(c)


def build_solution(profile: MassProfile, energy: float, parity: str) -> PiecewiseWavefunction:
    """Solution candidate at any real energy, the pieces :func:`seam_wronskian` matches.

    The outer piece, sin k(x + L), x + L or sinh q(x + L) / sinh q(L - a),
    each stored as (0, 1), is mirrored by parity onto (a, L); one inner
    piece, c times cos/cosh/1 (even) or sin/sinh/x (odd) of qx, spans
    (-a, a), a hyperbolic one stored by its end values c (+-1, 1) (see
    :class:`RegionSolution`).  So psi(-L) = 0 and parity hold exactly at
    every energy, and every piece and slope stays within the float range.
    c makes psi continuous at -a, or psi' where the center solution's
    value y there is below half of |y'|/q, so the seam carries the
    leftover, which at an eigenvalue is the size of the root tolerance.
    Where |y| and |y'|/q are close, as at every even uniform-well level,
    psi continuity wins and psi stays single-valued at the seams.  The
    state is unnormalized.
    """
    sign, outer, center = _seam_pieces(profile, energy, profile.inner.value(energy) * energy, parity)
    return PiecewiseWavefunction(regions=(outer, center, outer.reflected(sign)), parity=parity, energy=energy)


def level_diagnostics(profile: MassProfile, energy: float, parity: str) -> tuple[int, float]:
    """``count_nodes`` and ``localization_fraction`` of :func:`build_solution`'s state at a level, without the state.

    There :func:`winding` rounds to an integer n, and the state has 2n nodes (even) or 2n - 1 (odd).  The
    mirror piece's L2 is the outer piece's, and the three add in ``localization_fraction``'s order.
    """
    me = float(profile.inner.value(energy)) * energy
    _, outer, center = _seam_pieces(profile, energy, me, parity)
    l2_out, l2_in = region_l2(outer), region_l2(center)
    return 2 * round(_winding(profile, energy, me, parity)) - (parity == "odd"), l2_in / (l2_out + l2_in + l2_out)


def mismatch(profile: MassProfile, energy: float, parity: str) -> float:
    """Signed seam residual at one energy; zero exactly at eigenvalues.

    It is :func:`seam_wronskian` times -1 for even and +1 for odd parity,
    which gives it the sign of psi'(0) (even) or psi(0) (odd) of the
    wall-grown solution continued through the seam.
    """
    return float(-_parity_sign(parity) * seam_wronskian(profile, energy, parity))


def _trig(qt, c=None, s=None, where=True):
    return np.cos(qt, out=c, where=where), np.sin(qt, out=s, where=where)


def _hyper(qt, c=None, s=None, where=True):
    return np.ones_like(qt) if c is None else c, np.tanh(qt, out=s, where=where)


def _scaled_basis(q2: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, S, -q2 S) at t: C is cos/cosh/1 and S is sin(qt)/q, sinh(qt)/q or t,
    the solutions with C(0) = 1, S'(0) = 1 and C' = -q2 S, S' = C.

    Hyperbolic values are divided by cosh(qt) > 0, so they enter only
    through tanh and stay bounded.  Kinds follow :func:`_solution_kind`;
    :func:`_trig` and :func:`_hyper` give C and q S on the whole array when
    all entries share a kind, else under each kind's mask, same per entry.
    """
    q2 = np.asarray(q2, dtype=float)
    trig, hyper = q2 > LINEAR_BAND, q2 < -LINEAR_BAND
    q = np.sqrt(np.abs(q2))
    qt = q * t
    for kind, where in ((_trig, trig), (_hyper, hyper)):
        if np.count_nonzero(where) == q2.size:
            c, s = kind(qt)
            s = s / q
            return c, s, -q2 * s
    c, s, dc = np.ones_like(q2), np.full_like(q2, t), np.zeros_like(q2)
    _trig(qt, c, s, trig)
    _hyper(qt, c, s, hyper)
    solved = trig | hyper
    np.divide(s, q, out=s, where=solved)
    np.multiply(-q2, s, out=dc, where=solved)
    return c, s, dc


def seam_wronskian(profile: MassProfile, energies, parity: str) -> np.ndarray:
    """Scaled Wronskian psi_out psi_in' - psi_out' psi_in at x = -a, elementwise.

    psi_out is grown from the wall (psi(-L) = 0, psi'(-L) = 1) and psi_in
    from the center with the parity imposed (C for even, S for odd; see
    :func:`_scaled_basis`).  Each side is divided by its own positive
    scale, so the result is finite at every finite energy.  It vanishes
    exactly at the eigenvalues and has the sign of -mismatch for even and
    +mismatch for odd parity.
    """
    sign = _parity_sign(parity)
    energies = np.asarray(energies, dtype=float)
    geo = profile.geometry
    c_o, s_o, _ = _scaled_basis(energies, geo.L - geo.a)
    c_i, s_i, dc_i = _scaled_basis(profile.inner.value(energies) * energies, geo.a)
    # at -a the even center solution and its slope are (c_i, -dc_i), the odd ones (-s_i, c_i)
    if sign > 0.0:
        return -s_o * dc_i - c_o * c_i
    return s_o * c_i + c_o * s_i


def _prufer(q2: float, t: float, start: float) -> float:
    """Pruefer angle theta (tan theta = psi / psi') at t of psi = S (start 0) or C (start pi/2) of
    :func:`_scaled_basis`.  A trig one's scaled angle phi (tan phi = q tan theta) is start + q t, and
    theta = phi + atan((1/q - 1) sin phi cos phi / (cos^2 phi + sin^2 phi / q)) has no branch cut;
    any other stays in [0, pi/2], where theta is atan2 of its value and slope."""
    kind, q = _solution_kind(q2)
    if kind == "trig":
        phi = start + q * t
        c, s = math.cos(phi), math.sin(phi)
        return phi + math.atan((1.0 / q - 1.0) * s * c / (c * c + s * s / q))
    qs = math.tanh(q * t) if kind == "hyper" else t  # q S / C, or S where q = 0
    return math.atan2(qs, q or 1.0) if start == 0.0 else math.atan2(1.0, q * qs)


def winding(profile: MassProfile, energy: float, parity: str) -> float:
    """(theta_out - theta_in) / pi at x = -a, an integer exactly where :func:`seam_wronskian` vanishes.

    theta_out is the wall-grown solution's Pruefer angle (:func:`_prufer`), 0 at -L.  theta_in is the
    center solution's, and x -> -x negates an angle: it is pi - _prufer(m E, a, pi/2) (even) or
    -_prufer(m E, a, 0) (odd).  The integers it crosses on one stretch of ``profile.pieces`` are a
    lower bound on the levels there, and their number wherever it is monotone, as for positive mass
    by Sturm's argument.  Scalar ``math``.
    """
    return _winding(profile, energy, float(profile.inner.value(energy)) * energy, parity)


def _winding(profile: MassProfile, energy: float, me: float, parity: str) -> float:
    sign = _parity_sign(parity)
    geo = profile.geometry
    outer = _prufer(energy, geo.L - geo.a, 0.0)
    inner = _prufer(me, geo.a, math.pi / 2.0 if sign > 0.0 else 0.0)
    return (outer + inner) / math.pi - (sign > 0.0)


def _below_break(profile: MassProfile, energy: float) -> float:
    """``energy``, or 1e-13 max(1, |energy|) below it at a break, where the stretch under the break stops."""
    return energy - 1e-13 * max(1.0, abs(energy)) if energy in profile.inner.breaks else energy


def _level_scan(profile: MassProfile, lo: float, hi: float, parity: str):
    """The level scan of [lo, hi]: its residual, segments in s = sign(E) sqrt|E|, phases and level count.

    Consecutive levels are about evenly spaced in s (Pruefer's angle
    argument), so they cannot crowd into one sample cell toward E = 0 or
    deep in the window.  The residual is :func:`seam_wronskian` at
    E = s|s|.  Segments are the stretches (e0, e1, r) of ``profile.pieces``,
    cut where it can kink (E = 0) or jump (at each of the inner law's
    ``breaks``); a stretch owns its lower end, so the segment below a break
    stops a hair earlier to stay on the lower branch.  Each end is then
    mapped to s and stepped inward until s|s| lies in its energy segment,
    so no sample crosses a cut; once :func:`masswell._rootscan.scan_cells`
    has sized the scan, :func:`winding` counts the levels between those ends.  A segment's phase is
    (L - a)(max(s1, 0) - max(s0, 0)) + a r (s1 - s0): an inner region with
    r = 0 is hyperbolic or linear and turns through no phase.
    """

    def residual(s):
        return seam_wronskian(profile, s * np.abs(s), parity)

    geo = profile.geometry
    segments, phases = [], []
    for e0, e1, rate in profile.pieces(lo, hi):
        e1 = _below_break(profile, e1)
        s0, s1 = math.copysign(math.sqrt(abs(e0)), e0), math.copysign(math.sqrt(abs(e1)), e1)
        while s0 * abs(s0) < e0:
            s0 = math.nextafter(s0, math.inf)
        while s1 * abs(s1) > e1:
            s1 = math.nextafter(s1, -math.inf)
        if s1 > s0:
            segments.append((s0, s1))
            phases.append((geo.L - geo.a) * (max(s1, 0.0) - max(s0, 0.0)) + geo.a * rate * (s1 - s0))
    scan_cells(phases, f"window {lo!r}:{hi!r}")
    count = sum(integers_crossed(*(winding(profile, s * abs(s), parity) for s in ends)) for ends in segments)
    return residual, segments, phases, count


def levels(profile: MassProfile, window: tuple[float, float], parity: str, tol: float = DEFAULT_TOL) -> list[float]:
    """All eigenvalues in the window, ascending.

    Each segment of :func:`_level_scan` is scanned as densely as its phase
    asks (:func:`masswell._rootscan.roots_in`) and every isolated sign change
    is refined in s to tol / (2 sqrt(max |E|)), so each energy is within
    ``tol`` (floored near machine relative precision).  Fewer levels than :func:`winding` counts
    raise ``ScanResolutionError``, too wide a window ``ScanSizeError`` and too coarse a tol ``ValueError``.
    """
    lo, hi = window
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"require finite lo < hi, got {lo!r}, {hi!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    tol_s = tol / (2.0 * math.sqrt(max(abs(lo), abs(hi))))
    return [s * abs(s) for s in roots_in(*_level_scan(profile, lo, hi, parity), tol_s)]


def eigenvalues(
    profile: MassProfile, window: tuple[float, float], parity: str, tol: float = DEFAULT_TOL
) -> list[tuple[float, PiecewiseWavefunction]]:
    """(energy, state) pairs for :func:`levels`, the states unnormalized from :func:`build_solution`: node
    counts and localization do not depend on the scale, and :func:`level_diagnostics` reads both without them."""
    return [(e, build_solution(profile, e, parity)) for e in levels(profile, window, parity, tol)]
