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
scaled Wronskian of the two solutions at x = -a.  It takes a float or an
array of energies, never overflows, and is the residual that :func:`levels`
refines in s = sign(E) sqrt|E|, each level from its own cell between the
poles of the closed-form matching condition; :func:`mismatch` is its signed scalar form.
:func:`build_solution` assembles the state from the same two solutions, so wall and parity hold
exactly and only the seam sees the root tolerance; :func:`level_diagnostics` reads its node count
and localization at a level of :func:`levels` without building it.

The residual assumes no closed form for the quantization condition (the
brackets read only where its two sides have poles), so this module
doubles as the brute-force oracle for :mod:`masswell.secular` and it is
the only solver for odd parity.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import _rootscan
from ._rootscan import _MAX_POINTS, DEFAULT_TOL, ScanResolutionError, check_count
from .profiles import MassProfile
from .wavefunction import PiecewiseWavefunction, RegionSolution, _value_slope, region_l2

__all__ = ["LINEAR_BAND", "build_solution", "level_diagnostics", "mismatch", "seam_wronskian", "levels",
           "eigenvalues", "winding"]

#: |m*E| below this switches a region to the exact linear limit; the trig
#: and hyperbolic forms lose precision as q -> 0 while c0 + c1 x is exact
LINEAR_BAND = 1e-12

_PARITY_SIGN = {"even": 1.0, "odd": -1.0}

#: the 9 points that cut a level bracket into 8 equal parts, as fractions of its width
_EIGHTHS = np.arange(9) / 8.0

#: the message of the ScanResolutionError raised where a level bracket that must hold a level does not
_NO_LEVEL = "the bracket s = {!r}:{!r} holds no level, though it must hold one"


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
    """C = cos(qt) and q S = sin(qt): through ``math`` for a finite float, else numpy into ``c`` and ``s`` under
    ``where`` (``math`` raises at inf, where numpy gives nan)."""
    if isinstance(qt, float) and qt < math.inf:
        return math.cos(qt), math.sin(qt)
    return np.cos(qt, out=c, where=where), np.sin(qt, out=s, where=where)


def _hyper(qt, c=None, s=None, where=True):
    """C and q S divided by cosh(qt), 1 and tanh(qt), as :func:`_trig`, but numpy's tanh for a float too."""
    if isinstance(qt, float):
        return 1.0, float(np.tanh(qt))
    return np.ones_like(qt) if c is None else c, np.tanh(qt, out=s, where=where)


def _scaled_basis(q2, t: float) -> tuple:
    """(C, S, -q2 S) at t: C is cos/cosh/1 and S is sin(qt)/q, sinh(qt)/q or t,
    the solutions with C(0) = 1, S'(0) = 1 and C' = -q2 S, S' = C.

    Hyperbolic values are divided by cosh(qt) > 0, so they enter only
    through tanh and stay bounded.  Kinds follow :func:`_solution_kind`;
    :func:`_trig` and :func:`_hyper` give C and q S of a float, of the whole
    array when all entries share a kind, else under each kind's mask, the
    same per entry either way.  A float goes through ``math``'s cos and
    sin, which agree with numpy's wherever numpy uses the platform's libm,
    and numpy's tanh, as ``math.tanh`` can differ from it in the last bit.
    """
    if isinstance(q2, float):
        kind = _trig if q2 > LINEAR_BAND else _hyper if q2 < -LINEAR_BAND else None
        if kind is None:
            return 1.0, t, 0.0
        q = math.sqrt(abs(q2))
    else:
        q2 = np.asarray(q2, dtype=float)
        trig, hyper = q2 > LINEAR_BAND, q2 < -LINEAR_BAND
        kind = _trig if np.count_nonzero(trig) == q2.size else _hyper if np.count_nonzero(hyper) == q2.size else None
        q = np.sqrt(np.abs(q2))
        if kind is None:
            qt = q * t
            c, s, dc = np.ones_like(q2), np.full_like(q2, t), np.zeros_like(q2)
            _trig(qt, c, s, trig)
            _hyper(qt, c, s, hyper)
            solved = trig | hyper
            np.divide(s, q, out=s, where=solved)
            np.multiply(-q2, s, out=dc, where=solved)
            return c, s, dc
    c, s = kind(q * t)
    s = s / q
    return c, s, -q2 * s


def seam_wronskian(profile: MassProfile, energies, parity: str):
    """Scaled Wronskian psi_out psi_in' - psi_out' psi_in at x = -a, elementwise: a float for a
    float, else an array.

    psi_out is grown from the wall (psi(-L) = 0, psi'(-L) = 1) and psi_in
    from the center with the parity imposed (C for even, S for odd; see
    :func:`_scaled_basis`).  Each side is divided by its own positive
    scale, so the result is finite at every finite energy.  It vanishes
    exactly at the eigenvalues and has the sign of -mismatch for even and
    +mismatch for odd parity.  A float takes the same closed forms in scalar
    ``math`` and gives the value of its entry in an array.
    """
    sign = _parity_sign(parity)
    if not isinstance(energies, float):
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


def _stretches(profile: MassProfile, lo: float, hi: float) -> list[tuple[float, float, float]]:
    """(s0, s1, r) in s = sign(E) sqrt|E| per stretch (e0, e1, r) of ``profile.pieces``, each end stepped inward
    until s|s| lies in its stretch, one below a break stopping a hair under it, and empty ones dropped."""
    out = []
    for e0, e1, rate in profile.pieces(lo, hi):
        e1 = _below_break(profile, e1)
        s0, s1 = math.copysign(math.sqrt(abs(e0)), e0), math.copysign(math.sqrt(abs(e1)), e1)
        while s0 * abs(s0) < e0:
            s0 = math.nextafter(s0, math.inf)
        while s1 * abs(s1) > e1:
            s1 = math.nextafter(s1, -math.inf)
        if s1 > s0:
            out.append((s0, s1, rate))
    return out


def _pole_ranges(profile: MassProfile, lo: float, hi: float, parity: str):
    """The poles that bound the cells of [lo, hi], one level each (README, the matching route's pole cells), and the
    bound sum c (s1 - s0) / pi + 2 on the cells, checked first.  One (up, t0, t1, ranges) per stretch (s0, s1, r)
    of :func:`_stretches`: ``up`` where s0 >= 0, t0:t1 in k = |s| and the (c, off, j0, j1) of the poles (j pi + off)
    / c, j0 <= j < j1, that its cells need; with d = L - a, those of cot(k d) where E > 0 (the outer region
    oscillates), and where r > 0 (the inner one does) those of tan(r k a) (even) or cot(r k a) (odd)."""
    geo = profile.geometry
    inner = 0.5 * math.pi * (_parity_sign(parity) > 0.0)
    rules = []
    for s0, s1, r in _stretches(profile, lo, hi):
        # below c = 1e-300 the first pole lies past every s, which is at most sqrt(1.8e308)
        rates = [(c, off) for c, off in (((geo.L - geo.a) * (s0 >= 0.0), 0.0), (geo.a * r, inner)) if c > 1e-300]
        if rates:
            rules.append((s0, s1, rates))
    count = sum(c * (s1 - s0) / math.pi + 2.0 for s0, s1, rates in rules for c, _ in rates)
    check_count(count, f"the window {lo!r}:{hi!r}")
    ranges = []
    for s0, s1, rates in rules:
        t0, t1 = (s0, s1) if s0 >= 0.0 else (-s1, -s0)
        progressions = []
        for c, off in rates:
            # j from 1 where off = 0, as the cells start at the pole 0; one pole past each end, so rounding drops none
            j0 = max(math.floor((c * t0 - off) / math.pi) - 1, int(off == 0.0))
            progressions.append((c, off, j0, math.ceil((c * t1 - off) / math.pi) + 2))
        ranges.append((s0 >= 0.0, t0, t1, progressions))
    return ranges, count


def _level_brackets(profile: MassProfile, ranges):
    """(lo, hi, cut) in s, arrays with one bracket per cell of :func:`_pole_ranges`, ``cut`` where it is cut to its
    stretch (its level may lie outside).  Where neighbouring poles of the two sides are closer than 2e-12 k L /
    min(a, d), the level between them may lie within 1e-12 k of one, where the seam Wronskian's sign is not sure,
    so both move 1e-12 k apart."""
    geo = profile.geometry
    d = geo.L - geo.a
    brackets = [(np.empty(0), np.empty(0), np.empty(0, dtype=bool))]
    for up, t0, t1, progressions in ranges:
        p, side = [np.zeros(1)], [np.zeros(1)]
        for n, (c, off, j0, j1) in enumerate(progressions, 1):
            j = np.arange(j0, j1)
            p.append(j * (math.pi / c) + off / c)
            side.append(np.full(j.size, n))
        order = np.argsort(np.concatenate(p))
        p, side = np.concatenate(p)[order], np.concatenate(side)[order]
        # neighbours from the two sides whose level lies within 1e-12 k of either: both move 1e-12 k away from it
        h = 1e-12 * p
        close = np.flatnonzero((side[:-1] != side[1:]) & (np.diff(p) < 2.0 * geo.L / min(geo.a, d) * h[1:]))
        if close.size:
            p[close] -= h[close]
            p[close + 1] += h[close + 1]
        # the cells (p[k], p[k + 1]) that overlap (t0, t1); only the first and the last can stick out of it
        k0, k1 = np.searchsorted(p, t0, side="right") - 1, np.searchsorted(p, t1)
        a, b, cut = p[k0:k1].copy(), p[k0 + 1 : k1 + 1].copy(), np.zeros(k1 - k0, dtype=bool)
        cut[0] |= a[0] < t0
        cut[-1] |= b[-1] > t1
        a[0], b[-1] = max(a[0], t0), min(b[-1], t1)
        brackets.append((a, b, cut) if up else (-b, -a, cut))
    return [np.concatenate(parts) for parts in zip(*brackets)]


def _level_cells(profile: MassProfile, ranges) -> list[tuple[float, float, bool]]:
    """:func:`_level_brackets` as (lo, hi, cut) in Python floats, by the same arithmetic, so bit for bit the same:
    a stable sort orders two equal poles by side, which only a tie within 2e-12 k of a third pole could tell."""
    geo = profile.geometry
    cells = []
    for up, t0, t1, progressions in ranges:
        poles = [(0.0, 0)]
        for n, (c, off, j0, j1) in enumerate(progressions, 1):
            poles += [(j * (math.pi / c) + off / c, n) for j in range(j0, j1)]
        p, side = map(list, zip(*sorted(poles)))
        h, near = [1e-12 * x for x in p], 2.0 * geo.L / min(geo.a, geo.L - geo.a)
        close = [k for k in range(len(p) - 1) if side[k] != side[k + 1] and p[k + 1] - p[k] < near * h[k + 1]]
        for k in close:
            p[k] -= h[k]
        for k in close:
            p[k + 1] += h[k + 1]
        k0, k1 = bisect.bisect_right(p, t0) - 1, bisect.bisect_left(p, t1)
        a, b, cut = p[k0:k1], p[k0 + 1 : k1 + 1], [False] * (k1 - k0)
        cut[0] |= a[0] < t0
        cut[-1] |= b[-1] > t1
        a[0], b[-1] = max(a[0], t0), min(b[-1], t1)
        cells += zip(a, b, cut) if up else [(-y, -x, c) for x, y, c in zip(a, b, cut)]
    return cells


def _sign(f: float) -> int:
    return (f > 0.0) - (f < 0.0)


def _first_eighth(residual, a: float, b: float, cut: bool):
    """One of the 8 equal parts of the cell [a, b] whose ends differ in sign or hold a 0, the first where the signs
    change once, and its residuals, from a, b and three halvings; None for a cut cell with one sign at both ends."""
    t = [(b - a) * (k / 8) + a for k in range(8)] + [b]
    lo, hi, f_lo, f_hi = 0, 8, float(residual(t[0])), float(residual(b))
    if _sign(f_lo) * _sign(f_hi) > 0:
        if cut:
            return None
        raise ScanResolutionError(_NO_LEVEL.format(a, b))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f_mid = float(residual(t[mid]))
        if _sign(f_lo) * _sign(f_mid) <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return t[lo], t[hi], f_lo, f_hi


def levels(profile: MassProfile, window: tuple[float, float], parity: str, tol: float = DEFAULT_TOL) -> list[float]:
    """All eigenvalues in the window, ascending, each refined in s = sign(E) sqrt|E| from its own pole cell
    (:func:`_pole_ranges`) to tol / (2 sqrt(max |E|)), so within ``tol`` (floored near machine precision).

    Each cell is cut into 8 equal parts and the first part whose ends differ in sign, or one of which is 0, is
    refined.  A cell cut to its stretch with one sign at both ends holds no level in the window; any other raises
    ``ScanResolutionError``.  Where the bound on the cells is at most ``_SCALAR_BRACKETS``, the cells are floats
    (:func:`_level_cells`), each part takes 5 residual calls (:func:`_first_eighth`) and is refined alone; else all
    9 points of every cell (:func:`_level_brackets`) go in array calls of at most ``_MAX_POINTS`` points, and
    ``_rootscan._refine`` refines the parts.  Both give the same roots.  A bound above ``_MAX_BREAKS`` raises
    ``ScanSizeError``, and a tol so coarse that roots closer than 4 tol merge raises ``ValueError``.
    """
    lo, hi = window
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"require finite lo < hi, got {lo!r}, {hi!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    tol_s = tol / (2.0 * math.sqrt(max(abs(lo), abs(hi))))

    def residual(s):
        return seam_wronskian(profile, s * abs(s), parity)

    ranges, count = _pole_ranges(profile, lo, hi, parity)
    if count <= _rootscan._SCALAR_BRACKETS:
        parts = [_first_eighth(residual, *cell) for cell in _level_cells(profile, ranges)]
        roots = [_rootscan._bisect_one(residual, *part, tol_s) for part in parts if part]
    else:
        a, b, cut = _level_brackets(profile, ranges)
        if not a.size:
            return []
        t = np.multiply.outer(b - a, _EIGHTHS)
        t += a[:, None]
        t[:, -1] = b
        f = np.empty_like(t)
        for i in range(0, t.size, _MAX_POINTS):
            f.ravel()[i : i + _MAX_POINTS] = residual(t.ravel()[i : i + _MAX_POINTS])
        sign = (f > 0.0).astype(np.int8) - (f < 0.0)
        held = sign[:, 0] * sign[:, -1] <= 0
        if not np.all(held | cut):
            i = np.argmin(held | cut)
            raise ScanResolutionError(_NO_LEVEL.format(float(a[i]), float(b[i])))
        rows = np.flatnonzero(held)
        i = np.argmax(sign[:, :-1] * sign[:, 1:] <= 0, axis=1)[rows]
        brackets = t[rows, i], t[rows, i + 1], f[rows, i], f[rows, i + 1]
        del t, f, sign  # the lockstep refinement holds some 20 arrays of its own per bracket
        roots = _rootscan._refine(residual, *brackets, tol_s)
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 4.0 * max(tol_s, 1e-15 * max(1.0, abs(r))):
            merged.append(r)
    if len(merged) < len(roots):
        raise ValueError(f"tol is coarser than the root spacing: {len(roots)} roots merge into {len(merged)}")
    return [s * abs(s) for s in merged]


def eigenvalues(
    profile: MassProfile, window: tuple[float, float], parity: str, tol: float = DEFAULT_TOL
) -> list[tuple[float, PiecewiseWavefunction]]:
    """(energy, state) pairs for :func:`levels`, the states unnormalized from :func:`build_solution`: node
    counts and localization do not depend on the scale, and :func:`level_diagnostics` reads both without them."""
    return [(e, build_solution(profile, e, parity)) for e in levels(profile, window, parity, tol)]
