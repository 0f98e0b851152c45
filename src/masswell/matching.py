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

import math

import numpy as np

from ._rootscan import _MAX_POINTS, DEFAULT_TOL, ScanResolutionError, _refine, check_count
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


def _level_brackets(profile: MassProfile, lo: float, hi: float, parity: str):
    """(lo, hi, cut) in s: one bracket per level of [lo, hi], ``cut`` where it is cut to its stretch (its level
    may lie outside).  The README proves one level per cell (the matching route's pole cells).

    In k = |s| on a stretch (s0, s1, r), with d = L - a, the cells lie between 0 and the poles of the matching
    condition: those of cot(k d), at j pi / d, where E > 0 (the outer region oscillates), and where r > 0
    (the inner one does) those of tan(r k a) (even) or cot(r k a) (odd), at (j pi + pi/2) / (r a) or
    j pi / (r a); a stretch with neither holds no level.  Where neighbouring poles of the two sides are
    closer than 2e-12 k L / min(a, d), the level between them may lie within 1e-12 k of one, where the seam
    Wronskian's sign is not sure, so both move 1e-12 k apart.  The brackets are counted before any is built.
    """
    geo = profile.geometry
    d = geo.L - geo.a
    inner = 0.5 * math.pi * (_parity_sign(parity) > 0.0)
    rules = []
    for s0, s1, r in _stretches(profile, lo, hi):
        # the progressions (c, off) of poles (j pi + off) / c: the outer region's where E > 0, the inner one's;
        # below c = 1e-300 the first pole lies past every s, which is at most sqrt(1.8e308)
        rates = ((d * (s0 >= 0.0), 0.0), (geo.a * r, inner))
        rates = [(c, off) for c, off in rates if c > 1e-300]
        if rates:
            rules.append((s0, s1, rates))
    count = sum(c * (s1 - s0) / math.pi + 2.0 for s0, s1, rates in rules for c, _ in rates)
    check_count(count, f"the window {lo!r}:{hi!r}")
    brackets = [(np.empty(0), np.empty(0), np.empty(0, dtype=bool))]
    for s0, s1, rates in rules:
        t0, t1 = (s0, s1) if s0 >= 0.0 else (-s1, -s0)
        p, side = [np.zeros(1)], [np.zeros(1)]
        for n, (c, off) in enumerate(rates, 1):
            # j from 1 where off = 0, as p holds 0 once; one pole past each end, so rounding drops none
            j0 = max(math.floor((c * t0 - off) / math.pi) - 1, int(off == 0.0))
            j = np.arange(j0, math.ceil((c * t1 - off) / math.pi) + 2)
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
        brackets.append((a, b, cut) if s0 >= 0.0 else (-b, -a, cut))
    return [np.concatenate(parts) for parts in zip(*brackets)]


def levels(profile: MassProfile, window: tuple[float, float], parity: str, tol: float = DEFAULT_TOL) -> list[float]:
    """All eigenvalues in the window, ascending, each refined in s = sign(E) sqrt|E| from its own bracket
    (:func:`_level_brackets`) to tol / (2 sqrt(max |E|)), so within ``tol`` (floored near machine precision).

    The seam Wronskian is evaluated at every bracket's ends and the 7 points that cut it into 8 equal parts,
    in calls of at most ``_MAX_POINTS`` points: the first three halvings of all brackets at once.  A cut bracket
    with one sign at both ends holds no level in the window; any other raises ``ScanResolutionError``.  The
    first part whose ends differ in sign, or one of which is 0, is refined.  More than ``_MAX_BREAKS``
    brackets raise ``ScanSizeError``, and a tol so coarse that roots closer than 4 tol merge raises
    ``ValueError``.
    """
    lo, hi = window
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"require finite lo < hi, got {lo!r}, {hi!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    tol_s = tol / (2.0 * math.sqrt(max(abs(lo), abs(hi))))

    def residual(s):
        return seam_wronskian(profile, s * abs(s), parity)

    a, b, cut = _level_brackets(profile, lo, hi, parity)
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
        lo, hi = float(a[i]), float(b[i])
        raise ScanResolutionError(f"the bracket s = {lo!r}:{hi!r} holds no level, though it must hold one")
    rows = np.flatnonzero(held)
    i = np.argmax(sign[:, :-1] * sign[:, 1:] <= 0, axis=1)[rows]
    brackets = t[rows, i], t[rows, i + 1], f[rows, i], f[rows, i + 1]
    del t, f, sign  # the lockstep refinement holds some 20 arrays of its own per bracket
    roots = sorted(_refine(residual, *brackets, tol_s))
    merged = []
    for r in roots:
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
