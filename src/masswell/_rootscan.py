"""Sign-change isolation and bracketed root refinement for one-dimensional residuals."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_TOL", "ScanResolutionError", "ScanSizeError", "integers_crossed", "isolate_sign_changes", "bisect_root",
    "bracket_roots", "scan_cells", "roots_in",
]

#: the default absolute root tolerance of every solver and of the CLI
DEFAULT_TOL = 1e-12

#: the most points one call of a residual takes in a scan
_MAX_POINTS = 2**16 + 1

#: the most cells one scan takes: about 262,000 roots at 32 cells per pi
_MAX_CELLS = 2**23


class ScanResolutionError(RuntimeError):
    """A scan found fewer roots than a continuous count of its residual's turns proves are there."""


class ScanSizeError(OverflowError):
    """A scan would take more than ``_MAX_CELLS`` cells."""


def scan_cells(phases, where: str) -> list[int]:
    """The one scan-density rule: segment i, on which the residual turns through at most ``phases[i]``
    radians, needs 32 cells per pi of that phase, at least 256 and rounded up to a multiple of 4.
    Raises :class:`ScanSizeError` naming ``where`` where they sum past ``_MAX_CELLS``, or a phase is NaN."""
    needs = [4 * max(64, math.ceil(8.0 * p / math.pi)) if p <= _MAX_CELLS else math.inf for p in phases]
    if not sum(needs) <= _MAX_CELLS:
        raise ScanSizeError(f"{where} turns through {sum(phases):.3g} radians, more than {_MAX_CELLS} scan cells hold")
    return needs


def integers_crossed(w0: float, w1: float, margin: float = 1e-6) -> int:
    """The integers at least ``margin`` inside the range of w0 and w1: where these are a continuous
    function that is an integer exactly at the roots of a residual, a lower bound on the roots between.
    The margin keeps out a root on or beside an end, where the function can be slow to move."""
    lo, hi = min(w0, w1) + margin, max(w0, w1) - margin
    return max(0, math.floor(hi) - math.ceil(lo) + 1)


def isolate_sign_changes(f, lo, hi, samples):
    """Bracket every sign change and every sampled zero of ``f`` on each [lo, hi].

    ``lo``, ``hi`` and ``samples`` are the ends and cell count of one
    segment (scalars) or of several (arrays that broadcast together), and
    ``f`` must map a flat float ndarray to an ndarray elementwise.  Each
    segment is sampled at ``np.linspace`` of its ends with its own
    ``samples`` cells; the grids are laid end to end and evaluated in calls
    of ``f`` of at most ``_MAX_POINTS`` points, and no bracket joins two
    segments.  The scan finds what its grid resolves; :func:`roots_in`
    checks the total.

    Returns arrays ``(a, b, fa, fb)`` with one entry per bracket, in no
    promised order: one bracket per sign change between neighbouring
    samples and a zero-width bracket ``(t, t, 0.0, 0.0)`` for each sample
    t where f vanished identically.  :func:`bisect_root` takes them as
    they are and returns t for a zero-width bracket.
    """
    lo, hi, cells = np.broadcast_arrays(lo, hi, samples)
    lo, hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi))
    empty = np.flatnonzero(~(hi > lo))
    if empty.size:
        raise ValueError(f"empty scan interval [{lo[empty[0]]}, {hi[empty[0]]}]")
    cells = np.maximum(np.array(cells, dtype=int, ndmin=1), 2)
    ts = np.concatenate([np.linspace(a, b, n + 1) for a, b, n in zip(lo.tolist(), hi.tolist(), cells.tolist())])
    vs = np.concatenate([np.asarray(f(ts[i : i + _MAX_POINTS]), dtype=float) for i in range(0, ts.size, _MAX_POINTS)])
    if vs.shape != ts.shape:
        raise ValueError("residual callable must evaluate elementwise")
    signs = np.sign(vs)
    flips = signs[:-1] * signs[1:] < 0.0
    flips[np.cumsum(cells + 1)[:-1] - 1] = False  # one segment's last sample and the next one's first
    i = np.flatnonzero(flips)
    zero = vs == 0.0  # each sampled zero is a bracket of width 0
    a, b = np.append(ts[i], ts[zero]), np.append(ts[i + 1], ts[zero])
    return a, b, np.append(vs[i], vs[zero]), np.append(vs[i + 1], vs[zero])


def bisect_root(f, a, b, fa, fb, tol):
    """Shrink sign-change brackets [a, b] until each is at most 2*tol wide.

    Takes arrays of endpoints and their residuals (scalars are one
    bracket) and refines every bracket in lockstep by secant steps that
    bisection safeguards, as in Dekker's method (1969): one call of the
    elementwise ``f`` per step, on two points per open bracket.  They lie
    max(tol, 4 ulp) / 2 either side of the secant point through the
    newest bracket end and the point evaluated one step before it (the
    ends, at first), so an estimate that close to the root closes the
    bracket at once.  The secant point of the ends, then the midpoint,
    stand in where that is not finite or outside the bracket.  Where the
    width has not halved over the last two steps, the two points are the
    estimate and the midpoint, so the width at least halves and a bracket
    of width w needs at most 3 ceil(log2(w / 2 tol')) + 2 steps, with
    tol' = max(tol, 4 ulp) at the root, however useless interpolation
    is; no bracket takes more than 256.  Each bracket takes exactly the
    steps it would take alone.

    Each root is the midpoint of a sign-change bracket at most 2*tol
    wide, or a point where ``f`` is exactly zero.  The width is floored
    at 8 ulp of the midpoint, so very small absolute tolerances degrade
    gracefully to full relative precision instead of looping.  ``fa``
    and ``fb`` are used for their signs and as interpolation weights.
    Returns one root per bracket as a float array.
    """
    a, b, fa, fb = (np.array(v, dtype=float, ndmin=1) for v in np.broadcast_arrays(a, b, fa, fb))
    if np.any((fa != 0.0) & (fb != 0.0) & ((fa < 0.0) == (fb < 0.0))):
        raise ValueError("bracket endpoints must have opposite signs")
    roots = np.where(fa == 0.0, a, b)
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    a, b, fa, fb = a[live], b[live], fa[live], fb[live]
    neg_a = fa < 0.0
    # the newest bracket end c (a copy), the point p evaluated one step before it, the widths one and two steps ago
    c, fc, p, fp = b.copy(), fb.copy(), a, fa
    width_1 = width_2 = np.full(live.size, np.inf)
    for _ in range(256):
        width = b - a
        mid = 0.5 * (a + b)
        done = width <= np.maximum(2.0 * tol, 8.0 * np.spacing(np.abs(mid)))
        if np.count_nonzero(done):
            roots[live[done]] = mid[done]
            keep = ~done
            live, a, b, fa, fb, neg_a, c, fc, p, fp, width, width_1, width_2, mid = (
                v[keep] for v in (live, a, b, fa, fb, neg_a, c, fc, p, fp, width, width_1, width_2, mid)
            )
        if live.size == 0:
            return roots
        with np.errstate(all="ignore"):
            x = c - fc * ((c - p) / (fc - fp))
            inside = (x >= a) & (x <= b)
            if np.count_nonzero(inside) < live.size:
                x = np.where(inside, x, a + width * (fa / (fa - fb)))
                x = np.where((x >= a) & (x <= b), x, mid)
        half = np.maximum(0.5 * tol, 2.0 * np.spacing(np.abs(x)))
        lo, hi = np.maximum(x - half, a), np.minimum(x + half, b)
        guard = width > 0.5 * width_2
        if np.count_nonzero(guard):
            lo, hi = np.where(guard, np.minimum(x, mid), lo), np.where(guard, np.maximum(x, mid), hi)
        f_both = np.asarray(f(np.concatenate((lo, hi))), dtype=float)
        f_lo, f_hi = f_both[: live.size], f_both[live.size :]
        # in place, the first of [a, lo], [lo, hi], [hi, b] whose ends differ in sign: a moves to lo past lo,
        # then to hi past hi; b moves to hi short of hi, then to lo short of lo
        past_lo = (f_lo < 0.0) == neg_a
        past_hi = past_lo & ((f_hi < 0.0) == neg_a)
        p, fp, c, fc = c, fc, np.where(past_lo, hi, lo), np.where(past_lo, f_hi, f_lo)
        for end, f_end, new, f_new, moves in (
            (a, fa, lo, f_lo, past_lo), (a, fa, hi, f_hi, past_hi),
            (b, fb, hi, f_hi, ~past_hi), (b, fb, lo, f_lo, ~past_lo),
        ):
            np.copyto(end, new, where=moves)
            np.copyto(f_end, f_new, where=moves)
        width_1, width_2 = width, width_1
        if np.count_nonzero(f_both) < f_both.size:
            zero = (f_lo == 0.0) | (f_hi == 0.0)
            a[zero] = b[zero] = np.where(f_lo == 0.0, lo, hi)[zero]
    roots[live] = 0.5 * (a + b)
    return roots


def bracket_roots(f, lo, hi, rising, tol):
    """The root of ``f`` in each bracket [lo, hi] that holds exactly one, refined to ``tol``.

    ``rising`` says per bracket whether ``f`` crosses from negative at lo
    to positive at hi, or the other way.  Both ends of every bracket are
    evaluated in one call of the elementwise ``f``.  An end whose
    residual is zero or has the sign of the far side of the root, which
    only rounding near the root can give it, is that root to the float
    floor and is returned as is (the left end where both are).  The other
    brackets are refined together by one :func:`bisect_root` call, with
    no scan.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    lo, hi, rising = (np.array(v, ndmin=1) for v in np.broadcast_arrays(lo, hi, rising))
    f_lo, f_hi = np.split(np.asarray(f(np.concatenate((lo, hi))), dtype=float), 2)
    sign = np.where(rising, 1.0, -1.0)
    f_lo = np.where(f_lo * sign < 0.0, f_lo, 0.0)
    f_hi = np.where(f_hi * sign > 0.0, f_hi, 0.0)
    return bisect_root(f, lo, hi, f_lo, f_hi, tol)


def roots_in(f, segments, phases, count, tol):
    """Every root of the elementwise residual ``f`` on the segments, ascending.

    One :func:`isolate_sign_changes` call scans each segment at its own :func:`scan_cells` need;
    :func:`bisect_root` refines all brackets to ``tol``.  ``count`` is how many roots the segments
    hold at least (:func:`integers_crossed`): finding fewer raises :class:`ScanResolutionError`, so no root is lost
    silently.  Roots closer than 4 tol, floored near machine relative precision, are then one;
    where that leaves fewer than ``count``, ``tol`` is too coarse and ``ValueError`` is raised.
    """
    if not segments:
        return []
    needs = scan_cells(phases, f"the scan of {segments[0][0]!r}:{segments[-1][1]!r}")
    a, b, fa, fb = isolate_sign_changes(f, *np.transpose(segments), needs)
    # neighbouring segments can share an end, so a zero sampled there is bracketed twice
    roots = sorted(set(bisect_root(f, a, b, fa, fb, tol).tolist()))
    if len(roots) < count:
        raise ScanResolutionError(f"found {len(roots)} of at least {count} roots")
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 4.0 * max(tol, 1e-15 * max(1.0, abs(r))):
            merged.append(r)
    if len(merged) < count:
        raise ValueError(f"tol is coarser than the root spacing: {len(roots)} roots merge into {len(merged)}")
    return merged
