"""Sign-change isolation and bisection for smooth one-dimensional residuals."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ScanResolutionError", "isolate_sign_changes", "bisect_root", "roots_in", "segments_between",
]

#: each rescan is _REFINE times finer than the last, up to _MAX_LEVELS rescans
_REFINE = 4
_MAX_LEVELS = 4


class ScanResolutionError(RuntimeError):
    """Sign-change isolation kept finding new crossings at maximum refinement."""


def _scan(f, lo, hi, n):
    ts = np.linspace(lo, hi, n + 1)
    vs = np.asarray(f(ts), dtype=float)
    if vs.shape != ts.shape:
        raise ValueError("residual callable must evaluate elementwise")
    exact = [float(t) for t, v in zip(ts, vs) if v == 0.0]
    signs = np.sign(vs)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    brackets = [
        (float(ts[i]), float(ts[i + 1]), float(vs[i]), float(vs[i + 1]))
        for i in flips
    ]
    return brackets, exact


def isolate_sign_changes(f, lo, hi, samples):
    """Bracket every sign change of ``f`` on [lo, hi].

    ``f`` must map a float ndarray to an ndarray elementwise.  The
    interval is scanned at ``samples`` cells and rescanned ``_REFINE``
    times finer until the number of crossings stops growing; this turns
    the assumption that the scan resolution suffices into a runtime
    check.  Instability at the deepest level raises
    :class:`ScanResolutionError`.

    Returns ``(brackets, exact_zeros)`` where each bracket is a tuple
    ``(a, b, f(a), f(b))`` with a single sign change and exact_zeros
    collects sample points where f vanished identically.
    """
    if not hi > lo:
        raise ValueError(f"empty scan interval [{lo}, {hi}]")
    n = max(int(samples), 2)
    brackets, exact = _scan(f, lo, hi, n)
    for _ in range(_MAX_LEVELS):
        n *= _REFINE
        finer = _scan(f, lo, hi, n)
        if len(finer[0]) + len(finer[1]) == len(brackets) + len(exact):
            return finer
        brackets, exact = finer
    raise ScanResolutionError(
        f"sign-change count on [{lo}, {hi}] still growing at {n} samples"
    )


def bisect_root(f, a, b, fa, fb, tol):
    """Shrink a sign-change bracket until its width is at most 2*tol.

    The width is also floored near machine precision of the midpoint, so
    very small absolute tolerances degrade gracefully to full relative
    precision instead of looping.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("bracket endpoints must have opposite signs")
    for _ in range(256):
        mid = 0.5 * (a + b)
        width = b - a
        if width <= 2.0 * tol or width <= 8.0 * math.ulp(mid) or mid <= a or mid >= b:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def segments_between(lo, hi, cuts, margin):
    """The pieces of [lo, hi] left after removing ``margin`` either side of
    each ascending cut; empty pieces are dropped."""
    starts = [lo] + [c + margin for c in cuts]
    ends = [c - margin for c in cuts] + [hi]
    return [(s, e) for s, e in zip(starts, ends) if e > s]


def roots_in(f, f_scalar, segments, samples, tol):
    """Every root of ``f`` on the segments, ascending.

    Each segment is bracketed by :func:`isolate_sign_changes` at
    ``samples`` cells (``f`` is the elementwise form) and each bracket is
    bisected to ``tol`` with ``f_scalar``.  Roots closer than four times
    the tolerance, floored near machine relative precision, are one root.
    """
    roots = []
    for lo, hi in segments:
        brackets, exact = isolate_sign_changes(f, lo, hi, samples)
        roots.extend(exact)
        roots.extend(bisect_root(f_scalar, *bracket, tol) for bracket in brackets)
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 4.0 * max(tol, 1e-15 * max(1.0, abs(r))):
            merged.append(r)
    return merged
