"""Sign-change isolation and bisection for smooth one-dimensional residuals."""

from __future__ import annotations

import numpy as np

__all__ = ["ScanResolutionError", "isolate_sign_changes", "bisect_root", "roots_in"]

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
    signs = np.sign(vs)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    brackets = [
        (float(ts[i]), float(ts[i + 1]), float(vs[i]), float(vs[i + 1]))
        for i in flips
    ]
    return brackets + [(t, t, 0.0, 0.0) for t in ts[vs == 0.0].tolist()]


def isolate_sign_changes(f, lo, hi, samples):
    """Bracket every sign change and every sampled zero of ``f`` on [lo, hi].

    ``f`` must map a float ndarray to an ndarray elementwise.  The
    interval is scanned at ``samples`` cells and rescanned ``_REFINE``
    times finer until the number of brackets stops changing; this turns
    the assumption that the scan resolution suffices into a runtime
    check.  Instability at the deepest level raises
    :class:`ScanResolutionError`.

    Returns a list of brackets ``(a, b, f(a), f(b))``: one per sign
    change between neighbouring samples, followed by a zero-width
    bracket ``(t, t, 0.0, 0.0)`` for each sample t where f vanished
    identically.  :func:`bisect_root` returns t for the latter as is.
    """
    if not hi > lo:
        raise ValueError(f"empty scan interval [{lo}, {hi}]")
    n = max(int(samples), 2)
    brackets = _scan(f, lo, hi, n)
    for _ in range(_MAX_LEVELS):
        n *= _REFINE
        finer = _scan(f, lo, hi, n)
        if len(finer) == len(brackets):
            return finer
        brackets = finer
    raise ScanResolutionError(
        f"sign-change count on [{lo}, {hi}] still growing at {n} samples"
    )


def bisect_root(f, a, b, fa, fb, tol):
    """Shrink sign-change brackets [a, b] until each is at most 2*tol wide.

    Takes arrays of endpoints and their residuals (scalars are one
    bracket) and bisects every bracket in lockstep: one call of the
    elementwise ``f`` per step, on the midpoints of the open brackets.
    Each bracket takes exactly the steps it would take alone.  The width
    is floored near machine precision of the midpoint, so very small
    absolute tolerances degrade gracefully to full relative precision
    instead of looping.  Returns one root per bracket as a float array.
    """
    a, b, fa, fb = (np.array(v, dtype=float, ndmin=1) for v in np.broadcast_arrays(a, b, fa, fb))
    if np.any((fa != 0.0) & (fb != 0.0) & ((fa < 0.0) == (fb < 0.0))):
        raise ValueError("bracket endpoints must have opposite signs")
    roots = np.where(fa == 0.0, a, b)
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    for _ in range(256):
        mid = 0.5 * (a[live] + b[live])
        width = b[live] - a[live]
        done = (width <= 2.0 * tol) | (width <= 8.0 * np.spacing(np.abs(mid)))
        done |= (mid <= a[live]) | (mid >= b[live])
        roots[live[done]] = mid[done]
        live, mid = live[~done], mid[~done]
        if live.size == 0:
            return roots
        fm = np.asarray(f(mid), dtype=float)
        roots[live[fm == 0.0]] = mid[fm == 0.0]
        lower = (fm < 0.0) == (fa[live] < 0.0)
        a[live[lower]], fa[live[lower]] = mid[lower], fm[lower]
        b[live[~lower]] = mid[~lower]
        live = live[fm != 0.0]
    roots[live] = 0.5 * (a[live] + b[live])
    return roots


def roots_in(f, segments, samples, tol):
    """Every root of the elementwise residual ``f`` on the segments, ascending.

    Each segment is bracketed by :func:`isolate_sign_changes` at
    ``samples`` cells and all brackets, zero-width ones included, are
    bisected to ``tol`` together by :func:`bisect_root`.  Roots closer
    than four times the tolerance, floored near machine relative
    precision, are one root.
    """
    brackets = [b for lo, hi in segments for b in isolate_sign_changes(f, lo, hi, samples)]
    roots = sorted(bisect_root(f, *np.reshape(brackets, (-1, 4)).T, tol).tolist())
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 4.0 * max(tol, 1e-15 * max(1.0, abs(r))):
            merged.append(r)
    return merged
