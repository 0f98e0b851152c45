"""Reference root finders for the tests, a plain sign-change scan independent of the solvers' own brackets, and a
patch that empties the level brackets of both routes of ``matching.levels``."""

import math

import numpy as np

from masswell import _rootscan, matching
from masswell.matching import _stretches, seam_wronskian


def scan_roots(f, segments, phases, tol):
    """Every root of ``f`` that a sign-change scan of the segments finds, ascending.

    Segment i is sampled on 32 cells per pi of the phase ``phases[i]`` that ``f`` turns through on it, at
    least 256, by ``isolate_sign_changes``; each bracket is refined to ``tol`` by ``bisect_root``, and roots
    closer than 4 tol, floored near machine relative precision, are one.
    """
    if not segments:
        return []
    cells = [max(256, math.ceil(32.0 * p / math.pi)) for p in phases]
    brackets = _rootscan.isolate_sign_changes(f, *np.transpose(segments), cells)
    roots = sorted(set(_rootscan.bisect_root(f, *brackets, tol).tolist()))
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 4.0 * max(tol, 1e-15 * max(1.0, abs(r))):
            merged.append(r)
    return merged


def scan_levels(profile, window, parity, tol):
    """The levels in the window by :func:`scan_roots` of the seam Wronskian in s = sign(E) sqrt|E| on each stretch,
    whose phase is (L - a)(max(s1, 0) - max(s0, 0)) + a r (s1 - s0), refined to tol / (2 sqrt(max |E|)) in s."""
    geo = profile.geometry
    stretches = _stretches(profile, *window)
    segments = [(s0, s1) for s0, s1, _ in stretches]
    phases = [(geo.L - geo.a) * (max(s1, 0.0) - max(s0, 0.0)) + geo.a * r * (s1 - s0) for s0, s1, r in stretches]
    tol_s = tol / (2.0 * math.sqrt(max(abs(window[0]), abs(window[1]))))
    roots = scan_roots(lambda s: seam_wronskian(profile, s * np.abs(s), parity), segments, phases, tol_s)
    return [s * abs(s) for s in roots]


def empty_level_cells(monkeypatch, cut=False):
    """Make every level bracket of both routes (``matching._level_brackets``, arrays, and ``matching._level_cells``,
    floats) one ulp wide at its low end, so it holds no level, and cut to its stretch or not as ``cut`` says."""
    brackets, cells = matching._level_brackets, matching._level_cells

    def emptied_brackets(*args):
        lo, hi, was_cut = brackets(*args)
        return lo, np.nextafter(lo, np.inf), np.full_like(was_cut, cut)

    def emptied_cells(*args):
        return [(lo, math.nextafter(lo, math.inf), cut) for lo, _, _ in cells(*args)]

    monkeypatch.setattr(matching, "_level_brackets", emptied_brackets)
    monkeypatch.setattr(matching, "_level_cells", emptied_cells)
