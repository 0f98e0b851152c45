"""Piecewise wavefunctions: evaluation, exact node counts, exact integrals.

Every region solution is one of three closed forms: trig
A cos(q t) + B sin(q t) or linear A + B t in the local coordinate
t = x - x_ref, or hyperbolic y_l S(x_right - x) + y_r S(x - x_left) by
its end values on a span of width w, S(d) = sinh(q d) / sinh(q w).  S is
e^(q (d - w)) expm1(-2 q d) / expm1(-2 q w), at most 1 on the span and,
through expm1, exact as q w -> 0, so a hyperbolic piece and its slope
are exact and finite at any q w.  Each kind's value and slope are
written once, in ``_value_slope``, for a float or an array.  A piece's
L2 integral sums those of its orthogonal parts even and odd about the
span midpoint, where nothing cancels.  Node counts come from phases and
signs, never from sampling, at O(1) cost per region: a trig piece's
zeros from its phase, a hyperbolic or linear piece's (monotone where it
vanishes) from its signs, and each seam's from one sign test across a
window that spans any jump of psi there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "RegionSolution",
    "PiecewiseWavefunction",
    "evaluate",
    "count_nodes",
    "localization_fraction",
    "region_l2",
]

#: half-width of the window about each wall, and the least about each seam, relative to max(1, L)
_SEAM_WINDOW = 1e-9


@dataclass(frozen=True)
class RegionSolution:
    """One closed-form solution piece on the span ``(x_left, x_right)``.

    ``kind`` is "trig", "hyper" or "linear"; ``q`` is the local
    wavenumber (0 for linear).  A trig or linear piece is
    ``a_coef * u(q t) + b_coef * v(q t)`` with t = x - x_ref and
    (u, v) = (cos, sin) or (1, t).  A hyperbolic piece is
    ``a_coef * S(x_right - x) + b_coef * S(x - x_left)``, with
    S(d) = sinh(q d) / sinh(q w) for the span width w: stored by its values
    at the span ends, it does not read ``x_ref``, and |value| is at most
    max(|a_coef|, |b_coef|) on the span.
    """

    kind: str
    q: float
    x_ref: float
    a_coef: float
    b_coef: float
    span: tuple[float, float]

    def __post_init__(self) -> None:
        if self.kind not in ("trig", "hyper", "linear"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not self.span[0] < self.span[1]:
            raise ValueError(f"empty span {self.span!r}")

    def value(self, x):
        """psi at x, elementwise over an array: :func:`_value_slope` through numpy."""
        return _value_slope(self, np.asarray(x, dtype=float), np)[0]

    def scaled(self, factor: float) -> "RegionSolution":
        return RegionSolution(self.kind, self.q, self.x_ref, self.a_coef * factor, self.b_coef * factor, self.span)

    def reflected(self, parity_sign: float) -> "RegionSolution":
        """Mirror image under x -> -x, multiplied by ``parity_sign``.

        The span and reference point are negated.  cos and 1 are even,
        sin and t odd, so trig and linear coefficients map to
        (s*A, -s*B); the two end values of a hyperbolic piece trade
        places, so its coefficients map to (s*B, s*A).
        """
        if self.kind == "hyper":
            coefs = (parity_sign * self.b_coef, parity_sign * self.a_coef)
        else:
            coefs = (parity_sign * self.a_coef, -parity_sign * self.b_coef)
        return RegionSolution(self.kind, self.q, -self.x_ref, *coefs, (-self.span[1], -self.span[0]))


def _odd_series(z2: float) -> float:
    """6 (sinh z - z) / z^3 at z2 = z^2, 6 (z - sin z) / z^3 at z2 = -z^2; eps-exact for |z2| < 1."""
    series = 1.0
    for k in range(8, 1, -1):
        series = 1.0 + series * z2 / (2 * k * (2 * k + 1))
    return series


def region_l2(region: RegionSolution) -> float:
    """Integral of value**2 over the region's span, the sum of those of its parts even and
    odd about the span midpoint: they are orthogonal, so nothing cancels at any q w."""
    x_left, x_right = region.span
    q, w = region.q, x_right - x_left
    z = q * w
    if region.kind == "hyper":
        # (y_l + y_r)/2 cosh(q s) / cosh(z/2) and (y_r - y_l)/2 sinh(q s) / sinh(z/2) square to
        # w / (2 cosh^2(z/2)) + tanh(z/2) / q and (sinh z - z) / (2 q sinh^2(z/2)), written
        # in e^(-z) so neither overflows
        e = math.exp(-z)
        even = 2.0 * w * e / (1.0 + e) ** 2 + math.tanh(0.5 * z) / q
        if z < 1.0:
            odd = z ** 3 / 6.0 * _odd_series(z * z) / (2.0 * q * math.sinh(0.5 * z) ** 2)
        else:
            odd = 1.0 / (q * math.tanh(0.5 * z)) - 2.0 * w * e / (1.0 - e) ** 2
        return (0.5 * (region.a_coef + region.b_coef)) ** 2 * even + (0.5 * (region.b_coef - region.a_coef)) ** 2 * odd
    # y C(s) + y' S(s) by the value and slope at the midpoint, C = cos(q s) and S = sin(q s) / q
    # (1 and s at q = 0); S^2 integrates to (z - sin z) / (2 q^3), and C^2 = 1 - q^2 S^2
    y, dy = _value_slope(region, 0.5 * (x_left + x_right))
    odd = w ** 3 / 12.0 * _odd_series(-z * z) if z < 1.0 else (w - math.sin(z) / q) / (2.0 * q * q)
    return y * y * (w - q * q * odd) + dy * dy * odd


@dataclass(frozen=True)
class PiecewiseWavefunction:
    """Solution candidate on (-L, L): ordered regions plus bookkeeping."""

    regions: tuple[RegionSolution, ...]
    parity: str
    energy: float

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    @property
    def half_width(self) -> float:
        return -self.regions[0].span[0]

    def l2_norm(self) -> float:
        return math.sqrt(sum(region_l2(r) for r in self.regions))

    def normalized(self) -> "PiecewiseWavefunction":
        """Copy rescaled to unit L2 norm on (-L, L)."""
        current = self.l2_norm()
        if current == 0.0:
            raise ValueError("cannot normalize the zero solution")
        factor = 1.0 / current
        return replace(self, regions=tuple(r.scaled(factor) for r in self.regions))


def evaluate(psi: PiecewiseWavefunction, x):
    """Pointwise value of psi; accepts scalars or arrays on [-L, L]."""
    arr = np.asarray(x, dtype=float)
    half = psi.half_width
    if not np.all(np.abs(arr) <= half):
        raise ValueError(f"position outside [-{half}, {half}]")
    out = np.zeros_like(arr)
    for region in psi.regions:
        # only the region's own points: a hyperbolic piece overflows far outside its span
        mask = (arr >= region.span[0]) & (arr <= region.span[1])
        out[mask] = region.value(arr[mask])
    if np.ndim(x) == 0:
        return float(out)
    return out


def _inside_count(region: RegionSolution, lo: float, hi: float) -> int:
    """Number of zeros of the region's closed form strictly inside (lo, hi).

    A trig piece R cos(q t - phi) has ceil(u(hi)) - floor(u(lo)) - 1 zeros
    there, its phase u = (q t - phi - pi/2) / pi being an integer at each.  A
    hyperbolic or linear piece, monotone wherever it has a zero, has one
    exactly when psi(lo) and psi(hi) have opposite signs, and none if
    hyperbolic with end values of like signs or a zero.
    """
    a, b = region.a_coef, region.b_coef
    if not hi > lo or a == b == 0.0:
        return 0
    if region.kind == "trig":
        shift = math.atan2(b, a) + math.pi / 2.0
        u_lo = (region.q * (lo - region.x_ref) - shift) / math.pi
        u_hi = (region.q * (hi - region.x_ref) - shift) / math.pi
        return max(0, math.ceil(u_hi) - math.floor(u_lo) - 1)
    if region.kind == "hyper" and not (a < 0.0 < b or b < 0.0 < a):
        return 0
    y_lo, y_hi = _value_slope(region, lo)[0], _value_slope(region, hi)[0]
    return int(y_lo < 0.0 < y_hi or y_hi < 0.0 < y_lo)


def _value_slope(region: RegionSolution, x, xp=math) -> tuple:
    """(value, slope) of the region's closed form at x, the only copy of each kind's: ``xp`` is
    math for a float, or numpy elementwise over an array; a linear slope is the scalar b."""
    a, b, q = region.a_coef, region.b_coef, region.q
    if region.kind == "hyper":
        # each exponent is the distance from its own end, so S is exact beside that end;
        # S'(d) = q e^(q (d - w)) (1 + e^(-2 q d)) / -expm1(-2 q w)
        x_left, x_right = region.span
        near_left, near_right = x - x_left, x_right - x
        e_left, e_right = xp.exp(-q * near_left), xp.exp(-q * near_right)
        m_w = math.expm1(-2.0 * q * (x_right - x_left))
        value = a * e_left * (xp.expm1(-2.0 * q * near_right) / m_w)
        value += b * e_right * (xp.expm1(-2.0 * q * near_left) / m_w)
        if not (a < 0.0 and b < 0.0 or a > 0.0 and b > 0.0):
            return value, q * (a * e_left * (1.0 + e_right * e_right) - b * e_right * (1.0 + e_left * e_left)) / m_w
        # like-signed ends cancel there as q w -> 0 (others add): sum the slopes of the ends' mean and half-difference
        m_half, diff = math.expm1(-q * (x_right - x_left)), xp.expm1(-q * near_left) - xp.expm1(-q * near_right)
        return value, q * (0.5 * (a - b) * (e_left + e_right) / m_half - 0.5 * (a + b) * diff / (2.0 + m_half))
    t = x - region.x_ref
    if region.kind == "trig":
        c, s = xp.cos(q * t), xp.sin(q * t)
        return a * c + b * s, q * (b * c - a * s)
    return a + b * t, b


def _seam_window(left: RegionSolution, right: RegionSolution, pad: float) -> float:
    """Half-width of the window about the seam between two pieces.

    psi may jump at a seam by about the root tolerance, which can put a
    zero of each piece on either side of it, within jump / slope.  The
    window is twice that and at least ``pad``, capped at a quarter of
    pi / q, so that it holds no other zero, and of the wider span.  Off an
    eigenvalue the jump can be as large as psi, and the window may then
    hide two of the sign changes psi has about the seam.
    """
    q = max(left.q, right.q)
    cap = 0.25 * min(math.pi / q if q else math.inf, max(left.span[1] - left.span[0], right.span[1] - right.span[0]))
    y_left, dy_left = _value_slope(left, left.span[1])
    y_right, dy_right = _value_slope(right, left.span[1])
    slope = max(abs(dy_left), abs(dy_right))
    return min(max(pad, 2.0 * abs(y_left - y_right) / slope if slope > 0.0 else cap), cap)


def count_nodes(psi: PiecewiseWavefunction) -> int:
    """Number of strict sign changes of psi inside the open well (-L, L).

    Each wall and seam has a window, ``_SEAM_WINDOW`` max(1, L) about a wall
    and :func:`_seam_window` about a seam, and windows that overlap merge.
    One beside a wall holds no node; any other adds one when psi has
    opposite signs at its edges, so a zero on or beside a seam counts once,
    even where psi jumps there or the span beyond is narrower than the
    window, and a zero psi only touches counts not at all.  Between windows
    each region counts its zeros (:func:`_inside_count`).
    """
    regions, half = psi.regions, psi.half_width
    pad = _SEAM_WINDOW * max(1.0, half)
    marks = [(l.span[1], _seam_window(l, r, pad)) for l, r in zip(regions, regions[1:])] + [(half, pad)]
    # (lo, hi, first, last): a run of overlapping windows, of walls and seams first to last (walls 0, len(regions))
    windows = [(-half - pad, pad - half, 0, 0)]
    for last, (x, w) in enumerate(marks, 1):
        lo, hi, first = x - w, x + w, last
        while windows and lo <= windows[-1][1]:
            prev_lo, prev_hi, first, _ = windows.pop()
            lo, hi = min(lo, prev_lo), max(hi, prev_hi)
        windows.append((lo, hi, first, last))
    nodes = 0
    for (_, gap_lo, _, _), (lo, hi, first, last) in zip(windows, windows[1:]):
        nodes += _inside_count(regions[first - 1], gap_lo, lo)
        if last < len(regions):
            before, after = _value_slope(regions[first - 1], lo)[0], _value_slope(regions[last], hi)[0]
            nodes += bool(before < 0.0 < after or after < 0.0 < before)
    return nodes


def localization_fraction(psi: PiecewiseWavefunction) -> float:
    """Probability fraction inside the inner region |x| < a.

    That is the span of the center piece ``psi.regions[1]``, so this is its
    exact :func:`region_l2` over the sum of all pieces': independent of
    the normalization and always in [0, 1].
    """
    l2 = [region_l2(r) for r in psi.regions]
    return l2[1] / sum(l2)
