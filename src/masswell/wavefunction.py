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
span midpoint, where nothing cancels.  Zeros and L2 integrals of each
form are elementary, so node counting and localization never rely on
sampling; dense sampling appears only in the test suite as an
independent cross-check.  A node count
costs O(1) per region: a trig piece's zeros are counted from its phase
at the two ends of its span, a hyperbolic or linear piece has at most
one, and each seam is one sign test across a window that spans any jump
of psi there.
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
    "region_zeros",
    "region_l2",
]

#: least half-width of the window about each region seam, and the width
#: next to each wall where zeros are not nodes, relative to max(1, L)
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


def region_zeros(region: RegionSolution, lo: float, hi: float) -> list[float]:
    """The zero of a hyperbolic or linear piece strictly inside (lo, hi), if any."""
    a, b, q = region.a_coef, region.b_coef, region.q
    if region.kind == "hyper":
        # y_l sinh q(x_right - x) + y_r sinh q(x - x_left) has one root when y_l y_r < 0,
        # where tanh(q t) = z at the distance t from the midpoint
        if not (a < 0.0 < b or b < 0.0 < a):
            return []
        x_left, x_right = region.span
        z = (a + b) / (a - b) * math.tanh(0.5 * q * (x_right - x_left))
        if abs(z) < 0.5:
            t = math.atanh(z) / q
        else:
            # near an end, ln((1 + z) / (1 - z)) / 2 from the end values: each sum is of like signs
            e = math.exp(-q * (x_right - x_left))
            t = math.log((a - b * e) / (a * e - b)) / (2.0 * q)
        x0 = 0.5 * (x_left + x_right) + t
        return [x0] if lo < x0 < hi else []
    if b == 0.0:
        return []
    t0 = -a / b
    return [t0 + region.x_ref] if lo - region.x_ref < t0 < hi - region.x_ref else []


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

    A trig piece R cos(q t - phi) vanishes where its phase
    u = (q t - phi - pi/2) / pi is an integer, so it has
    ceil(u(hi)) - floor(u(lo)) - 1 zeros there; the other kinds have at
    most one, found by :func:`region_zeros`.
    """
    if region.kind != "trig":
        return len(region_zeros(region, lo, hi))
    if not hi > lo or region.a_coef == region.b_coef == 0.0:
        return 0
    shift = math.atan2(region.b_coef, region.a_coef) + math.pi / 2.0
    u_lo = (region.q * (lo - region.x_ref) - shift) / math.pi
    u_hi = (region.q * (hi - region.x_ref) - shift) / math.pi
    return max(0, math.ceil(u_hi) - math.floor(u_lo) - 1)


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
        return value, q * (a * e_left * (1.0 + e_right * e_right) - b * e_right * (1.0 + e_left * e_left)) / m_w
    t = x - region.x_ref
    if region.kind == "trig":
        c, s = xp.cos(q * t), xp.sin(q * t)
        return a * c + b * s, q * (b * c - a * s)
    return a + b * t, b


def _seam_window(left: RegionSolution, right: RegionSolution, pad: float) -> float:
    """Half-width of the window about the seam between two pieces.

    psi may jump at a seam by about the root tolerance, which can put a
    zero of each piece on either side of it, within jump / slope.  The
    window is twice that and at least ``pad``, then capped, even below
    ``pad``, at a quarter of either span and of pi / q so that it holds no
    other zero and reads no piece off its span.  Off an eigenvalue the
    jump can be as large as psi, and the window may then hide two of the
    sign changes psi has about the seam.
    """
    q = max(left.q, right.q)
    cap = 0.25 * min(left.span[1] - left.span[0], right.span[1] - right.span[0], math.pi / q if q else math.inf)
    (y_left, dy_left), (y_right, dy_right) = (_value_slope(r, left.span[1]) for r in (left, right))
    slope = max(abs(dy_left), abs(dy_right))
    return min(max(pad, 2.0 * abs(y_left - y_right) / slope if slope > 0.0 else cap), cap)


def count_nodes(psi: PiecewiseWavefunction) -> int:
    """Number of strict sign changes of psi inside the open well (-L, L).

    Each region counts its zeros strictly inside its span shrunk at both
    ends by a window (:func:`_inside_count`): ``_SEAM_WINDOW`` at a wall,
    :func:`_seam_window` at an interior seam.  Each seam adds one node
    when the pieces on its two sides have opposite signs at its window's
    edges, so a zero on or beside a seam (x = +-a) counts once, even
    where psi jumps there, and a zero psi only touches counts not at all.
    The cost is O(1) per region, whatever the number of nodes.
    """
    regions = psi.regions
    pad = _SEAM_WINDOW * max(1.0, psi.half_width)
    windows = [pad] + [_seam_window(l, r, pad) for l, r in zip(regions, regions[1:])] + [pad]
    nodes = sum(_inside_count(r, r.span[0] + w0, r.span[1] - w1) for r, w0, w1 in zip(regions, windows, windows[1:]))
    for left, right, w in zip(regions, regions[1:], windows[1:]):
        before, after = _value_slope(left, left.span[1] - w)[0], _value_slope(right, left.span[1] + w)[0]
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
