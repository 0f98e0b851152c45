"""Piecewise wavefunctions: evaluation, exact node counts, exact integrals.

Every region solution is one of three closed forms: trig
A cos(q t) + B sin(q t) or linear A + B t in the local coordinate
t = x - x_ref, or hyperbolic A e^(q (x - x_right)) + B e^(-q (x - x_left)),
two exponentials anchored at the ends of the span (x_left, x_right).
Each exponential is at most 1 on the span, so a hyperbolic piece, its
slope and its L2 integral stay within the float range however large q
times the width grows.  Zeros and L2 integrals of each form have
elementary expressions, so node counting and localization never rely on
sampling; dense sampling appears only in the test suite as an
independent cross-check.  A node count costs O(1) per region: a trig
piece's zeros are counted from its phase at the two ends of its span, a
hyperbolic or linear piece has at most one, and each seam is one sign
test across a window that spans any jump of psi there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

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
    ``a_coef * exp(q (x - x_right)) + b_coef * exp(-q (x - x_left))``,
    anchored at its span ends and not at ``x_ref``, so
    |value| <= |a_coef| + |b_coef| on the span.
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
        if self.kind == "hyper":
            x_left, x_right = self.span
            grow = np.exp(self.q * np.subtract(x, x_right))
            return self.a_coef * grow + self.b_coef * np.exp(-self.q * np.subtract(x, x_left))
        t = np.subtract(x, self.x_ref)
        if self.kind == "trig":
            return self.a_coef * np.cos(self.q * t) + self.b_coef * np.sin(self.q * t)
        return self.a_coef + self.b_coef * t

    def scaled(self, factor: float) -> "RegionSolution":
        return replace(self, a_coef=self.a_coef * factor, b_coef=self.b_coef * factor)

    def reflected(self, parity_sign: float) -> "RegionSolution":
        """Mirror image under x -> -x, multiplied by ``parity_sign``.

        The span and reference point are negated.  cos and 1 are even,
        sin and t odd, so trig and linear coefficients map to
        (s*A, -s*B); the two anchored exponentials of a hyperbolic piece
        trade places, so its coefficients map to (s*B, s*A).
        """
        if self.kind == "hyper":
            coefs = (parity_sign * self.b_coef, parity_sign * self.a_coef)
        else:
            coefs = (parity_sign * self.a_coef, -parity_sign * self.b_coef)
        return RegionSolution(self.kind, self.q, -self.x_ref, *coefs, (-self.span[1], -self.span[0]))


def region_zeros(region: RegionSolution, lo: float, hi: float) -> list[float]:
    """Zeros of the region's closed form strictly inside (lo, hi), ascending."""
    if not hi > lo:
        return []
    a, b, q = region.a_coef, region.b_coef, region.q
    if region.kind == "hyper":
        # A e^(q (x - x_right)) = -B e^(-q (x - x_left)) has one root when A B < 0
        if not (a < 0.0 < b or b < 0.0 < a):
            return []
        x0 = 0.5 * (region.span[0] + region.span[1]) + (math.log(abs(b)) - math.log(abs(a))) / (2.0 * q)
        return [x0] if lo < x0 < hi else []
    t1 = lo - region.x_ref
    t2 = hi - region.x_ref
    if region.kind == "linear":
        if b == 0.0:
            return []
        t0 = -a / b
        return [t0 + region.x_ref] if t1 < t0 < t2 else []
    if a == b == 0.0:
        return []
    # A cos + B sin = R cos(q t - phi); zeros at q t = phi + pi/2 + n pi
    shift = math.atan2(b, a) + math.pi / 2.0
    n_lo, n_hi = math.ceil((q * t1 - shift) / math.pi) - 1, math.floor((q * t2 - shift) / math.pi) + 1
    zeros = ((shift + n * math.pi) / q for n in range(n_lo, n_hi + 1))
    return [t0 + region.x_ref for t0 in zeros if t1 < t0 < t2]


def _l2_antiderivative(region: RegionSolution, t: float) -> float:
    a, b, q = region.a_coef, region.b_coef, region.q
    if region.kind == "trig":
        s2 = math.sin(2.0 * q * t)
        c2 = math.cos(2.0 * q * t)
        return (
            0.5 * (a * a + b * b) * t
            + (a * a - b * b) * s2 / (4.0 * q)
            - a * b * c2 / (2.0 * q)
        )
    return a * a * t + a * b * t * t + b * b * t ** 3 / 3.0


def region_l2(region: RegionSolution, lo: Optional[float] = None, hi: Optional[float] = None) -> float:
    """Exact integral of value**2 over span intersected with [lo, hi]."""
    x1 = region.span[0] if lo is None else max(lo, region.span[0])
    x2 = region.span[1] if hi is None else min(hi, region.span[1])
    if not x2 > x1:
        return 0.0
    if region.kind == "hyper":
        # each squared exponential integrates to its square at its larger end times
        # (1 - e^(-2 q h)) / (2 q), which expm1 keeps accurate however small q h is
        a, b, q = region.a_coef, region.b_coef, region.q
        x_left, x_right = region.span
        grow, decay = a * math.exp(q * (x2 - x_right)), b * math.exp(-q * (x1 - x_left))
        length = -math.expm1(-2.0 * q * (x2 - x1)) / (2.0 * q)
        return (grow * grow + decay * decay) * length + 2.0 * a * b * math.exp(-q * (x_right - x_left)) * (x2 - x1)
    return _l2_antiderivative(region, x2 - region.x_ref) - _l2_antiderivative(region, x1 - region.x_ref)


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

    @property
    def inner_half_width(self) -> float:
        return -self.regions[0].span[1]

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
    if np.any(np.abs(arr) > half):
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


def _value_slope(region: RegionSolution, x: float) -> tuple[float, float]:
    """Scalar (value, slope) of the region's closed form at x."""
    a, b, q = region.a_coef, region.b_coef, region.q
    t = x - region.x_ref
    if region.kind == "trig":
        c, s = math.cos(q * t), math.sin(q * t)
        return a * c + b * s, q * (b * c - a * s)
    if region.kind == "hyper":
        grow, decay = a * math.exp(q * (x - region.span[1])), b * math.exp(-q * (x - region.span[0]))
        return grow + decay, q * (grow - decay)
    return a + b * t, b


def _seam_window(left: RegionSolution, right: RegionSolution, pad: float) -> float:
    """Half-width of the window about the seam between two pieces.

    psi may jump at a seam by about the root tolerance, which can put a
    zero of each piece on either side of it, within jump / slope.  The
    window is twice that and at least ``pad``, capped at a quarter of
    either span and of pi / q so that it holds no other zero.  Off an
    eigenvalue the jump can be as large as psi, and the window may then
    hide two of the sign changes psi has about the seam.
    """
    q = max(left.q, right.q)
    cap = 0.25 * min(left.span[1] - left.span[0], right.span[1] - right.span[0], math.pi / q if q else math.inf)
    (y_left, dy_left), (y_right, dy_right) = (_value_slope(r, left.span[1]) for r in (left, right))
    slope = max(abs(dy_left), abs(dy_right))
    return max(pad, min(2.0 * abs(y_left - y_right) / slope if slope > 0.0 else cap, cap))


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

    Computed from the exact per-region integrals of :func:`region_l2`, so
    the result is independent of the overall normalization and always lies
    in [0, 1].
    """
    a = psi.inner_half_width
    inner = sum(region_l2(r, -a, a) for r in psi.regions)
    total = sum(region_l2(r) for r in psi.regions)
    return inner / total
