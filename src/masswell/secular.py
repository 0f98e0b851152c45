"""Closed-form quantization conditions and a pole-aware bracketing root finder.

Each branch packages one transcendental equation in a single positive
variable t (the wavenumber k for E = t**2, or kappa for E = -t**2) as a
residual LHS - RHS whose sign changes locate eigenvalues.  Every branch
but the deep-narrow limit has the form ``inner(t) * outer(t (L-a)) = rhs``
and differs from the others only in that data.  Tangent poles
are enumerated analytically, the open intervals between consecutive
poles are clipped to the search window, scanned, and each isolated
crossing is bisected.  Between poles every residual here crosses zero at
most once; the rescan guard in :mod:`masswell._rootscan` checks that at
runtime instead of trusting it.

Branch forms reduce to the canonical a = 1 equations when the geometry
has unit inner half-width; general ``a`` only rescales the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rootscan import ScanResolutionError, bisect_root, roots_in, segments_between
from .profiles import WellGeometry

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_POLE_MARGIN",
    "PoleProximityError",
    "ScanResolutionError",
    "RootWindow",
    "SecularBranch",
    "BRANCHES",
    "ConstantNegPos",
    "ConstantNegNeg",
    "TanhPos",
    "TanhNeg",
    "StepNeg",
    "TwoParamNeg",
    "TwoParamReduced",
    "find_roots",
    "critical_betas",
    "reduced_kappa1",
]

DEFAULT_TOL = 1e-12
#: width kept clear on either side of each tangent pole
DEFAULT_POLE_MARGIN = 1e-8 * math.pi


class PoleProximityError(ValueError):
    """Residual evaluated inside the excluded neighborhood of a tangent pole."""


@dataclass(frozen=True)
class RootWindow:
    """Search window (lo, hi] with absolute tolerance."""

    lo: float
    hi: float
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi < math.inf):
            raise ValueError(f"require 0 <= lo < hi < inf, got {self.lo!r}, {self.hi!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


def _tan_pole_distance(t, scale):
    """Distance from t to the nearest pole of tan(scale * t)."""
    y = np.asarray(t, dtype=float) * scale
    u = y / math.pi - 0.5
    return np.abs(u - np.round(u)) * math.pi / scale


def _progression(point, j, lo, hi):
    """point(j), point(j + 1), ... that lie strictly inside (lo, hi); point increases."""
    out = []
    while (p := point(j)) < hi:
        if p > lo:
            out.append(p)
        j += 1
    return out


class SecularBranch:
    """One quantization condition ``inner(t) * outer(t (L-a)) = rhs`` in one
    positive variable t.

    ``inner`` is the inner-region factor and ``outer`` is ``np.tan`` for
    E = t**2 or ``np.tanh`` for E = -t**2.
    """

    name: str = "?"
    outer = np.tanh
    rhs: float
    #: poles sit at t = (2j+1) pi / (2 pole_scale); None means pole-free
    pole_scale: Optional[float] = None
    #: upper admissibility cut on t (step model); None means no cut
    clip_hi: Optional[float] = None
    curve_labels: tuple[str, str] = ("lhs", "rhs")
    #: attributes that :meth:`describe` prints after the geometry
    described: tuple[str, ...] = ()

    def __init__(self, geometry: WellGeometry):
        self.geometry = geometry

    def inner(self, t):
        raise NotImplementedError

    def residual_raw(self, t):
        g = self.geometry
        return self.inner(t) * self.outer(t * (g.L - g.a)) - self.rhs

    def residual(self, t):
        """LHS - RHS of the branch equation, guarded against pole proximity."""
        arr = np.asarray(t, dtype=float)
        if self.pole_scale is not None:
            near = _tan_pole_distance(arr, self.pole_scale) < DEFAULT_POLE_MARGIN
            if np.any(near):
                bad = float(np.atleast_1d(arr)[np.atleast_1d(near)][0])
                raise PoleProximityError(
                    f"t = {bad!r} is within {DEFAULT_POLE_MARGIN!r} of a tangent pole "
                    f"of branch {self.name}"
                )
        out = self.residual_raw(arr)
        return float(out) if np.ndim(t) == 0 else out

    def poles_between(self, lo: float, hi: float) -> list[float]:
        """Tangent poles strictly inside (lo, hi), ascending."""
        if self.pole_scale is None:
            return []
        c = self.pole_scale
        first = max(math.ceil((2.0 * c * lo / math.pi - 1.0) / 2.0), 0)
        return _progression(lambda j: (2 * j + 1) * math.pi / (2.0 * c), first, lo, hi)

    def curve_pair(self, t):
        """``inner`` and ``rhs / outer`` up to one common sign; they cross at the roots."""
        g = self.geometry
        return math.copysign(1.0, self.rhs) * self.inner(t), abs(self.rhs) / self.outer(t * (g.L - g.a))

    def curve_breaks(self, lo: float, hi: float) -> list[float]:
        """Singular points of the curve pair strictly inside (lo, hi): the
        zeros of a tan outer factor, otherwise the tangent poles."""
        if self.outer is not np.tan:
            return self.poles_between(lo, hi)
        step = math.pi / (self.geometry.L - self.geometry.a)
        return _progression(lambda j: j * step, max(math.ceil(lo / step), 1), lo, hi)

    def describe(self) -> str:
        g = self.geometry
        extra = "".join(f" {key}={getattr(self, key):g}" for key in self.described)
        return f"{self.name} L={g.L:g} a={g.a:g}{extra}"


class _PositiveBranch(SecularBranch):
    """E = k^2: ``inner(k) * tan(k (L-a)) = -1``, with poles of the tangent."""

    outer = np.tan
    rhs = -1.0

    @property
    def pole_scale(self) -> float:
        return self.geometry.L - self.geometry.a


def _tanh_inner(t, a):
    """sqrt(tanh t^2) * tanh(a t sqrt(tanh t^2)), the inner factor of the tanh law."""
    root = np.sqrt(np.tanh(t * t))
    return root * np.tanh(t * root * a)


class ConstantNegPos(_PositiveBranch):
    """E = k^2 branch for inner mass -1: tanh(k a) * tan(k (L-a)) = -1."""

    name = "constant-neg-pos"
    curve_labels = ("-tanh(a*k)", "cot(k*(L-a))")

    def inner(self, t):
        return np.tanh(t * self.geometry.a)


class ConstantNegNeg(SecularBranch):
    """E = -kappa^2 branch for inner mass -1: tan(kappa a) * tanh(kappa (L-a)) = 1."""

    name = "constant-neg-neg"
    curve_labels = ("tan(a*k)", "coth(k*(L-a))")
    rhs = 1.0

    @property
    def pole_scale(self) -> float:
        return self.geometry.a

    def inner(self, t):
        return np.tan(t * self.geometry.a)


class TanhPos(_PositiveBranch):
    """E = k^2 branch for inner mass -tanh(E):
    sqrt(tanh k^2) * tanh(a lam(k)) * tan(k (L-a)) = -1 with lam = k sqrt(tanh k^2)."""

    name = "tanh-pos"
    curve_labels = ("-sqrt(tanh(k^2))*tanh(a*lam(k))", "cot(k*(L-a))")

    def inner(self, t):
        return _tanh_inner(t, self.geometry.a)


class TanhNeg(SecularBranch):
    """E = -kappa^2 branch for inner mass -tanh(E):
    sqrt(tanh kappa^2) * tanh(a mu(kappa)) * tanh(kappa (L-a)) = -1.

    Every factor on the left is nonnegative for kappa > 0, so the
    residual stays at or above 1 and the branch has no roots.
    """

    name = "tanh-neg"
    rhs = -1.0
    curve_labels = ("-sqrt(tanh(k^2))*tanh(a*mu(k))", "coth(k*(L-a))")

    def inner(self, t):
        return _tanh_inner(t, self.geometry.a)


class StepNeg(ConstantNegNeg):
    """Negative branch of the step-threshold model.

    Same equation as :class:`ConstantNegNeg`; admissibility restricts the
    roots to kappa <= beta, with the boundary value kappa = beta admitted
    as a valid state.
    """

    name = "step-neg"
    described = ("beta",)

    def __init__(self, geometry: WellGeometry, beta: float):
        if not beta > 0.0:
            raise ValueError(f"require beta > 0, got {beta!r}")
        super().__init__(geometry)
        self.beta = beta
        self.clip_hi = beta


class TwoParamNeg(SecularBranch):
    """E = -kappa^2 branch for inner mass -1/b^2 on |x| < a:
    tan(kappa a / b) * tanh(kappa (L-a)) = b.

    The ratio nu = a/b enters the tangent argument directly; passing it
    explicitly avoids forming a/b from two tiny numbers.
    """

    name = "two-param-neg"
    curve_labels = ("tan(nu*k)", "b*coth(k*(L-a))")
    described = ("b", "nu")

    def __init__(self, geometry: WellGeometry, b: float, nu: Optional[float] = None):
        if not b > 0.0:
            raise ValueError(f"require b > 0, got {b!r}")
        super().__init__(geometry)
        self.b = b
        self.nu = geometry.a / b if nu is None else nu
        if not self.nu > 0.0:
            raise ValueError(f"require nu > 0, got {self.nu!r}")
        self.pole_scale = self.nu
        self.rhs = b

    def inner(self, t):
        return np.tan(t * self.nu)


class TwoParamReduced(SecularBranch):
    """Deep-narrow limit of the two-parameter model: kappa = (b/nu) coth(kappa L)."""

    name = "two-param-reduced"
    curve_labels = ("k", "(b/nu)*coth(k*L)")

    def __init__(self, L: float, b_over_nu: float):
        if not L > 0.0:
            raise ValueError(f"require L > 0, got {L!r}")
        if not b_over_nu > 0.0:
            raise ValueError(f"require b/nu > 0, got {b_over_nu!r}")
        self.L = L
        self.b_over_nu = b_over_nu

    def residual_raw(self, t):
        return t - self.b_over_nu / np.tanh(t * self.L)

    def curve_pair(self, t):
        return np.asarray(t, dtype=float), self.b_over_nu / np.tanh(t * self.L)

    def describe(self) -> str:
        return f"{self.name} L={self.L:g} b/nu={self.b_over_nu:g}"


BRANCHES = {
    branch.name: branch
    for branch in (ConstantNegPos, ConstantNegNeg, TanhPos, TanhNeg, StepNeg, TwoParamNeg, TwoParamReduced)
}


def find_roots(branch: SecularBranch, window: RootWindow) -> list[float]:
    """All roots of the branch residual inside the window, strictly increasing.

    Brackets are the intervals between consecutive tangent poles clipped
    to the window and shrunk by ``DEFAULT_POLE_MARGIN``; each is scanned
    at 64 points with the rescan stability guard, then every crossing is
    bisected to ``window.tol``.  An empty list is a legitimate outcome,
    not an error.
    """
    lo = max(window.lo, DEFAULT_POLE_MARGIN)
    hi = window.hi if branch.clip_hi is None else min(window.hi, branch.clip_hi)
    if not hi > lo:
        return []
    f = branch.residual_raw

    def f_scalar(t):
        return float(f(np.float64(t)))

    segments = segments_between(lo, hi, branch.poles_between(lo, hi), DEFAULT_POLE_MARGIN)
    return roots_in(f, f_scalar, segments, 64, window.tol)


def critical_betas(geometry: WellGeometry, count: int, tol: float = DEFAULT_TOL) -> list[float]:
    """First ``count`` threshold strengths at which a new lowest state appears.

    These are exactly the first roots of the :class:`ConstantNegNeg`
    residual (the same equation, evaluated through the same object), in
    increasing order.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    branch = ConstantNegNeg(geometry)
    hi = (count + 1) * math.pi / geometry.a
    while True:
        roots = find_roots(branch, RootWindow(0.0, hi, tol=tol))
        if len(roots) >= count:
            return roots[:count]
        hi *= 2.0


def reduced_kappa1(b_over_nu: float, L: float, tol: float = DEFAULT_TOL) -> float:
    """Unique positive fixed point of kappa = (b/nu) * coth(kappa * L).

    The left side is increasing and the right side decreasing in kappa,
    so a single crossing exists.  It is bracketed analytically between
    c = b/nu and c * coth(c L) and bisected to ``tol``.
    """
    if not b_over_nu > 0.0:
        raise ValueError(f"require b/nu > 0, got {b_over_nu!r}")
    if not L > 0.0:
        raise ValueError(f"require L > 0, got {L!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    c = b_over_nu

    def f(k: float) -> float:
        return k - c / math.tanh(k * L)

    lo = c
    hi = c / math.tanh(c * L)
    return bisect_root(f, lo, hi, f(lo), f(hi), tol)
