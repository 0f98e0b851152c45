"""Closed-form quantization conditions and their roots, each from its own bracket.

Each branch packages one transcendental equation in a single positive
variable t (the wavenumber k for E = t**2, or kappa for E = -t**2) as a
residual whose sign changes locate eigenvalues.  Every branch but the
deep-narrow limit has the form ``inner(t) * outer(t (L-a)) = rhs`` and
differs from the others only in that data.  Where a factor is a tangent,
tan(u) * X = rhs is multiplied through by cos u: sin(u) X - rhs cos(u)
equals +-X at a zero of cos u, and X > 0 for t > 0, so the residual has
the same zeros and no poles.  Every search names each root by the
integer j that :meth:`SecularBranch.turns` takes there and refines it
from :meth:`SecularBranch.brackets`, with no scan.

Branch forms reduce to the canonical a = 1 equations when the geometry
has unit inner half-width; general ``a`` only rescales the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rootscan import _MAX_BREAKS, DEFAULT_TOL, ScanResolutionError, bracket_roots, check_count
from .profiles import WellGeometry

__all__ = [
    "DEFAULT_TOL",
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

#: tanh(x) is 1.0 in floats for x >= 22, so clamping an argument there changes no value and no
#: product towards it overflows
_TANH_ONE = 22.0


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


class SecularBranch:
    """One quantization condition ``inner(t) * outer(t (L-a)) = rhs`` in one
    positive variable t.

    ``inner`` is the inner-region factor and ``outer`` is ``np.tan`` for
    E = t**2 or ``np.tanh`` for E = -t**2.
    """

    name: str = "?"
    outer = np.tanh
    rhs: float
    #: one factor is tan(t * tan_scale); None means neither is a tangent
    tan_scale: Optional[float] = None
    #: upper admissibility cut on t (step model); None means no cut
    clip_hi: Optional[float] = None
    curve_labels: tuple[str, str] = ("lhs", "rhs")
    #: attributes that :meth:`describe` prints after the geometry
    described: tuple[str, ...] = ()

    def __init__(self, geometry: WellGeometry):
        self.geometry = geometry

    def inner(self, t):
        raise NotImplementedError

    def _cofactor(self, t):
        g = self.geometry  # X, the factor that is not the tangent: positive for t > 0
        return self.inner(t) if self.outer is np.tan else self.outer(t * (g.L - g.a))

    def residual_raw(self, t):
        """LHS - RHS of the branch equation, times cos(t * tan_scale) when a
        factor is that tangent."""
        g = self.geometry
        if self.tan_scale is None:
            return self.inner(t) * self.outer(t * (g.L - g.a)) - self.rhs
        u = t * self.tan_scale
        return np.sin(u) * self._cofactor(t) - self.rhs * np.cos(u)

    def turns(self, t: float) -> float:
        """(u - atan(rhs / X)) / pi at u = t * tan_scale, an integer exactly at the roots of the residual
        sqrt(X^2 + rhs^2) sin(u - atan(rhs / X)); with no tangent, half the residual's sign, which
        :class:`TanhNeg` (residual >= 1) and :class:`TwoParamReduced` (rising) change at most once."""
        if self.tan_scale is None:
            return 0.5 * float(np.sign(self.residual_raw(t)))
        return (t * self.tan_scale - math.atan2(self.rhs, float(self._cofactor(t)))) / math.pi

    def brackets(self, j):
        """``(lo, hi, rising)`` of root j, where :meth:`turns` is j, for each integer of the array ``j``.

        The residual is R sin(u - delta), delta = atan2(rhs, X), and 0 < X <= 1 for t > 0, so root j,
        at u = j pi + delta, lies between u = j pi + atan2(rhs, 1) (the root to the float floor where X
        rounds to 1) and j pi + copysign(pi/2, rhs), and the residual rises through it for even j.
        One root per bracket needs turns monotone.  ConstantNegNeg, StepNeg, TwoParamNeg: X = tanh
        rises, so delta falls and turns strictly rises.  ConstantNegPos: delta' = a (1 - X^2) / (1 + X^2)
        falls, so u - delta is convex from pi/2 and crosses each j pi with j >= 1 once.  TanhPos: only
        measured; on 3,000 random geometries (L from 1e-2 to 1e3, a or L - a down to 1e-4 L) turns rose
        everywhere past u = pi/2.
        """
        edges = math.atan2(self.rhs, 1.0), math.copysign(math.pi / 2.0, self.rhs)
        return (j * math.pi + min(edges)) / self.tan_scale, (j * math.pi + max(edges)) / self.tan_scale, j % 2 == 0

    def curve_pair(self, t):
        """``inner`` and ``rhs / outer`` up to one common sign; they cross at the roots."""
        g = self.geometry
        return math.copysign(1.0, self.rhs) * self.inner(t), abs(self.rhs) / self.outer(t * (g.L - g.a))

    def curve_breaks(self, lo: float, hi: float) -> list[float]:
        """Singular points of the curve pair strictly inside (lo, hi): the zeros of a tan outer factor, otherwise the
        poles of a tan inner one.  Raises ``OverflowError`` where there would be more than ``_MAX_BREAKS``."""
        c = self.tan_scale
        if c is None:
            return []
        count = (hi - lo) * c / math.pi
        if not count <= _MAX_BREAKS:
            raise OverflowError(f"range {lo!r}:{hi!r} holds {count:.3g} curve breaks, more than {_MAX_BREAKS}")
        # the index range overlaps both ends, so rounding in lo c / pi or hi c / pi drops no point
        j = np.arange(max(math.floor(lo * c / math.pi), 0), math.floor(hi * c / math.pi) + 2)
        points = j * (math.pi / c) if self.outer is np.tan else (2 * j + 1) * math.pi / (2.0 * c)
        return points[(points > max(lo, 0.0)) & (points < hi)].tolist()

    def describe(self) -> str:
        g = self.geometry
        extra = "".join(f" {key}={getattr(self, key):g}" for key in self.described)
        return f"{self.name} L={g.L:g} a={g.a:g}{extra}"


class _PositiveBranch(SecularBranch):
    """E = k^2: ``inner(k) * tan(k (L-a)) = -1``."""

    outer = np.tan
    rhs = -1.0

    @property
    def tan_scale(self) -> float:
        return self.geometry.L - self.geometry.a


def _tanh_inner(t, a):
    """sqrt(tanh t^2) * tanh(a t sqrt(tanh t^2)), the inner factor of the tanh law; a float takes ``min`` and
    ``math.sqrt`` but numpy's tanh, as ``math.tanh`` can differ from it in the last bit, so it is its array entry."""
    if isinstance(t, float):
        clamped = min(t, _TANH_ONE)
        root = math.sqrt(np.tanh(clamped * clamped))
        return root * float(np.tanh(min(t * root, _TANH_ONE / a) * a))
    clamped = np.minimum(t, _TANH_ONE)
    root = np.sqrt(np.tanh(clamped * clamped))
    return root * np.tanh(np.minimum(t * root, _TANH_ONE / a) * a)


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
    def tan_scale(self) -> float:
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
        self.tan_scale = self.nu
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
        return t - self.b_over_nu / np.tanh(np.minimum(t, _TANH_ONE / self.L) * self.L)

    def brackets(self, j):
        """Root 0, rising from c = b/nu, where the residual is -c (coth(c L) - 1) <= 0, to c coth(c L), where it
        is about 8 u exp(-4 u) c with u = c L, which rounds away (the root to the float floor) past c L ~ 10.
        Raises ``FloatingPointError`` where c L underflows to 0, as the residual then divides by zero."""
        c = self.b_over_nu
        if not c * self.L > 0.0:
            raise FloatingPointError(
                f"b/nu * L = {c!r} * {self.L!r} underflows to 0, so no bracket holds the fixed point"
            )
        return c, c / math.tanh(c * self.L), True

    def curve_pair(self, t):
        return np.asarray(t, dtype=float), self.b_over_nu / np.tanh(np.minimum(t, _TANH_ONE / self.L) * self.L)

    def describe(self) -> str:
        return f"{self.name} L={self.L:g} b/nu={self.b_over_nu:g}"


BRANCHES = {
    branch.name: branch
    for branch in (ConstantNegPos, ConstantNegNeg, TanhPos, TanhNeg, StepNeg, TwoParamNeg, TwoParamReduced)
}


def find_roots(branch: SecularBranch, window: RootWindow) -> list[float]:
    """All roots of the branch residual inside the window, strictly increasing; possibly none.

    The integers that :meth:`SecularBranch.turns` passes on the window, clipped to the admissible t and
    floored above t = 0, name the roots, each refined to ``window.tol`` from its bracket clipped to the
    window.  More than ``_MAX_BREAKS`` roots, or a count that is not finite, raise ``ScanSizeError``.
    """
    lo = max(window.lo, 1e-12)  # the deep-narrow residual divides by tanh(t L)
    hi = window.hi if branch.clip_hi is None else min(window.hi, branch.clip_hi)
    if not hi > lo:
        return []
    first, last = branch.turns(lo), branch.turns(hi)
    check_count(last - first, f"the window {lo!r}:{hi!r}")
    j = np.arange(math.ceil(first), math.floor(last) + 1)
    if not j.size:  # no root, and TanhNeg has no brackets
        return []
    a, b, rising = branch.brackets(j)
    return bracket_roots(branch.residual_raw, np.maximum(a, lo), np.minimum(b, hi), rising, window.tol)


def critical_betas(geometry: WellGeometry, count: int, tol: float = DEFAULT_TOL) -> list[float]:
    """First ``count`` threshold strengths at which a new lowest state appears: the first roots of
    the :class:`ConstantNegNeg` residual, in increasing order, each refined to ``tol`` from its
    bracket ((j pi + pi/4) / a, (j pi + pi/2) / a)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    branch = ConstantNegNeg(geometry)
    return bracket_roots(branch.residual_raw, *branch.brackets(np.arange(count)), tol)


def reduced_kappa1(b_over_nu: float, L: float, tol: float = DEFAULT_TOL) -> float:
    """Unique positive fixed point of kappa = (b/nu) * coth(kappa * L), refined to ``tol`` from its
    :meth:`TwoParamReduced.brackets`: the left side rises and the right side falls in kappa."""
    branch = TwoParamReduced(L, b_over_nu)
    return bracket_roots(branch.residual_raw, *branch.brackets(np.arange(1)), tol)[0]
