"""Well geometry and the catalog of piecewise-constant effective-mass laws.

The potential is an infinite square well: V = 0 on (-L, L) and infinite
outside, so every state obeys psi(-L) = psi(L) = 0.  The effective mass
equals 1 in the outer region a < |x| < L and follows one of the inner
laws below for |x| < a.  Inner laws may depend on the energy and may be
negative.  Units fix hbar^2/2 = 1, so the squared local wavenumber of a
region is simply m * E.  Every inner law's ``value`` maps a float to a
float and an array of energies elementwise.  ``breaks`` lists where it jumps, taking
its value from above; wherever m * E > 0, m is constant between E = 0 and breaks.

All profile values are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "WellGeometry",
    "ConstantInner",
    "TanhInner",
    "StepInner",
    "ScaledInner",
    "InnerLaw",
    "INNER_LAWS",
    "MassProfile",
]


@dataclass(frozen=True)
class WellGeometry:
    """Infinite-well half-width ``L`` and inner-region half-width ``a``."""

    L: float
    a: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.a < self.L):
            raise ValueError(f"require 0 < a < L, got a={self.a!r}, L={self.L!r}")


@dataclass(frozen=True)
class ConstantInner:
    """Energy-independent inner mass ``m0``."""

    law: ClassVar[str] = "constant"
    breaks: ClassVar[tuple[float, ...]] = ()
    m0: float = -1.0

    def value(self, energy: float) -> float:
        return self.m0


@dataclass(frozen=True)
class TanhInner:
    """Inner mass -tanh(E): tends to +1 far below E = 0 and to -1 far above."""

    law: ClassVar[str] = "tanh"
    breaks: ClassVar[tuple[float, ...]] = ()

    def value(self, energy):
        return -np.tanh(energy)


@dataclass(frozen=True)
class StepInner:
    """Inner mass -1 for E >= e_thr and +1 below the threshold.

    The threshold branch is closed from above: exactly at ``e_thr`` the
    inner mass is -1.
    """

    law: ClassVar[str] = "step"
    e_thr: float

    @property
    def breaks(self) -> tuple[float, ...]:
        return (self.e_thr,)

    def value(self, energy):
        if isinstance(energy, float):
            return -1.0 if energy >= self.e_thr else 1.0
        return np.where(np.asarray(energy) >= self.e_thr, -1.0, 1.0)[()]


@dataclass(frozen=True)
class ScaledInner:
    """Inner mass -1/b**2 with a constant scale ``b > 0``."""

    law: ClassVar[str] = "scaled"
    breaks: ClassVar[tuple[float, ...]] = ()
    b: float

    def __post_init__(self) -> None:
        if not self.b > 0.0:
            raise ValueError(f"require b > 0, got b={self.b!r}")

    def value(self, energy: float) -> float:
        return -1.0 / (self.b * self.b)


InnerLaw = Union[ConstantInner, TanhInner, StepInner, ScaledInner]
#: inner-law classes by the name each gives itself
INNER_LAWS = {law.law: law for law in (ConstantInner, TanhInner, StepInner, ScaledInner)}


@dataclass(frozen=True)
class MassProfile:
    """Symmetric piecewise-constant mass over the well: ``inner`` for
    |x| < a and 1 in the outer region."""

    geometry: WellGeometry
    inner: InnerLaw

    def describe(self) -> str:
        """One-line label: the inner law and its parameters, then L and a."""
        params = {**asdict(self.inner), "L": self.geometry.L, "a": self.geometry.a}
        return " ".join([f"inner={self.inner.law}"] + [f"{k}={v:.17g}" for k, v in params.items()])

    def pieces(self, lo: float, hi: float) -> list[tuple[float, float, float]]:
        """(e0, e1, r) per stretch [e0, e1) of [lo, hi] cut at E = 0 and at the breaks, where
        r = sqrt(max(m sign E, 0)) with m read once at e0: a law takes its value from above at
        a break, so the stretch owns e0.  r > 0 exactly where the inner region oscillates."""
        cuts = sorted({lo, hi, *(e for e in (0.0, *self.inner.breaks) if lo < e < hi)})
        signed = [float(self.inner.value(e0)) * (1.0 if e0 >= 0.0 else -1.0) for e0 in cuts[:-1]]
        return [(e0, e1, math.sqrt(max(m, 0.0))) for e0, e1, m in zip(cuts, cuts[1:], signed)]
