import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from masswell.matching import build_solution
from masswell.profiles import (
    ConstantInner,
    MassProfile,
    ScaledInner,
    StepInner,
    TanhInner,
    WellGeometry,
)
from masswell.wavefunction import RegionSolution


def make(inner, L=2.0, a=1.0):
    return MassProfile(WellGeometry(L, a), inner)


class TestWellGeometry:
    def test_valid(self):
        g = WellGeometry(2.0, 1.0)
        assert g.L == 2.0 and g.a == 1.0

    @pytest.mark.parametrize("L,a", [(2.0, 2.0), (2.0, 2.5), (2.0, 0.0), (2.0, -1.0), (0.0, 0.0)])
    def test_invalid(self, L, a):
        with pytest.raises(ValueError):
            WellGeometry(L, a)

    def test_scaled_inner_rejects_nonpositive_b(self):
        for b in (0.0, -0.5):
            with pytest.raises(ValueError):
                ScaledInner(b)


def assert_mirror_even(psi, x):
    """The even state at |x| (scalar or array): both outer pieces agree, and
    so does the inner piece at +-x."""
    left, inner, right = psi.regions
    assert np.all(left.value(-np.abs(x)) == right.value(np.abs(x)))
    assert np.all(inner.value(x) == inner.value(np.negative(x)))


class TestMassAt:
    """The mass of each region at an energy.  For |x| < a it is the inner
    law's ``value``, which takes no position, so it is even in x; the outer
    mass is 1, seen only as the wavenumber q = sqrt|E| of the wall-grown
    piece.  The class keeps the name of the position lookup these laws were
    once read through."""

    def test_outer_region_unit_mass(self):
        profile = make(ConstantInner(-1.0))
        outer = build_solution(profile, 4.0, "even").regions[0]
        assert (outer.kind, outer.q) == ("trig", 2.0)
        outer = build_solution(profile, -37.2, "even").regions[0]
        assert (outer.kind, outer.q) == ("hyper", math.sqrt(37.2))

    def test_tanh_at_zero_energy(self):
        assert TanhInner().value(0.0) == 0.0

    def test_step_takes_negative_branch_at_threshold(self):
        # the threshold branch is closed from above
        step = StepInner(-4.0)
        assert step.value(-4.0) == -1.0
        assert step.value(-4.0 - 1e-12) == 1.0
        assert step.value(math.nextafter(-4.0, -math.inf)) == 1.0

    @given(
        x=st.floats(-1.999, 1.999, allow_nan=False),
        energy=st.floats(-1e4, 1e4, allow_nan=False),
    )
    def test_even_in_x(self, x, energy):
        # the law acts on the whole of |x| < a, so the even state mirrors exactly
        assert_mirror_even(build_solution(make(StepInner(-2.0)), energy, "even"), x)

    def test_even_on_random_grid(self):
        # 1e4 random (x, E) pairs, 500 positions per energy, exact equality
        rng = np.random.default_rng(42)
        profile = make(TanhInner())
        for e in rng.uniform(-50.0, 50.0, size=20):
            xs = rng.uniform(-2.0, 2.0, size=500) * 0.9999
            assert_mirror_even(build_solution(profile, float(e), "even"), xs)

    def test_tanh_limits(self):
        inner = TanhInner()
        assert abs(inner.value(-50.0) - 1.0) <= 1e-15
        assert abs(inner.value(50.0) + 1.0) <= 1e-15

    def test_step_agrees_with_constants_on_both_sides(self):
        step = StepInner(-9.0)
        neg = ConstantInner(-1.0)
        pos = ConstantInner(1.0)
        for e in np.linspace(-9.0, 80.0, 97):
            assert step.value(float(e)) == neg.value(float(e))
        for e in np.linspace(-80.0, -9.0, 97)[:-1]:
            assert step.value(float(e)) == pos.value(float(e))


class TestLocalQ2:
    """The squared local wavenumber m * E of each region: E outside, and the
    inner law's value times E inside."""

    def test_outer_is_energy(self):
        outer = build_solution(make(ConstantInner(-1.0)), 4.0, "odd").regions[0]
        assert outer.kind == "trig"
        assert outer.q * outer.q == 4.0

    def test_tanh_inner_matches_interpolating_wavenumber(self):
        # for E = k^2 the inner q^2 equals -(k sqrt(tanh k^2))^2
        q2 = TanhInner().value(1.0) * 1.0
        assert q2 == pytest.approx(-0.7615941559557649, abs=1e-15)
        lam = 1.0 * math.sqrt(math.tanh(1.0))
        assert q2 == pytest.approx(-lam * lam, abs=1e-15)

    def test_step_below_threshold_sign_bookkeeping(self):
        assert StepInner(0.0).value(-1.0) * -1.0 == -1.0

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            RegionSolution("nowhere", 1.0, 0.0, 1.0, 0.0, (-1.0, 1.0))


class TestArrayValue:
    ENERGIES = np.concatenate([np.linspace(-30.0, 30.0, 601), [-2.0, np.nextafter(-2.0, -np.inf), 0.0]])

    @pytest.mark.parametrize(
        "inner", [ConstantInner(-2.5), TanhInner(), StepInner(-2.0), ScaledInner(0.3)]
    )
    def test_elementwise_matches_scalar_calls(self, inner):
        got = np.broadcast_to(inner.value(self.ENERGIES), self.ENERGIES.shape)
        want = np.array([inner.value(float(e)) for e in self.ENERGIES])
        # batched tanh may round differently from the scalar path in the last bit
        ulps = 1 if isinstance(inner, TanhInner) else 0
        assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))

    def test_scalar_values_unchanged(self):
        step = StepInner(-2.0)
        assert step.value(-2.0) == -1.0
        assert step.value(np.nextafter(-2.0, -np.inf)) == 1.0
        assert isinstance(step.value(-2.0), float)
        assert ConstantInner(-2.5).value(1.0) == -2.5
        assert ScaledInner(0.5).value(1.0) == -4.0

    def test_step_float_is_its_array_entry(self):
        # the scalar residual reads the step law at every point: a float, -1.0 or 1.0 exactly as the array gives it
        step = StepInner(-2.0)
        for energy in (-2.0, float(np.nextafter(-2.0, -np.inf)), -np.inf, np.inf, 0.0, np.nan):
            got = step.value(energy)
            assert type(got) is float and got == step.value(np.array([energy]))[0]
