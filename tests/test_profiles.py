import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from masswell.profiles import (
    ConstantInner,
    MassProfile,
    ScaledInner,
    StepInner,
    TanhInner,
    WellGeometry,
    local_q2,
    mass_at,
)


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


class TestMassAt:
    def test_outer_region_unit_mass(self):
        profile = make(ConstantInner(-1.0))
        assert mass_at(profile, 1.5, 0.0) == 1.0
        assert mass_at(profile, 1.5, -37.2) == 1.0

    def test_tanh_at_zero_energy(self):
        profile = make(TanhInner())
        assert mass_at(profile, 0.0, 0.0) == 0.0

    def test_step_takes_negative_branch_at_threshold(self):
        profile = make(StepInner(-4.0))
        assert mass_at(profile, 0.0, -4.0) == -1.0
        assert mass_at(profile, 0.0, -4.0 - 1e-12) == 1.0

    def test_outside_well_rejected(self):
        profile = make(ConstantInner(-1.0))
        for x in (2.0, -2.0, 5.0):
            with pytest.raises(ValueError):
                mass_at(profile, x, 0.0)

    def test_breakpoint_belongs_to_outer(self):
        profile = make(ConstantInner(-1.0))
        assert mass_at(profile, 1.0, 10.0) == 1.0
        assert mass_at(profile, math.nextafter(1.0, 0.0), 10.0) == -1.0

    @given(
        x=st.floats(-1.999, 1.999, allow_nan=False),
        energy=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_even_in_x(self, x, energy):
        profile = make(StepInner(-2.0))
        assert mass_at(profile, x, energy) == mass_at(profile, -x, energy)

    def test_even_on_random_grid(self):
        # 1e4 random (x, E) pairs, exact equality
        rng = np.random.default_rng(42)
        profile = make(TanhInner())
        xs = rng.uniform(-2.0, 2.0, size=10_000) * 0.9999
        es = rng.uniform(-50.0, 50.0, size=10_000)
        for x, e in zip(xs, es):
            assert mass_at(profile, float(x), float(e)) == mass_at(profile, -float(x), float(e))

    def test_tanh_limits(self):
        profile = make(TanhInner())
        assert abs(mass_at(profile, 0.0, -50.0) - 1.0) <= 1e-15
        assert abs(mass_at(profile, 0.0, 50.0) + 1.0) <= 1e-15

    def test_step_agrees_with_constants_on_both_sides(self):
        step = make(StepInner(-9.0))
        neg = make(ConstantInner(-1.0))
        pos = make(ConstantInner(1.0))
        for e in np.linspace(-9.0, 80.0, 97):
            assert mass_at(step, 0.3, float(e)) == mass_at(neg, 0.3, float(e))
        for e in np.linspace(-80.0, -9.0, 97)[:-1]:
            assert mass_at(step, 0.3, float(e)) == mass_at(pos, 0.3, float(e))


class TestLocalQ2:
    def test_outer_is_energy(self):
        profile = make(ConstantInner(-1.0))
        assert local_q2(profile, "outer", 4.0) == 4.0

    def test_tanh_inner_matches_interpolating_wavenumber(self):
        # for E = k^2 the inner q^2 equals -(k sqrt(tanh k^2))^2
        profile = make(TanhInner())
        q2 = local_q2(profile, "inner", 1.0)
        assert q2 == pytest.approx(-0.7615941559557649, abs=1e-15)
        lam = 1.0 * math.sqrt(math.tanh(1.0))
        assert q2 == pytest.approx(-lam * lam, abs=1e-15)

    def test_step_below_threshold_sign_bookkeeping(self):
        profile = make(StepInner(0.0))
        assert local_q2(profile, "inner", -1.0) == -1.0

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            local_q2(make(TanhInner()), "nowhere", 1.0)


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
