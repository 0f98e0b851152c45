import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masswell._rootscan import ScanResolutionError, isolate_sign_changes
from masswell.matching import _half_solution, build_solution, eigenvalues, mismatch
from masswell.profiles import (
    ConstantInner,
    MassProfile,
    ScaledInner,
    StepInner,
    TanhInner,
    WellGeometry,
)
from masswell.secular import (
    ConstantNegNeg,
    ConstantNegPos,
    RootWindow,
    StepNeg,
    TanhNeg,
    TanhPos,
    TwoParamNeg,
    find_roots,
)
from masswell.wavefunction import region_abs_max

G2 = WellGeometry(2.0, 1.0)
K_NP1_L2 = 2.347045566487087  # first root of tanh(k) tan(k) = -1


def profile_for(branch):
    g = branch.geometry
    if isinstance(branch, StepNeg):
        return MassProfile(g, StepInner(-branch.beta * branch.beta))
    if isinstance(branch, TwoParamNeg):
        return MassProfile(g, ScaledInner(branch.b))
    if isinstance(branch, (TanhPos, TanhNeg)):
        return MassProfile(g, TanhInner())
    return MassProfile(g, ConstantInner(-1.0))


class TestBuildSolution:
    def test_constant_negative_positive_energy_forms(self):
        profile = MassProfile(G2, ConstantInner(-1.0))
        k = 1.7
        psi = build_solution(profile, k * k, "even")
        outer, inner = psi.regions[0], psi.regions[1]
        assert outer.kind == "trig" and outer.q == pytest.approx(k, abs=1e-15)
        assert (outer.a_coef, outer.b_coef) == (0.0, 1.0)  # sin k(x+L) at the wall
        assert inner.kind == "hyper" and inner.q == pytest.approx(k, abs=1e-15)

    def test_zero_energy_is_linear(self):
        profile = MassProfile(G2, TanhInner())
        psi = build_solution(profile, 0.0, "even")
        assert all(r.kind == "linear" for r in psi.regions)
        # outer piece is proportional to (x + L)
        assert psi.regions[0].value(-1.0) == pytest.approx(1.0)
        assert psi.regions[0].value(-2.0) == 0.0

    def test_tanh_negative_energy_inner_wavenumber(self):
        profile = MassProfile(G2, TanhInner())
        kappa = 1.3
        psi = build_solution(profile, -kappa * kappa, "even")
        outer, inner = psi.regions[0], psi.regions[1]
        mu = kappa * math.sqrt(math.tanh(kappa * kappa))
        assert outer.kind == "hyper" and outer.q == pytest.approx(kappa, abs=1e-15)
        assert inner.kind == "hyper" and inner.q == pytest.approx(mu, abs=1e-14)

    @pytest.mark.parametrize("energy", [-7.3, -0.01, 0.0, 0.4, 9.0, 61.2])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_wall_and_matching_conditions_exact(self, energy, parity):
        profile = MassProfile(WellGeometry(2.5, 0.8), TanhInner())
        psi = build_solution(profile, energy, parity)
        outer, inner = psi.regions[0], psi.regions[1]
        a = profile.geometry.a
        scale = max(region_abs_max(outer), region_abs_max(inner))
        assert outer.value(-profile.geometry.L) == 0.0
        assert abs(outer.value(-a) - inner.value(-a)) <= 1e-13 * scale
        assert abs(outer.slope(-a) - inner.slope(-a)) <= 1e-13 * scale * max(1.0, inner.q)

    def test_parity_reflection(self):
        profile = MassProfile(G2, ConstantInner(-1.0))
        for parity, sign in (("even", 1.0), ("odd", -1.0)):
            psi = build_solution(profile, 3.3, parity)
            for x in (0.3, 0.9, 1.4, 1.9):
                left = psi.regions[0].value(-x) if x > 1.0 else psi.regions[1].value(-x)
                right = psi.regions[3].value(x) if x > 1.0 else psi.regions[2].value(x)
                assert right == pytest.approx(sign * left, rel=1e-14, abs=1e-300)


class TestMismatch:
    def test_zero_at_secular_root(self):
        profile = MassProfile(G2, ConstantInner(-1.0))
        assert abs(mismatch(profile, K_NP1_L2 * K_NP1_L2, "even")) <= 1e-9

    def test_generic_energy_nonzero(self):
        profile = MassProfile(G2, ConstantInner(-1.0))
        assert abs(mismatch(profile, 1.234, "odd")) > 1e-6

    def test_step_below_threshold_matches_positive_constant(self):
        step = MassProfile(G2, StepInner(-4.0))
        plus = MassProfile(G2, ConstantInner(1.0))
        for e in (-25.0, -9.0, -4.5):
            assert mismatch(step, e, "even") == mismatch(plus, e, "even")

    @settings(max_examples=60, deadline=None)
    @given(
        energy=st.floats(-40.0, 90.0, allow_nan=False),
        factor=st.floats(-8.0, 8.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3),
    )
    def test_scale_invariance(self, energy, factor):
        # rescaling both region coefficients moves the residual and the
        # amplitude together, so the scaled parity residual only flips sign
        profile = MassProfile(G2, TanhInner())
        outer, inner = _half_solution(profile, energy)
        v_scale = inner.q if inner.kind != "linear" else 1.0
        base = (inner.b_coef * v_scale) / max(region_abs_max(outer), region_abs_max(inner))
        outer_s, inner_s = outer.scaled(factor), inner.scaled(factor)
        scaled = (inner_s.b_coef * v_scale) / max(
            region_abs_max(outer_s), region_abs_max(inner_s)
        )
        assert scaled == pytest.approx(math.copysign(1.0, factor) * base, rel=1e-12, abs=1e-15)

    def test_parity_validated(self):
        profile = MassProfile(G2, TanhInner())
        with pytest.raises(ValueError):
            mismatch(profile, 1.0, "mixed")


class TestEigenvaluesUniformWell:
    def test_textbook_energies_and_parity_alternation(self):
        profile = MassProfile(G2, ConstantInner(1.0))
        even = [e for e, _ in eigenvalues(profile, (0.0, 70.0), "even")]
        odd = [e for e, _ in eigenvalues(profile, (0.0, 70.0), "odd")]
        merged = sorted((e, "even") for e in even) + sorted((e, "odd") for e in odd)
        merged.sort()
        for n, (energy, parity) in enumerate(merged[:10], start=1):
            exact = (n * math.pi / 4.0) ** 2
            assert energy == pytest.approx(exact, rel=1e-10)
            assert parity == ("even" if n % 2 == 1 else "odd")

    def test_states_are_normalized(self):
        profile = MassProfile(G2, ConstantInner(1.0))
        for _, psi in eigenvalues(profile, (0.0, 20.0), "even"):
            assert psi.l2_norm() == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    """Closed-form roots and the generic solver agree through E = +-t^2."""

    LS = (1.5, 2.0, 3.0)

    def check_positive(self, make_branch, n=10):
        for L in self.LS:
            g = WellGeometry(L, 1.0)
            branch = make_branch(g)
            hi = (2 * n + 3) * math.pi / (2.0 * (L - 1.0))
            ks = find_roots(branch, RootWindow(0.0, hi))[:n]
            assert len(ks) == n
            window = (0.0, ks[-1] ** 2 * 1.02 + 1.0)
            evs = [e for e, _ in eigenvalues(profile_for(branch), window, "even")]
            assert len(evs) >= n
            for k, e in zip(ks, evs):
                assert e == pytest.approx(k * k, rel=1e-10)

    def check_negative(self, make_branch, n=10):
        for L in self.LS:
            g = WellGeometry(L, 1.0)
            branch = make_branch(g)
            hi = (n + 2) * math.pi / g.a
            kaps = find_roots(branch, RootWindow(0.0, hi))[:n]
            assert len(kaps) == n
            window = (-(kaps[-1] ** 2) * 1.02 - 1.0, 0.0)
            evs = [e for e, _ in eigenvalues(profile_for(branch), window, "even")]
            assert len(evs) == n
            for k, e in zip(kaps, sorted(evs, reverse=True)):
                assert e == pytest.approx(-k * k, rel=1e-10)

    def test_constant_neg_pos(self):
        self.check_positive(ConstantNegPos)

    def test_tanh_pos(self):
        self.check_positive(TanhPos)

    def test_constant_neg_neg(self):
        self.check_negative(ConstantNegNeg)

    def test_step_neg(self):
        self.check_negative(lambda g: StepNeg(g, beta=40.0))

    def test_two_param_neg(self):
        def make(g):
            return TwoParamNeg(WellGeometry(g.L, 0.8), b=1.25)

        for L in self.LS:
            g = WellGeometry(L, 0.8)
            branch = TwoParamNeg(g, b=1.25)
            kaps = find_roots(branch, RootWindow(0.0, 12.0 * math.pi / branch.nu))[:10]
            assert len(kaps) == 10
            window = (-(kaps[-1] ** 2) * 1.02 - 1.0, 0.0)
            evs = [e for e, _ in eigenvalues(profile_for(branch), window, "even")]
            assert len(evs) == 10
            for k, e in zip(kaps, sorted(evs, reverse=True)):
                assert e == pytest.approx(-k * k, rel=1e-10)

    def test_tanh_neg_empty_on_both_routes(self):
        for L in self.LS:
            g = WellGeometry(L, 1.0)
            assert find_roots(TanhNeg(g), RootWindow(0.0, 100.0)) == []
            profile = MassProfile(g, TanhInner())
            assert eigenvalues(profile, (-100.0, -1e-9), "even") == []


class TestOddParityClosedForms:
    """Hand-derived odd-state conditions, checked against the solver only.

    For inner mass -1 and a = 1 the odd ansatz (outer sin k(x+L) or
    sinh kappa(x+L), inner sinh kx or sin kappa x) gives
      positive branch:  tan(k (L-1)) = -tanh(k)
      negative branch:  tanh(kappa (L-1)) = -tan(kappa)
    """

    def test_positive_branch(self):
        L = 2.0
        f = lambda k: math.tan(k * (L - 1.0)) + math.tanh(k)
        ks = []
        for n in range(1, 4):
            a, b = n * math.pi - math.pi / 2.0 + 1e-6, n * math.pi + math.pi / 2.0 - 1e-6
            fa, fb = f(a), f(b)
            assert fa * fb < 0.0
            for _ in range(200):
                m = 0.5 * (a + b)
                if (f(m) < 0.0) == (fa < 0.0):
                    a, fa = m, f(m)
                else:
                    b = m
            ks.append(0.5 * (a + b))
        profile = MassProfile(WellGeometry(L, 1.0), ConstantInner(-1.0))
        evs = [e for e, _ in eigenvalues(profile, (0.0, ks[-1] ** 2 + 5.0), "odd")]
        assert len(evs) == 3
        for k, e in zip(ks, evs):
            assert e == pytest.approx(k * k, rel=1e-10)

    def test_negative_branch(self):
        L = 2.0
        f = lambda k: math.tanh(k * (L - 1.0)) + math.tan(k)
        roots = []
        for n in range(1, 3):
            a, b = n * math.pi - math.pi / 2.0 + 1e-6, n * math.pi - 1e-6
            fa = f(a)
            assert fa * f(b) < 0.0
            for _ in range(200):
                m = 0.5 * (a + b)
                if (f(m) < 0.0) == (fa < 0.0):
                    a, fa = m, f(m)
                else:
                    b = m
            roots.append(0.5 * (a + b))
        profile = MassProfile(WellGeometry(L, 1.0), ConstantInner(-1.0))
        evs = [e for e, _ in eigenvalues(profile, (-(roots[-1] ** 2) - 2.0, 0.0), "odd")]
        assert len(evs) == 2
        for k, e in zip(roots, sorted(evs, reverse=True)):
            assert e == pytest.approx(-k * k, rel=1e-10)


class TestScanMachinery:
    def test_unresolvable_oscillation_raises(self):
        f = lambda ts: np.sin(1.0 / np.asarray(ts))
        with pytest.raises(ScanResolutionError):
            isolate_sign_changes(f, 1e-4, 0.1, samples=64)

    def test_exact_zero_at_sample_point(self):
        f = lambda ts: np.asarray(ts) - 0.5
        brackets, exact = isolate_sign_changes(f, 0.0, 1.0, samples=2)
        assert exact == [0.5]
        assert brackets == []

    def test_window_validation(self):
        profile = MassProfile(G2, ConstantInner(1.0))
        with pytest.raises(ValueError):
            eigenvalues(profile, (1.0, 1.0), "even")
        with pytest.raises(ValueError):
            eigenvalues(profile, (0.0, 1.0), "even", tol=0.0)
        with pytest.raises(ValueError):
            eigenvalues(profile, (0.0, 1.0), "sideways")

    @pytest.mark.parametrize(
        "window, tol",
        [((-math.inf, 10.0), 1e-12), ((0.0, math.inf), 1e-12), ((math.nan, 1.0), 1e-12), ((0.0, 30.0), math.inf)],
    )
    def test_non_finite_window_or_tol_rejected(self, window, tol):
        profile = MassProfile(G2, ConstantInner(-1.0))
        with pytest.raises(ValueError):
            eigenvalues(profile, window, "even", tol=tol)
