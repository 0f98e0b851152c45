import math

import numpy as np
import pytest

from masswell.profiles import WellGeometry
from masswell.secular import (
    BRANCHES,
    ConstantNegNeg,
    ConstantNegPos,
    PoleProximityError,
    RootWindow,
    StepNeg,
    TanhNeg,
    TanhPos,
    TwoParamNeg,
    TwoParamReduced,
    critical_betas,
    find_roots,
    reduced_kappa1,
)

G2 = WellGeometry(2.0, 1.0)

# Frozen by an independent bisection oracle (see oracle_* helpers below):
# roots of tan(k) * tanh(k) = 1 at L = 2.
KAPPA_NN_L2 = [
    0.9375520343559807,
    3.9273787191188063,
    7.0685841955232345,
    10.210176125520626,
    13.351768777759151,
]
# roots of tanh(k) * tan(k) = -1 at L = 2
K_NP_L2 = [2.347045566487087, 5.497770367437733, 8.639379766044119]
# residual value at k = 2: tanh(2) tan(2) + 1
RES_NP_AT_2 = -1.106438691749196
# fixed points of k = c * coth(k L)
RED_1_2 = 1.0326690694873524
RED_1_1 = 1.199678640257734


def oracle_bisect(f, a, b, it=300):
    fa, fb = f(a), f(b)
    assert fa * fb < 0.0
    for _ in range(it):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


class TestResidual:
    def test_constant_neg_neg_limit_at_zero(self):
        branch = ConstantNegNeg(G2)
        assert branch.residual(1e-6) == pytest.approx(-1.0, abs=1e-10)

    def test_constant_neg_pos_spot_value(self):
        branch = ConstantNegPos(G2)
        assert branch.residual(2.0) == pytest.approx(RES_NP_AT_2, abs=1e-15)
        assert branch.residual(2.0) < 0.0

    def test_tanh_neg_residual_at_least_one(self):
        # nonnegative left side shifted by +1, checked on a dense grid
        branch = TanhNeg(G2)
        grid = np.linspace(1e-6, 1e3, 1_000_000)
        values = branch.residual_raw(grid)
        assert float(values.min()) >= 1.0

    def test_pole_proximity_raises(self):
        branch = ConstantNegNeg(G2)
        with pytest.raises(PoleProximityError):
            branch.residual(math.pi / 2.0)
        with pytest.raises(PoleProximityError):
            branch.residual(math.pi / 2.0 + 1e-10)
        with pytest.raises(PoleProximityError):
            branch.residual(np.array([0.5, math.pi / 2.0 + 1e-10]))

    def test_vectorized_matches_scalar(self):
        branch = ConstantNegPos(G2)
        ts = np.array([0.5, 1.0, 2.0, 3.0])
        vec = branch.residual(ts)
        for t, v in zip(ts, vec):
            assert branch.residual(float(t)) == v


class TestFindRoots:
    def test_constant_neg_neg_first_two(self):
        roots = find_roots(ConstantNegNeg(G2), RootWindow(0.0, 4.0))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(KAPPA_NN_L2[0], abs=1e-10)
        assert roots[1] == pytest.approx(KAPPA_NN_L2[1], abs=1e-10)

    def test_agrees_with_inline_oracle(self):
        f = lambda k: math.tan(k) * math.tanh(k) - 1.0
        expect = [oracle_bisect(f, 0.5, 1.5), oracle_bisect(f, 3.2, 4.6)]
        got = find_roots(ConstantNegNeg(G2), RootWindow(0.0, 4.0))
        assert got == pytest.approx(expect, abs=1e-11)

    def test_constant_neg_pos_first_three(self):
        roots = find_roots(ConstantNegPos(G2), RootWindow(0.0, 10.0))
        assert roots == pytest.approx(K_NP_L2, abs=1e-10)

    def test_tanh_neg_rootless(self):
        assert find_roots(TanhNeg(G2), RootWindow(0.0, 50.0)) == []

    def test_empty_window_result_is_not_an_error(self):
        assert find_roots(ConstantNegNeg(G2), RootWindow(0.0, 0.5)) == []

    def test_window_subset(self):
        roots = find_roots(ConstantNegNeg(G2), RootWindow(2.0, 8.0))
        assert roots == pytest.approx(KAPPA_NN_L2[1:3], abs=1e-10)

    def test_root_count_growth(self):
        # count in (0, K] is at least floor(K/pi) - 1 for K in {10, 100}
        branch = ConstantNegNeg(G2)
        for hi in (10.0, 100.0):
            count = len(find_roots(branch, RootWindow(0.0, hi)))
            assert count >= math.floor(hi / math.pi) - 1

    def test_step_clipping_admits_boundary(self):
        roots_b2 = find_roots(StepNeg(G2, beta=2.0), RootWindow(0.0, 50.0))
        assert roots_b2 == pytest.approx(KAPPA_NN_L2[:1], abs=1e-10)
        roots_b5 = find_roots(StepNeg(G2, beta=5.0), RootWindow(0.0, 50.0))
        assert roots_b5 == pytest.approx(KAPPA_NN_L2[:2], abs=1e-10)

    def test_two_param_at_unit_parameters_matches_constant_branch(self):
        two = TwoParamNeg(G2, b=1.0)
        ref = ConstantNegNeg(G2)
        ts = np.linspace(0.1, 12.0, 400)
        np.testing.assert_allclose(two.residual_raw(ts), ref.residual_raw(ts), atol=1e-14)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            RootWindow(3.0, 2.0)
        with pytest.raises(ValueError):
            RootWindow(0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            RootWindow(-1.0, 1.0)

    @pytest.mark.parametrize(
        "lo, hi, tol",
        [(0.0, math.inf, 1e-12), (math.nan, 1.0, 1e-12), (0.0, math.nan, 1e-12), (0.0, 1.0, math.inf)],
    )
    def test_non_finite_window_rejected(self, lo, hi, tol):
        with pytest.raises(ValueError):
            RootWindow(lo, hi, tol)

    @pytest.mark.parametrize("name", list(BRANCHES))
    def test_curves_meet_at_every_root(self, name):
        args = {"step-neg": (G2, 5.0), "two-param-neg": (G2, 0.5), "two-param-reduced": (2.0, 1.0)}
        branch = BRANCHES[name](*args.get(name, (G2,)))
        for r in find_roots(branch, RootWindow(0.0, 20.0)):
            c1, c2 = branch.curve_pair(np.float64(r))
            assert c1 == pytest.approx(c2, rel=1e-9, abs=1e-9)


class TestCriticalBetas:
    def test_count_validated(self):
        with pytest.raises(ValueError):
            critical_betas(G2, 0)

    def test_matches_negative_branch_roots_exactly(self):
        betas = critical_betas(G2, 3)
        roots = find_roots(ConstantNegNeg(G2), RootWindow(0.0, 4.0 * math.pi))[:3]
        assert betas == roots  # same residual object, same brackets, bitwise equal

    def test_first_five_frozen(self):
        betas = critical_betas(G2, 5)
        assert betas == pytest.approx(KAPPA_NN_L2, abs=1e-10)

    def test_gaps_approach_pi(self):
        betas = critical_betas(G2, 4)
        gaps = [b1 - b0 for b0, b1 in zip(betas, betas[1:])]
        assert abs(gaps[1] - math.pi) < 0.1
        assert abs(gaps[2] - math.pi) < 0.1


class TestReducedKappa1:
    def test_frozen_values(self):
        assert reduced_kappa1(1.0, 2.0) == pytest.approx(RED_1_2, abs=5e-12)
        assert reduced_kappa1(1.0, 1.0) == pytest.approx(RED_1_1, abs=5e-12)

    def test_fixed_point_property(self):
        for c, L in ((0.3, 1.0), (1.0, 2.0), (2.5, 3.0)):
            k = reduced_kappa1(c, L)
            assert k == pytest.approx(c / math.tanh(k * L), abs=1e-10)

    def test_large_ratio_asymptote(self):
        c = 1e3
        k = reduced_kappa1(c, 2.0)
        assert abs(k / c - 1.0) <= 1e-3

    def test_monotone_in_ratio(self):
        values = [reduced_kappa1(c, 2.0) for c in np.linspace(0.05, 8.0, 60)]
        assert all(v1 > v0 for v0, v1 in zip(values, values[1:]))

    def test_invalid_arguments(self):
        for bad in ((0.0, 2.0), (1.0, 0.0), (-1.0, 2.0)):
            with pytest.raises(ValueError):
                reduced_kappa1(*bad)

    def test_reduced_branch_find_roots_agrees(self):
        branch = TwoParamReduced(2.0, 1.0)
        roots = find_roots(branch, RootWindow(0.0, 5.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(RED_1_2, abs=1e-10)


class TestTanhPosShape:
    def test_first_root_near_constant_branch(self):
        # tanh(k^2) is nearly saturated at the first root, so the two models
        # almost coincide there
        roots = find_roots(TanhPos(G2), RootWindow(0.0, 4.0))
        assert len(roots) == 1
        assert abs(roots[0] - K_NP_L2[0]) < 1e-4
