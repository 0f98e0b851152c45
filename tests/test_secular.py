import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from masswell import _rootscan, secular
from masswell._rootscan import integers_crossed
from masswell.matching import eigenvalues
from masswell.profiles import ConstantInner, MassProfile, ScaledInner, TanhInner, WellGeometry
from masswell.secular import (
    BRANCHES,
    DEFAULT_TOL,
    ConstantNegNeg,
    ConstantNegPos,
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
from masswell.spectrum import delta_limit_study

from conftest import scan_roots

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
        assert branch.residual_raw(1e-6) == pytest.approx(-1.0, abs=1e-10)

    def test_constant_neg_pos_spot_value(self):
        # tanh(2) tan(2) + 1 multiplied through by cos(2)
        branch = ConstantNegPos(G2)
        want = math.tanh(2.0) * math.sin(2.0) + math.cos(2.0)
        assert branch.residual_raw(2.0) == pytest.approx(want, abs=1e-15)
        assert branch.residual_raw(2.0) > 0.0

    def test_tanh_neg_residual_at_least_one(self):
        # nonnegative left side shifted by +1, checked on a dense grid
        branch = TanhNeg(G2)
        grid = np.linspace(1e-6, 1e3, 1_000_000)
        values = branch.residual_raw(grid)
        assert float(values.min()) >= 1.0

    # past 22 tanh is 1.0, so the clamped arguments give the unclamped values bit for bit, up to
    # the float limit and with no overflow warning (the suite's filter turns one into an error)
    @pytest.mark.parametrize("a", [1.0, 3.0, 1e-300])
    def test_tanh_inner_saturates_without_overflow(self, a):
        t = np.concatenate((np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1.7e308, 3001)))
        with np.errstate(over="ignore"):
            root = np.sqrt(np.tanh(t * t))
            want = root * np.tanh(t * root * a)
        assert np.array_equal(secular._tanh_inner(t, a), want)
        assert secular._tanh_inner(1e308, a) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.one_of(st.floats(0.0, 40.0), st.floats(0.0, 1.7e308), st.floats(-40.0, 0.0), st.just(math.inf)),
        a=st.sampled_from([1.0, 3.0, 1e-4, 1e-300]),
    )
    # at and beside both clamps
    @example(t=22.0, a=1.0)
    @example(t=math.nextafter(22.0, 0.0), a=1.0)
    @example(t=22.0 / 3.0, a=3.0)
    def test_a_float_tanh_inner_is_its_entry_of_an_array(self, t, a):
        got = secular._tanh_inner(t, a)
        (want,) = secular._tanh_inner(np.array([t]), a)
        assert type(got) is float and got.hex() == float(want).hex()

    @pytest.mark.parametrize("L", [2.0, 40.0, 1e-300])
    def test_reduced_coth_saturates_without_overflow(self, L):
        branch = TwoParamReduced(L, 1.5)
        t = np.concatenate((np.linspace(1e-3, 30.0, 3001), np.geomspace(30.0, 1.7e308, 3001)))
        with np.errstate(over="ignore"):
            coth = 1.5 / np.tanh(t * L)
        assert np.array_equal(branch.curve_pair(t)[1], coth)
        assert np.array_equal(branch.residual_raw(t), t - coth)

    def test_vectorized_matches_scalar(self):
        branch = ConstantNegPos(G2)
        ts = np.array([0.5, 1.0, 2.0, 3.0])
        vec = branch.residual_raw(ts)
        for t, v in zip(ts, vec):
            assert branch.residual_raw(float(t)) == v


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

    def test_window_above_clip_is_empty(self):
        # the step branch clips hi to beta, below the window's lo
        assert find_roots(StepNeg(G2, beta=0.5), RootWindow(1.0, 5.0)) == []

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

    @pytest.mark.parametrize(
        "branch, profile, hi, count",
        [
            # each root sits closer to a tangent pole than 1e-8 * pi
            (TanhPos(WellGeometry(200.0, 0.01)), MassProfile(WellGeometry(200.0, 0.01), TanhInner()), 0.05, 3),
            (
                ConstantNegPos(WellGeometry(2.0, 1e-8)),
                MassProfile(WellGeometry(2.0, 1e-8), ConstantInner(-1.0)),
                3.0,
                2,
            ),
        ],
    )
    def test_roots_next_to_a_pole(self, branch, profile, hi, count):
        roots = find_roots(branch, RootWindow(0.0, hi))
        levels = [e for e, _ in eigenvalues(profile, (0.0, hi * hi), "even", tol=1e-16)]
        assert len(roots) == len(levels) == count
        for k, e in zip(roots, levels):
            assert k * k == pytest.approx(e, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        L=st.floats(0.5, 4.0),
        a_frac=st.floats(0.05, 0.95),
        b=st.floats(0.3, 3.0),
        hi=st.floats(2.0, 12.0),
        name=st.sampled_from(["constant-neg-pos", "constant-neg-neg", "tanh-pos", "two-param-neg"]),
    )
    def test_roots_agree_with_matching(self, L, a_frac, b, hi, name):
        geometry = WellGeometry(L, a_frac * L)
        branch, inner, sign = {
            "constant-neg-pos": (ConstantNegPos(geometry), ConstantInner(-1.0), 1.0),
            "constant-neg-neg": (ConstantNegNeg(geometry), ConstantInner(-1.0), -1.0),
            "tanh-pos": (TanhPos(geometry), TanhInner(), 1.0),
            "two-param-neg": (TwoParamNeg(geometry, b=b), ScaledInner(b), -1.0),
        }[name]
        window = RootWindow(0.0, hi)
        roots = find_roots(branch, window)
        energies = sorted((0.0, sign * hi * hi))
        levels = sorted(math.sqrt(abs(e)) for e, _ in eigenvalues(MassProfile(geometry, inner), energies, "even"))
        assert len(roots) == len(levels)
        for t, want in zip(roots, levels):
            assert abs(t - want) <= 4.0 * window.tol

    @settings(max_examples=30, deadline=None)
    @given(
        L=st.floats(0.2, 50.0),
        # a > L - a where a_frac > 0.5
        a_frac=st.floats(0.01, 0.99),
        b=st.floats(0.05, 5.0),
        beta=st.floats(0.5, 200.0),
        lo=st.floats(0.0, 100.0),
        width=st.floats(0.01, 300.0),
        name=st.sampled_from(["constant-neg-pos", "constant-neg-neg", "tanh-pos", "step-neg", "two-param-neg"]),
    )
    def test_turns_count_every_root(self, L, a_frac, b, beta, lo, width, name):
        geometry = WellGeometry(L, a_frac * L)
        branch = BRANCHES[name](geometry, *{"step-neg": (beta,), "two-param-neg": (b,)}.get(name, ()))
        roots = find_roots(branch, RootWindow(lo, lo + width))
        t0, t1 = max(lo, 1e-12), min(lo + width, branch.clip_hi or math.inf)
        assert (integers_crossed(branch.turns(t0), branch.turns(t1)) if t1 > t0 else 0) == len(roots)
        for t in roots:
            assert branch.turns(t) == pytest.approx(round(branch.turns(t)), abs=1e-6)

    def test_no_branch_is_scanned(self, monkeypatch):
        # every root is named by its index and refined from its own bracket
        calls = []
        monkeypatch.setattr(_rootscan, "isolate_sign_changes", lambda *args: calls.append(args))
        args = {"step-neg": (G2, 50.0), "two-param-neg": (G2, 0.5), "two-param-reduced": (2.0, 1.0)}
        found = [len(find_roots(BRANCHES[name](*args.get(name, (G2,))), RootWindow(0.0, 60.0))) for name in BRANCHES]
        assert found == [19, 19, 19, 0, 16, 39, 1] and calls == []

    @pytest.mark.parametrize("name", list(BRANCHES))
    def test_curves_meet_at_every_root(self, name):
        args = {"step-neg": (G2, 5.0), "two-param-neg": (G2, 0.5), "two-param-reduced": (2.0, 1.0)}
        branch = BRANCHES[name](*args.get(name, (G2,)))
        for r in find_roots(branch, RootWindow(0.0, 20.0)):
            c1, c2 = branch.curve_pair(np.float64(r))
            assert c1 == pytest.approx(c2, rel=1e-9, abs=1e-9)


class TestCurveBreaks:
    @pytest.mark.parametrize(
        "branch",
        [
            ConstantNegPos(G2),
            ConstantNegPos(WellGeometry(30.0, 0.3)),
            ConstantNegNeg(WellGeometry(2.0, 0.03)),
            ConstantNegNeg(WellGeometry(30.0, 25.43421544525906)),
        ],
    )
    def test_points_strictly_inside_windows_ending_at_breaks(self, branch):
        c = branch.tan_scale
        if branch.outer is np.tan:
            points = [j * (math.pi / c) for j in range(1, 400)]
        else:
            points = [(2 * j + 1) * math.pi / (2.0 * c) for j in range(400)]

        def near(p):
            return (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))

        for k in range(0, 300, 13):
            for lo in (-1.0, 0.0, *near(points[k])):
                for hi in near(points[k + 5]):
                    assert branch.curve_breaks(lo, hi) == [p for p in points if lo < p < hi]
        assert branch.curve_breaks(points[300], points[300]) == []

    def test_a_range_with_more_breaks_than_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(secular, "_MAX_BREAKS", 8)
        branch = StepNeg(G2, beta=0.5)
        period = math.pi / branch.tan_scale
        assert len(branch.curve_breaks(100.0, 100.0 + 7.5 * period)) in (7, 8)
        with pytest.raises(OverflowError, match="curve breaks, more than 8"):
            branch.curve_breaks(100.0, 100.0 + 8.5 * period)


@st.composite
def _geometries(draw, top=2.0):
    """L log-uniform on [0.1, 10**top], then a or L - a log-uniform on [1e-3 L, L / 2]."""
    L = 10.0 ** draw(st.floats(-1.0, top))
    narrow = L * 10.0 ** draw(st.floats(-3.0, math.log10(0.5)))
    return WellGeometry(L, narrow if draw(st.booleans()) else L - narrow)


class TestCriticalBetas:
    def test_count_validated(self):
        with pytest.raises(ValueError):
            critical_betas(G2, 0)

    @settings(max_examples=40, deadline=None)
    @given(geometry=_geometries(), count=st.integers(1, 2000), tol=st.sampled_from([1e-12, 1e-8, 1e-4]))
    @example(geometry=WellGeometry(1.939, 1.0), count=5000, tol=1e-12)
    def test_one_root_per_branch(self, geometry, count, tol):
        branch = ConstantNegNeg(geometry)
        betas = np.array(critical_betas(geometry, count, tol))
        j = np.arange(count)
        left = (j * math.pi + math.pi / 4.0) / geometry.a
        assert betas.size == count
        assert np.all((left <= betas) & (betas <= (j * math.pi + math.pi / 2.0) / geometry.a))
        # the residual rises through each root on even branches and falls on odd
        # ones, except at a left end taken as the root where coth rounds to 1
        h = np.maximum(tol, 4.0 * np.spacing(betas))
        sign = np.where(j % 2 == 0, 1.0, -1.0)
        crosses = (branch.residual_raw(betas - h) * sign <= 0.0) & (branch.residual_raw(betas + h) * sign >= 0.0)
        at_left = (betas == left) & (np.tanh(betas * (geometry.L - geometry.a)) == 1.0)
        assert np.all(crosses | at_left)
        window = RootWindow(0.0, (count + 1) * math.pi / geometry.a, tol=tol)
        want = np.array(find_roots(branch, window)[:count])
        assert np.all(np.abs(betas - want) <= np.maximum(2.0 * tol, 16.0 * np.spacing(want)))

    def test_left_end_taken_as_the_root(self):
        # kappa (L-a) is at least 7800 here: coth is 1, the root is the left end
        # (j pi + pi/4) / a, and the residual there is rounding noise of either sign
        geometry = WellGeometry(100.0, 0.01)
        betas = np.array(critical_betas(geometry, 50))
        j = np.arange(50)
        left = (j * math.pi + math.pi / 4.0) / geometry.a
        rounded_past = ConstantNegNeg(geometry).residual_raw(left) * np.where(j % 2 == 0, 1.0, -1.0) >= 0.0
        assert rounded_past.any() and np.all(betas[rounded_past] == left[rounded_past])
        assert np.all(np.abs(betas - left) <= DEFAULT_TOL + 16.0 * np.spacing(left))

    def test_count_one(self):
        assert critical_betas(G2, 1) == pytest.approx(KAPPA_NN_L2[:1], abs=1e-12)

    def test_first_five_frozen(self):
        betas = critical_betas(G2, 5)
        assert betas == pytest.approx(KAPPA_NN_L2, abs=1e-10)

    def test_scan_cost_is_a_few_capped_pieces(self, monkeypatch):
        calls = []
        isolate = _rootscan.isolate_sign_changes

        def counting(f, lo, hi, samples):
            calls.append(samples)
            return isolate(f, lo, hi, samples)

        monkeypatch.setattr(_rootscan, "isolate_sign_changes", counting)
        assert len(critical_betas(WellGeometry(2.0, 1.0), 5000)) == 5000
        assert reduced_kappa1(1.0, 2.0) == pytest.approx(RED_1_2, abs=5e-12)
        assert len(delta_limit_study(1.0, 2.0, [0.1, 0.01, 0.001])) == 3
        # every root has its own bracket: nothing is scanned
        assert calls == []

    def test_gaps_approach_pi(self):
        betas = critical_betas(G2, 4)
        gaps = [b1 - b0 for b0, b1 in zip(betas, betas[1:])]
        assert abs(gaps[1] - math.pi) < 0.1
        assert abs(gaps[2] - math.pi) < 0.1


@st.composite
def _branches(draw):
    """Any of the seven branches, on a geometry with L up to 10."""
    geometry = draw(_geometries(top=1.0))
    name = draw(st.sampled_from(list(BRANCHES)))
    if name == "two-param-reduced":
        return TwoParamReduced(geometry.L, 10.0 ** draw(st.floats(-2.0, 2.0)))
    if name == "step-neg":
        return StepNeg(geometry, draw(st.floats(0.5, 200.0)))
    if name == "two-param-neg":
        return TwoParamNeg(geometry, draw(st.floats(0.3, 3.0)))
    return BRANCHES[name](geometry)


def _nearest_gap(xs, ys):
    """|x - y| for each x of the sorted array ``xs`` and the y of the sorted array ``ys`` nearest it."""
    if ys.size == 0:
        return np.full(xs.size, np.inf)
    i = np.searchsorted(ys, xs)
    return np.minimum(np.abs(xs - ys[np.maximum(i - 1, 0)]), np.abs(xs - ys[np.minimum(i, ys.size - 1)]))


# the second root of the constant-neg-neg branch on G2, one of the two floats between which its residual changes sign
_ROOT = oracle_bisect(ConstantNegNeg(G2).residual_raw, 3.9, 4.7)


class TestAgainstTheScan:
    """find_roots against a sign-change scan of the whole window."""

    @settings(max_examples=60, deadline=None)
    @given(
        branch=_branches(),
        window=st.tuples(st.floats(0.0, 100.0), st.floats(0.01, 300.0)).map(lambda w: (w[0], w[0] + w[1])),
        tol=st.floats(-12.0, -8.0).map(lambda v: 10.0 ** v),
    )
    @example(branch=ConstantNegNeg(G2), window=(1.0, math.nextafter(_ROOT, -math.inf)), tol=1e-12)
    @example(branch=ConstantNegNeg(G2), window=(1.0, math.nextafter(_ROOT, math.inf)), tol=1e-12)
    @example(branch=ConstantNegNeg(G2), window=(math.nextafter(_ROOT, -math.inf), 10.0), tol=1e-12)
    @example(branch=ConstantNegNeg(G2), window=(math.nextafter(_ROOT, math.inf), 10.0), tol=1e-12)
    @example(branch=TanhPos(WellGeometry(2.0, 1.98)), window=(0.0, 300.0), tol=1e-12)
    def test_roots_match_the_scan(self, branch, window, tol):
        got = np.array(find_roots(branch, RootWindow(*window, tol)))
        lo, hi = max(window[0], 1e-12), min(window[1], branch.clip_hi or math.inf)
        if not hi > lo:
            assert got.size == 0
            return
        phase = (branch.tan_scale or 0.0) * (hi - lo)
        want = np.array(scan_roots(branch.residual_raw, [(lo, hi)], [phase], tol))
        # the same roots to 2 tol, but for a root within tol of a window end, which either may leave out
        lone = []
        for xs, ys in ((got, want), (want, got)):
            lone.append(xs[_nearest_gap(xs, ys) > 2.0 * tol])
            assert np.all(np.minimum(lone[-1] - lo, hi - lone[-1]) <= tol)
        assert got.size - lone[0].size == want.size - lone[1].size
        # each bracket end has the residual's sign on its side of the root, or the root is within 256 ulp of it
        j = np.arange(math.ceil(branch.turns(lo)), math.floor(branch.turns(hi)) + 1)
        if j.size:
            a, b, rising = branch.brackets(j)
            f, sign = branch.residual_raw, np.where(rising, 1.0, -1.0)
            assert np.all((f(a) * sign <= 0.0) | (f(a - 256.0 * np.spacing(a)) * sign < 0.0))
            assert np.all((f(b) * sign >= 0.0) | (f(b + 256.0 * np.spacing(b)) * sign > 0.0))


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

    def test_an_underflowing_product_raises_before_any_residual(self, monkeypatch):
        # b/nu * L = 1e-330 rounds to 0, where the bracket's upper end and the residual divide by zero
        def refuse(self, t):
            raise AssertionError("residual evaluated")

        monkeypatch.setattr(TwoParamReduced, "residual_raw", refuse)
        with pytest.raises(FloatingPointError, match=r"^b/nu \* L = 1e-300 \* 1e-30 underflows to 0"):
            reduced_kappa1(1e-300, 1e-30)
        with pytest.raises(FloatingPointError):
            delta_limit_study(1e-300, 1e-30, [0.1])

    # c L runs from 1e-5 to 3e4, across c L ~ 10 where the residual at the
    # bracket's upper end c coth(c L) rounds to zero (first example) or below
    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(-3.0, 3.0).map(lambda v: 10.0 ** v),
        L=st.floats(-2.0, math.log10(30.0)).map(lambda v: 10.0 ** v),
    )
    @example(c=12.589254117941687, L=0.817366229057692)
    @example(c=5.011872336272725, L=2.223600929639877)
    def test_agrees_with_brentq(self, c, L):
        residual = TwoParamReduced(L, c).residual_raw
        # an independent bracket: residual(c / 2) < 0 < residual(2 c coth(c L))
        want = brentq(residual, 0.5 * c, 2.0 * c / math.tanh(c * L), xtol=1e-15)
        slack = 1e-15 + 4.0 * np.finfo(float).eps * want  # brentq's own accuracy
        assert abs(reduced_kappa1(c, L) - want) <= max(1e-12, 8.0 * math.ulp(want)) + slack

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
