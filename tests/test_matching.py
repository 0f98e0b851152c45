import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from masswell import _rootscan, cli, matching, spectrum
from masswell._rootscan import (
    ScanResolutionError,
    ScanSizeError,
    bisect_root,
    isolate_sign_changes,
    roots_in,
    scan_cells,
)
from masswell.cli import PRESETS, ScenarioConfig
from masswell.matching import (
    LINEAR_BAND,
    _level_scan,
    _scaled_basis,
    build_solution,
    eigenvalues,
    level_diagnostics,
    levels,
    mismatch,
    seam_wronskian,
)
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
    critical_betas,
    find_roots,
)
from masswell.wavefunction import RegionSolution, _value_slope, count_nodes, evaluate, localization_fraction

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

    def test_parity_validated(self):
        profile = MassProfile(G2, TanhInner())
        with pytest.raises(ValueError, match="parity"):
            build_solution(profile, 1.0, "both")

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
        # at any energy: psi(-L) = 0, one parity-pure inner piece, the outer
        # piece mirrored exactly, and the matched side of the seam continuous
        profile = MassProfile(WellGeometry(2.5, 0.8), TanhInner())
        psi = build_solution(profile, energy, parity)
        outer, inner, mirror = psi.regions
        a = profile.geometry.a
        assert (outer.a_coef, outer.b_coef) == (0.0, 1.0)
        assert outer.value(-profile.geometry.L) == 0.0
        assert mirror == outer.reflected(1.0 if parity == "even" else -1.0)
        assert (inner.x_ref, inner.span) == (0.0, (-a, a))
        if inner.kind == "hyper":
            # end values y_l = +-y_r: a multiple of cosh (even) or sinh (odd)
            assert inner.a_coef == (inner.b_coef if parity == "even" else -inner.b_coef)
        else:
            assert (inner.b_coef if parity == "even" else inner.a_coef) == 0.0
        q = max(inner.q, outer.q, 1.0)
        (y_out, dy_out), (y_in, dy_in) = _value_slope(outer, -a), _value_slope(inner, -a)
        scale = max(abs(y_out), abs(dy_out) / q)
        assert min(abs(y_out - y_in), abs(dy_out - dy_in) / q) <= 1e-14 * scale

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_seam_leftover_at_eigenvalues(self, parity):
        for profile in (
            MassProfile(WellGeometry(2.5, 0.8), TanhInner()),
            MassProfile(G2, ConstantInner(-1.0)),
            MassProfile(WellGeometry(2.0, 0.5), ScaledInner(0.5)),
            MassProfile(WellGeometry(5.0, 3.25), ConstantInner(-1.0)),
        ):
            levels = eigenvalues(profile, (-100.0, 100.0), parity)
            assert levels
            a = profile.geometry.a
            for energy, psi in levels:
                outer, inner, _ = psi.regions
                q = max(inner.q, outer.q, 1.0)
                (y_out, dy_out), (y_in, dy_in) = _value_slope(outer, -a), _value_slope(inner, -a)
                scale = max(abs(y_out), abs(dy_out) / q)
                assert abs(y_out - y_in) <= 1e-10 * scale, energy
                assert abs(dy_out - dy_in) <= 1e-10 * q * scale, energy

    def test_parity_reflection(self):
        profile = MassProfile(G2, ConstantInner(-1.0))
        for parity, sign in (("even", 1.0), ("odd", -1.0)):
            for energy in (-3.3, 3.3, 61.2):
                psi = build_solution(profile, energy, parity)
                # off the seams, where psi jumps away from an eigenvalue
                xs = np.array([0.0, 0.3, 0.9, 1.4, 1.9, 2.0])
                assert np.array_equal(evaluate(psi, xs), sign * evaluate(psi, -xs))


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
            assert psi.normalized().l2_norm() == pytest.approx(1.0, abs=1e-12)


class TestCrowdedLevels:
    def test_levels_crowding_toward_zero_found(self):
        # inner spacing pi/(a sqrt 2.5) in kappa crowds the levels near E = 0
        profile = MassProfile(WellGeometry(5.0, 3.25), ConstantInner(-2.5))
        energies = [e for e, _ in eigenvalues(profile, (-1600.0, 0.0), "even")]
        assert len(energies) == 66
        for want in (-0.540165, -0.043147):
            assert any(abs(e - want) < 1e-6 for e in energies), want


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
        # sin(1/t) has a root at 1/(j pi) for j = 4 .. 3183; cells of 0.1/256 cannot resolve them near 1e-4
        f = lambda ts: np.sin(1.0 / np.asarray(ts))
        with pytest.raises(ScanResolutionError, match=r"found \d+ of at least 3180 roots"):
            roots_in(f, [(1e-4, 0.1)], [0.0], 3180, 1e-12)
        # one grid, no rescan: the scan brackets what its grid resolves and no more
        assert isolate_sign_changes(f, 1e-4, 0.1, samples=64)[0].size < 64

    def test_exact_zero_at_sample_point(self):
        f = lambda ts: np.asarray(ts) - 0.5
        brackets = _by_a(isolate_sign_changes(f, 0.0, 1.0, samples=2))
        assert brackets.tolist() == [[0.5, 0.5, 0.0, 0.0]]

    def test_exact_zero_is_a_root(self):
        # 0.5 is a sample of the 256-cell floor and a zero; 0.8 is a sign change between samples
        f = lambda ts: (np.asarray(ts) - 0.5) * (np.asarray(ts) - 0.8)
        assert roots_in(f, [(0.0, 1.0)], [0.0], 2, 1e-12) == pytest.approx([0.5, 0.8], abs=1e-12)

    def test_window_validation(self):
        profile = MassProfile(G2, ConstantInner(1.0))
        with pytest.raises(ValueError):
            eigenvalues(profile, (1.0, 1.0), "even")
        with pytest.raises(ValueError):
            eigenvalues(profile, (0.0, 1.0), "even", tol=0.0)
        with pytest.raises(ValueError):
            eigenvalues(profile, (0.0, 1.0), "sideways")

    def test_unresolvable_segment_among_resolvable_ones_raises(self):
        # the count is the total over all segments: 1 + 3180 + 0 roots of sin(1/t)
        f = lambda ts: np.sin(1.0 / np.asarray(ts))
        segments = [(0.2, 0.5), (1e-4, 0.1), (0.5, 1.0)]
        with pytest.raises(ScanResolutionError, match="of at least 3181 roots"):
            roots_in(f, segments, [0.0, 0.0, 0.0], 3181, 1e-12)
        # with the count the resolvable segments prove, the same scan passes
        assert len(roots_in(f, segments, [0.0, 0.0, 0.0], 1, 1e-12)) < 3181

    @pytest.mark.parametrize(
        "window, tol",
        [((-math.inf, 10.0), 1e-12), ((0.0, math.inf), 1e-12), ((math.nan, 1.0), 1e-12), ((0.0, 30.0), math.inf)],
    )
    def test_non_finite_window_or_tol_rejected(self, window, tol):
        profile = MassProfile(G2, ConstantInner(-1.0))
        with pytest.raises(ValueError):
            eigenvalues(profile, window, "even", tol=tol)


def _plain_isolate(f, lo, hi, samples):
    """One segment's scan at ``samples`` cells; brackets as (a, b, fa, fb) tuples."""
    ts = np.linspace(lo, hi, samples + 1)
    vs = f(ts)
    signs = np.sign(vs)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    brackets = [(ts[i], ts[i + 1], vs[i], vs[i + 1]) for i in flips]
    return brackets + [(t, t, 0.0, 0.0) for t in ts[vs == 0.0]]


def _bit_residual(t):
    """-1, 0 or +1 from the bits of each float: a sample one ulp off changes its value, and a third are zeros."""
    return (np.ascontiguousarray(t, dtype=float).view(np.int64) % 3 - 1).astype(float)


def _segment(sign, exponent, width):
    """[lo, hi] at lo = sign 10**exponent, ``width`` ulp wide (an int) or 10**width |lo| wide (a float)."""
    lo = sign * 10.0**exponent
    return lo, lo + (width * math.ulp(lo) if isinstance(width, int) else abs(lo) * 10.0**width)


SEGMENTS = st.one_of(
    st.builds(
        _segment, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 150.0), st.integers(1, 8) | st.floats(-12.0, 0.0)
    ),
    # a few subnormals wide, where (hi - lo) / cells underflows to 0 for all but a few cells
    st.integers(1, 8).map(lambda k: (0.0, k * 5e-324)),
)


def _by_a(columns):
    """Brackets ``(a, b, fa, fb)`` as the rows of one array, sorted by a, then b."""
    return np.column_stack(columns)[np.lexsort((columns[1], columns[0]))]


def _spy(f):
    """``f`` that records the number of points of each call in ``.sizes``."""

    def g(ts):
        g.sizes.append(ts.size)
        return f(ts)

    g.sizes = []
    return g


class TestBatchedScan:
    """Several segments in one isolate_sign_changes call, each on its own grid of its own cell count."""

    @staticmethod
    def _check_against_one_at_a_time(f, segments, samples):
        """The batched brackets, bit for bit those of each segment alone and of
        the plain one-grid scan; returns the number of brackets per segment."""
        lo, hi = np.transpose(segments)
        got = _by_a(isolate_sign_changes(f, lo, hi, samples))
        alone = [isolate_sign_changes(f, s0, s1, samples) for s0, s1 in segments]
        assert got.tobytes() == _by_a([np.concatenate(parts) for parts in zip(*alone)]).tobytes()
        plain = [b for s0, s1 in segments for b in _plain_isolate(f, s0, s1, samples)]
        assert got.tobytes() == _by_a(np.array(plain, dtype=float).reshape(-1, 4).T).tobytes()
        return [one[0].size for one in alone]

    def test_matching_residual_with_a_sampled_zero(self):
        profile = MassProfile(G2, StepInner(-30.0))
        residual, segments, _, _ = _level_scan(profile, -100.0, 100.0, "even")
        assert len(segments) == 3
        # one grid point of the last segment made an exact zero
        pin = np.linspace(*segments[-1], 512 + 1)[250]
        f = lambda s: np.where(s == pin, 0.0, residual(s))
        counts = self._check_against_one_at_a_time(f, segments, 512)
        # the inner mass is +1 below the threshold, so the first segment has no level
        assert [n > 0 for n in counts] == [False, True, True]

    def test_secular_residual_over_pieces(self):
        branch = ConstantNegNeg(G2)
        edges = np.linspace(1e-12, 60.0, 6).tolist()
        pin = np.linspace(edges[2], edges[3], 64 + 1)[7]
        f = lambda t: np.where(t == pin, 0.0, branch.residual_raw(t))
        counts = self._check_against_one_at_a_time(f, list(zip(edges, edges[1:])), 64)
        assert len(counts) == 5 and all(counts)

    def test_one_call_for_all_segments(self):
        # a close pair of roots in cell 130 of 256 on [0, 1]: one grid, no rescan, misses it
        f = _spy(lambda t: (t - 0.51) * (t - 0.5101) * (t - 1.7))
        a, *_ = isolate_sign_changes(f, [0.0, 1.0], [1.0, 2.0], 256)
        assert f.sizes == [2 * 257]
        assert np.sort(a // 1.0).tolist() == [1.0]
        # the count of 3 roots catches what the grid missed
        with pytest.raises(ScanResolutionError, match="found 1 of at least 3"):
            roots_in(f, [(0.0, 1.0), (1.0, 2.0)], [0.0, 0.0], 3, 1e-12)

    def test_eigenvalue_scan_is_one_call(self):
        profile = MassProfile(G2, StepInner(-30.0))
        residual, segments, _, _ = _level_scan(profile, -100.0, 100.0, "odd")
        f = _spy(residual)
        isolate_sign_changes(f, *np.transpose(segments), 2048)
        assert f.sizes == [len(segments) * (2048 + 1)]

    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(SEGMENTS, st.integers(2, 600) | st.integers(2**16 - 2, 2**16 + 9)), min_size=1, max_size=3
        ),
    )
    # a step that underflows to 0 beside one that does not, in one call
    @example(segments=[((0.0, 3 * 5e-324), 64), ((1.0, 2.0), 64)])
    # the residual is -1 at 3 and +1 at 4: a sign change between two segments' facing ends is no bracket
    @example(segments=[((2.5, 3.0), 2), ((4.0, 5.0), 3)])
    def test_grid_is_linspace_bit_for_bit(self, segments):
        (lo, hi), cells = np.transpose([ends for ends, _ in segments]), [n for _, n in segments]
        got = _by_a(isolate_sign_changes(_bit_residual, lo, hi, cells))
        plain = [b for (s0, s1), n in segments for b in _plain_isolate(_bit_residual, s0, s1, n)]
        assert got.tobytes() == _by_a(np.array(plain, dtype=float).reshape(-1, 4).T).tobytes()

    def test_calls_stay_under_the_cap(self, monkeypatch):
        sizes = []
        isolate = _rootscan.isolate_sign_changes

        def spying(f, lo, hi, samples):
            g = _spy(f)
            result = isolate(g, lo, hi, samples)
            sizes.append(g.sizes)
            return result

        monkeypatch.setattr(_rootscan, "isolate_sign_changes", spying)
        geometry = WellGeometry(2.0, 1.0)
        # the scan critical_betas(geometry, 5000) made: one root per branch below 5001 pi / a
        assert len(find_roots(ConstantNegNeg(geometry), RootWindow(0.0, 5001 * math.pi / geometry.a))) == 5001
        # one isolate call, whose grid of 4 ceil(8 * 5001) cells is split across calls of at most _MAX_POINTS points
        (calls,) = sizes
        assert len(calls) > 1 and max(calls) <= _rootscan._MAX_POINTS and sum(calls) == 4 * math.ceil(8 * 5001) + 1
        # a grid of more than 2**16 cells is split across calls
        f = _spy(np.sin)
        isolate(f, 0.0, 1.0, 2**17)
        assert f.sizes == [2**16 + 1, 2**16]


LAWS = st.one_of(
    st.builds(ConstantInner, st.floats(-3.0, 3.0)),
    st.just(TanhInner()),
    st.builds(StepInner, st.floats(-50.0, 50.0)),
    st.builds(ScaledInner, st.floats(0.6, 3.0)),
)
PROFILES = st.builds(
    lambda L, frac, inner: MassProfile(WellGeometry(L, frac * L), inner),
    st.floats(0.5, 2.0),
    st.floats(0.05, 0.95),
    LAWS,
)


def _local_kind(q2):
    """Region kind and wavenumber for a squared local wavenumber q2."""
    if q2 > LINEAR_BAND:
        return "trig", math.sqrt(q2)
    if q2 < -LINEAR_BAND:
        return "hyper", math.sqrt(-q2)
    return "linear", 0.0


class TestSeamWronskian:
    @settings(max_examples=30, deadline=None)
    @given(
        profile=PROFILES,
        energies=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=20),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_sign_follows_mismatch(self, profile, energies, parity):
        # continue the wall-grown solution through the seam by hand: mismatch
        # is signed like psi'(0) (even) or psi(0) (odd) of that continuation
        geo = profile.geometry
        for e in energies:
            m = mismatch(profile, e, parity)
            if abs(m) <= 1e-9:
                continue
            # sin k(x + L), x + L or, by its end values 0 and 1, a multiple of sinh q(x + L)
            kind, q = _local_kind(e)
            y, dy = _value_slope(RegionSolution(kind, q, -geo.L, 0.0, 1.0, (-geo.L, -geo.a)), -geo.a)
            kind, q = _local_kind(profile.inner.value(e) * e)
            if kind == "hyper":
                # by its end values on (-a, 0): y at -a and y cosh(q a) + (dy / q) sinh(q a) at 0
                coefs = (y, y * math.cosh(q * geo.a) + dy / q * math.sinh(q * geo.a))
            else:
                coefs = (y, dy / q if kind == "trig" else dy)
            y0, dy0 = _value_slope(RegionSolution(kind, q, -geo.a, *coefs, (-geo.a, 0.0)), 0.0)
            center = dy0 if parity == "even" else y0
            assert np.sign(center) == np.sign(m), (e, center, m)

    @settings(max_examples=30, deadline=None)
    @given(profile=PROFILES, parity=st.sampled_from(["even", "odd"]))
    def test_finite_where_mismatch_overflows(self, profile, parity):
        energies = np.linspace(-1e6, 1e6, 2001)
        assert np.all(np.isfinite(seam_wronskian(profile, energies, parity)))

    def test_mismatch_finite_at_deep_energy(self):
        profile = MassProfile(G2, ConstantInner(-1.0))
        for parity, sign in (("even", 1.0), ("odd", -1.0)):
            m = mismatch(profile, -1e6, parity)
            assert isinstance(m, float) and math.isfinite(m)
            assert m == -sign * seam_wronskian(profile, [-1e6], parity)[0]

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_kernel_entries_match_one_at_a_time(self, t):
        # trig, hyperbolic, inside +-LINEAR_BAND, exact zeros, and q t above 1e3; the geometric runs
        # give each kind enough entries for whole vector blocks as well as a tail
        span = np.geomspace(1e-11, 1e9, 37)
        q2 = np.array([3.0, -3.0, 0.4 * LINEAR_BAND, -0.4 * LINEAR_BAND, 0.0, -0.0, 2e6, -2e6, 1e-3, -1e-3, 7.5e7, -7.5e7])
        q2 = np.concatenate((q2, span, -span, 0.9 * LINEAR_BAND * np.linspace(-1.0, 1.0, 17)))
        got = _scaled_basis(q2, t)
        for column, parts in zip(got, zip(*(_scaled_basis(x, t) for x in q2))):
            assert column.tobytes() == np.array(parts).tobytes()
        # calls of one kind, or all inside the band, give the entries of the mixed call
        for part in (q2 > LINEAR_BAND, q2 < -LINEAR_BAND, np.abs(q2) <= LINEAR_BAND):
            assert np.count_nonzero(part) > 16
            for column, whole in zip(got, _scaled_basis(q2[part], t)):
                assert whole.tobytes() == column[part].tobytes()
        # a 0-d call of each kind gives that entry of the mixed call
        for i in range(4):
            for column, value in zip(got, _scaled_basis(np.array(q2[i]), t)):
                assert np.shape(value) == () and np.asarray(value).tobytes() == column[i].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        profile=PROFILES,
        below=st.lists(st.floats(-1e5, -1e-14), min_size=1, max_size=12),
        above=st.lists(st.floats(1e-14, 1e5), min_size=1, max_size=12),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_straddling_call_is_its_sides_calls(self, profile, below, above, parity):
        # a side of E = 0 is often of one kind per region, a call across it mixes kinds
        whole = seam_wronskian(profile, below + above, parity)
        sides = np.concatenate([seam_wronskian(profile, side, parity) for side in (below, above)])
        assert whole.tobytes() == sides.tobytes()

    def test_mismatch_of_a_python_float_is_a_float(self):
        for profile in (MassProfile(G2, ConstantInner(-1.0)), MassProfile(G2, TanhInner())):
            for energy in (-50.0, 0.0, 1e-13, 7.0):
                for parity in ("even", "odd"):
                    assert type(mismatch(profile, energy, parity)) is float

    def test_zero_at_secular_root(self):
        k = K_NP1_L2
        profile = MassProfile(G2, ConstantInner(-1.0))
        w = seam_wronskian(profile, [k * k * (1 - 1e-9), k * k * (1 + 1e-9)], "even")
        assert w[0] * w[1] < 0.0

    def test_parity_validated(self):
        with pytest.raises(ValueError, match="parity"):
            seam_wronskian(MassProfile(G2, TanhInner()), [1.0], "both")


def _cubic(roots):
    def f(x):
        return (x - roots[0]) * (x - roots[1]) * (x - roots[2])

    return f


def _counted(f):
    """``f`` with a running count of its calls in ``.calls``."""

    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


class TestLockstepBisection:
    def check(self, f, brackets, tol):
        a, b = (np.array(side, dtype=float) for side in zip(*brackets))
        fa, fb = f(a), f(b)
        got = bisect_root(f, a, b, fa, fb, tol)
        # a bracket refined in a batch takes exactly the steps it takes alone
        alone = [bisect_root(f, *bracket, tol)[0] for bracket in zip(a, b, fa, fb)]
        assert got.tolist() == alone
        for root, lo, hi, f_lo, f_hi in zip(got, a, b, fa, fb):
            assert lo <= root <= hi
            want = lo if f_lo == 0.0 else hi if f_hi == 0.0 else brentq(f, lo, hi, xtol=1e-15)
            # brentq is itself exact only to xtol + 4 eps |x| (at a root at 0 it
            # returns 7e-23 where the refinement finds the exact zero)
            slack = 1e-15 + 4.0 * np.finfo(float).eps * abs(want)
            assert abs(root - want) <= max(tol, 8.0 * math.ulp(want)) + slack
        return got

    @settings(max_examples=50, deadline=None)
    @given(
        roots=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3, unique=True),
        spreads=st.lists(st.floats(0.01, 0.99), min_size=6, max_size=6),
        tol=st.sampled_from([1e-3, 1e-9, 1e-12, 1e-300]),
    )
    def test_batch_independent_and_within_tol_of_brentq(self, roots, spreads, tol):
        roots = sorted(roots)
        gaps = [math.inf] + [r1 - r0 for r0, r1 in zip(roots, roots[1:])] + [math.inf]
        brackets = [
            (r - spreads[2 * i] * min(gaps[i], 10.0) / 2, r + spreads[2 * i + 1] * min(gaps[i + 1], 10.0) / 2)
            for i, r in enumerate(roots)
        ]
        brackets = [(lo, hi) for lo, hi in brackets if lo < hi]
        self.check(_cubic(roots), brackets, tol)

    def test_exact_zeros_at_endpoints_and_midpoint(self):
        # roots 0, 1 and 5: endpoint zeros on two brackets, a midpoint zero on the third
        f = _cubic([0.0, 1.0, 5.0])
        got = self.check(f, [(0.0, 0.5), (0.7, 1.0), (4.0, 6.0), (-0.3, 0.4)], 1e-12)
        assert got[:2].tolist() == [0.0, 1.0]

    def test_exact_zero_at_a_refinement_point(self):
        # f vanishes on (-0.25, 0.25), where both brackets' first points lie
        f = _counted(lambda x: np.where(np.abs(x) < 0.25, 0.0, x))
        roots = bisect_root(f, [-1.0, -1.0], [1.0, 3.0], -1.0, [1.0, 3.0], 1e-12)
        assert f.calls == 1 and np.all(f(roots) == 0.0)

    def test_tol_below_midpoint_ulp(self):
        f = _cubic([1e6 + 0.1, 2e6, 3e6])
        self.check(f, [(1e6, 1e6 + 1.0), (1.5e6, 2.5e6)], 1e-300)

    def test_step_cap(self):
        # a jump at 0: the width stays above 8 ulp(mid) for all 256 steps
        f = _counted(lambda x: np.where(x < 0.0, -1.0, 1.0))
        brackets = [(-1e300, 2e300), (-2e300, 1e300)]
        got = bisect_root(f, *zip(*brackets), -1.0, 1.0, 1e-320)
        assert f.calls == 256
        assert all(lo < root < hi for root, (lo, hi) in zip(got, brackets))
        assert got.tolist() == [bisect_root(f, lo, hi, -1.0, 1.0, 1e-320)[0] for lo, hi in brackets]

    # residuals on which the secant point is useless: the midpoint guard
    # must still close the bracket within the documented step bound
    @pytest.mark.parametrize(
        "law",
        [
            lambda x, r: np.where(x < r, -1e-300, 1e300),
            lambda x, r: 1.0 / (x - r),
            lambda x, r: (x - r) ** 21,
        ],
        ids=["jump", "pole", "flat-then-steep"],
    )
    @pytest.mark.parametrize("tol", [1e-3, 1e-12, 1e-300])
    @pytest.mark.parametrize("r,lo,hi", [(0.3, -0.4, 2.2), (math.pi, 3.0, 10.0), (-7.1, -60.0, -7.0999)])
    def test_worst_case_step_bound(self, law, tol, r, lo, hi):
        def residual(x):
            with np.errstate(divide="ignore", under="ignore"):
                return law(np.asarray(x, dtype=float), r)

        f = _counted(residual)
        (root,) = bisect_root(f, lo, hi, residual(lo), residual(hi), tol)
        tol_floor = max(tol, 4.0 * math.ulp(r))
        assert f.calls <= 3 * math.ceil(math.log2((hi - lo) / (2.0 * tol_floor))) + 2
        # a flat residual may underflow to an exact zero beside r
        assert abs(root - r) <= max(tol, 8.0 * math.ulp(r)) or residual(root) == 0.0

    # smooth residuals on which plain regula falsi keeps one end for many
    # steps: the secant through the two latest iterates, which drops the
    # stuck end, takes 16 and 15 calls here, plain regula falsi with the
    # same midpoint guard 25 and 26
    @pytest.mark.parametrize("law,lo,hi", [(np.log, 0.01, 100.0), (lambda x: x ** 5 - 0.3, 0.0, 4.0)])
    def test_illinois_frees_a_stuck_end(self, law, lo, hi):
        f = _counted(law)
        (root,) = bisect_root(f, lo, hi, law(lo), law(hi), 1e-12)
        assert f.calls <= 20
        want = brentq(law, lo, hi, xtol=1e-15)
        assert abs(root - want) <= 1e-12 + 1e-15 + 4.0 * np.finfo(float).eps * want

    def test_empty_bracket_list(self):
        def never(x):
            raise AssertionError("no bracket, no evaluation")

        assert bisect_root(never, [], [], [], [], 1e-12).size == 0

    def test_exact_zero_brackets_take_no_step(self):
        def never(x):
            raise AssertionError("no open bracket, no evaluation")

        # a zero-width bracket and zeros at a left and a right end
        roots = bisect_root(never, [0.5, -1.0, 2.0], [0.5, 1.0, 3.0], [0.0, 0.0, -1.0], [0.0, 2.0, 0.0], 1e-12)
        assert roots.tolist() == [0.5, -1.0, 3.0]

    def test_residual_warnings_reach_the_caller(self):
        def residual(x):
            np.log(np.zeros(1))  # a divide-by-zero warning at every call
            return x - 0.3

        with pytest.warns(RuntimeWarning, match="divide by zero"):
            bisect_root(residual, 0.0, 1.0, -0.3, 0.7, 1e-12)

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError, match="opposite signs"):
            bisect_root(lambda x: x, [1.0, -1.0], [2.0, 1.0], [1.0, -1.0], [2.0, 1.0], 1e-12)


def _refinement_steps(monkeypatch):
    """Residual calls of each later bisect_root call, appended to the returned list."""
    steps = []

    def counting(f, *args):
        residual = _counted(f)
        roots = bisect_root(residual, *args)
        steps.append(residual.calls)
        return roots

    monkeypatch.setattr(_rootscan, "bisect_root", counting)
    return steps


def test_refinement_step_budget(monkeypatch):
    """Residual calls per bisect_root call on the solvers' own brackets.

    Secant steps need about 4 to 6 where midpoint bisection needs about 37,
    so a silent fallback to bisection fails this count on any machine.
    """
    steps = _refinement_steps(monkeypatch)
    uniform = MassProfile(G2, ConstantInner(1.0))
    levels = [len(eigenvalues(uniform, (-100.0, 1e4), parity)) for parity in ("even", "odd")]
    betas = critical_betas(G2, 500)
    assert levels == [64, 63] and len(betas) == 500
    assert len(steps) == 3 and max(steps) <= 14, steps


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_brackets_close_in_a_few_steps(monkeypatch, preset):
    """Each preset's level brackets at -100:100 close within 5 residual calls.

    The secant through the two latest iterates takes at most 4 here; a
    midpoint forced on a bracket that converges from one side, or an
    estimate that keeps a far end, takes up to 8.
    """
    steps = _refinement_steps(monkeypatch)
    profile = ScenarioConfig({"preset": preset}).profile()
    for parity in ("even", "odd"):
        eigenvalues(profile, (-100.0, 100.0), parity)
    assert len(steps) == 2 and max(steps) <= 5, steps


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0**u)


class TestLevelDiagnostics:
    """level_diagnostics against count_nodes and localization_fraction of the state it does not build."""

    @settings(max_examples=60, deadline=None)
    @given(
        L=_log_uniform(0.1, 100.0),
        span=_log_uniform(1e-10, 0.5),
        inner_span=st.booleans(),
        inner=st.one_of(
            st.builds(ConstantInner, st.one_of(st.floats(-100.0, -0.01), st.floats(0.01, 100.0))),
            st.builds(ScaledInner, st.floats(0.1, 5.0)),
            st.just(TanhInner()),
            st.builds(StepInner, st.floats(-1000.0, 100.0)),
        ),
        lo=st.floats(-2000.0, 2000.0),
        width=_log_uniform(0.01, 3000.0),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_equal_to_the_built_state_s(self, L, span, inner_span, inner, lo, width, parity):
        # a or L - a log-uniform down to 1e-10 L; the localization bit for bit
        profile = MassProfile(WellGeometry(L, span * L if inner_span else L - span * L), inner)
        for energy in levels(profile, (lo, lo + width), parity):
            psi = build_solution(profile, energy, parity)
            assert level_diagnostics(profile, energy, parity) == (count_nodes(psi), localization_fraction(psi))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_run_scenario_builds_no_state(self, preset, monkeypatch):
        profile = ScenarioConfig({"preset": preset}).profile()
        want = spectrum.run_scenario(profile, (-100.0, 100.0))

        def refuse(*args, **kwargs):
            raise AssertionError("a state was built")

        monkeypatch.setattr(matching, "build_solution", refuse)
        monkeypatch.setattr(matching, "PiecewiseWavefunction", refuse)
        assert spectrum.run_scenario(profile, (-100.0, 100.0)) == want

    def test_wavefunction_builds_one_state(self, monkeypatch, capsys):
        built = []

        def counting(profile, energy, parity):
            built.append((energy, parity))
            return build_solution(profile, energy, parity)

        monkeypatch.setattr(cli, "build_solution", counting)
        assert cli.main(["wavefunction", "--preset", "uniform", "--level", "3"]) == 0
        level = spectrum.run_scenario(ScenarioConfig({"preset": "uniform"}).profile(), (-100.0, 100.0)).levels[2]
        assert built == [(level.energy, level.parity)]
        assert f"# nodes: {level.nodes}\n" in capsys.readouterr().out


class TestScanLimits:
    """What a scan cannot hold is a typed error raised before sampling, never an allocation failure."""

    @pytest.mark.parametrize("phases", [[1e15], [1e300, 1.0], [math.inf], [math.nan]])
    def test_oversized_or_non_finite_phase_raises(self, phases):
        with pytest.raises(ScanSizeError, match=r"^here turns through \S+ radians, more than 8388608 scan cells hold$"):
            scan_cells(phases, "here")

    def test_the_largest_scan_is_allowed(self):
        # 32 cells per pi: 2**23 cells hold 262,144 levels
        assert scan_cells([2**18 * math.pi], "here") == [2**23]
        with pytest.raises(ScanSizeError):
            scan_cells([2**18 * math.pi + 0.1], "here")

    def test_each_segment_is_scanned_at_its_own_need(self, monkeypatch):
        samples = []
        isolate = _rootscan.isolate_sign_changes

        def spying(f, lo, hi, cells):
            samples.append(cells)
            return isolate(f, lo, hi, cells)

        monkeypatch.setattr(_rootscan, "isolate_sign_changes", spying)
        profile = ScenarioConfig({"preset": "uniform"}).profile()
        _, _, phases, _ = _level_scan(profile, -1600.0, 3000.0, "even")
        levels(profile, (-1600.0, 3000.0), "even")
        # the stretch below E = 0 holds no level and needs the 256-cell floor, the one above far more
        assert samples == [scan_cells(phases, "here")] and len(set(samples[0])) > 1

    @pytest.mark.parametrize(
        "profile, window",
        [
            (MassProfile(G2, ConstantInner(1.0)), (1e30, 2e30)),
            (MassProfile(G2, ConstantInner(1.0)), (1e200, 2e200)),
            # m E overflows to inf at the window's low end
            (MassProfile(WellGeometry(2.0, 0.5), ScaledInner(0.5)), (-1e308, -1e307)),
        ],
    )
    def test_a_window_too_wide_to_scan_raises_before_sampling(self, profile, window, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(matching, "winding", refuse)
        monkeypatch.setattr(matching, "seam_wronskian", refuse)
        with pytest.raises(ScanSizeError, match="^" + re.escape(f"window {window[0]!r}:{window[1]!r} turns through")):
            levels(profile, window, "even")

    def test_a_tol_coarser_than_the_root_spacing_is_a_value_error(self):
        f = _counted(lambda x: np.sin(np.pi * x))
        assert roots_in(f, [(0.5, 10.5)], [10.0 * np.pi], 10, 0.1) == pytest.approx(range(1, 11), abs=0.1)
        with pytest.raises(ValueError, match="tol is coarser than the root spacing: 10 roots merge into 5"):
            roots_in(f, [(0.5, 10.5)], [10.0 * np.pi], 10, 0.3)
        # the scan itself falling short stays a ScanResolutionError at any tol
        with pytest.raises(ScanResolutionError, match="found 10 of at least 11 roots"):
            roots_in(f, [(0.5, 10.5)], [10.0 * np.pi], 11, 0.3)

    def test_no_segment_no_root(self):
        assert roots_in(np.sin, [], [], 0, 1e-12) == []
        # s = sqrt(E) rounds both ends of this window to 1, which leaves no segment
        assert levels(MassProfile(G2, ConstantInner(1.0)), (1.0, 1.0000000000000002), "even") == []
