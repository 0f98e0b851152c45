import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from masswell.matching import build_solution, eigenvalues
from masswell.profiles import (
    ConstantInner,
    MassProfile,
    ScaledInner,
    StepInner,
    TanhInner,
    WellGeometry,
)
from masswell.secular import ConstantNegNeg, RootWindow, find_roots
from masswell.wavefunction import (
    PiecewiseWavefunction,
    RegionSolution,
    _value_slope,
    count_nodes,
    evaluate,
    localization_fraction,
    region_l2,
)

G2 = WellGeometry(2.0, 1.0)
KAPPA_NN_L2 = [
    0.9375520343559807,
    3.9273787191188063,
    7.0685841955232345,
    10.210176125520626,
    13.351768777759151,
    16.493361431346422,
    19.634954084936204,
    22.776546738526,
]
# closed-form localization of the 8th negative-energy even state at L = 2,
# (cosh 2k + S) / (cosh 2k + 2S - 1) with S = sinh(2k)/(2k) at k = KAPPA_NN_L2[7]
LOC_LEVEL8_L2 = 0.9789708738826303


def neg_state(kappa, parity="even"):
    profile = MassProfile(G2, ConstantInner(-1.0))
    return build_solution(profile, -kappa * kappa, parity).normalized()


def uniform_states(window, parity):
    profile = MassProfile(G2, ConstantInner(1.0))
    return eigenvalues(profile, window, parity)


# the five README presets
PRESET_PROFILES = {
    "constant-negative": MassProfile(G2, ConstantInner(-1.0)),
    "uniform": MassProfile(G2, ConstantInner(1.0)),
    "tanh": MassProfile(G2, TanhInner()),
    "step": MassProfile(G2, StepInner(-4.0)),
    "two-param": MassProfile(WellGeometry(2.0, 0.5), ScaledInner(0.5)),
}


def seam_states():
    """Hand-built states with a zero on the seam x = 0.5: a vee that only
    touches zero there, and a straight line that crosses it."""
    left = RegionSolution("linear", 0.0, 0.0, 0.5, -1.0, (-2.0, 0.5))
    right = RegionSolution("linear", 0.0, 0.0, -0.5, 1.0, (0.5, 2.0))
    crossing = RegionSolution("linear", 0.0, 0.0, -0.5, 1.0, (-2.0, 0.5))
    return (
        PiecewiseWavefunction((left, right), "even", 0.0),
        PiecewiseWavefunction((crossing, right), "even", 0.0),
    )


def linear(a_coef, b_coef, x_ref, span):
    return RegionSolution("linear", 0.0, x_ref, a_coef, b_coef, span)


def hyper(q, y_left, y_right, span):
    return RegionSolution("hyper", q, 0.0, y_left, y_right, span)


#: hand-built states on (-1, 1) or (-2, 2) whose zeros, if any, lie where a
#: hyperbolic or linear piece crosses zero away from x = 0: name -> (regions,
#: nodes); dense sampling resolves each of them
OFF_CENTRE_STATES = {
    # psi(-0.16) = 0, at atanh(-tanh(2) / 3) / 2
    "hyper mid-span": (
        (linear(0.0, 1.0, -2.0, (-2.0, -1.0)), hyper(2.0, 1.0, -2.0, (-1.0, 1.0)), linear(0.0, 2.0, 2.0, (1.0, 2.0))),
        1,
    ),
    "linear mid-span": ((hyper(1.0, 0.0, 1.0, (-1.0, 0.0)), linear(1.0, -3.0, 0.0, (0.0, 1.0))), 1),
    # about 1.2e-10 left of the seam x = 0, inside its 1e-9 window
    "hyper in a seam window": ((hyper(1.0, 1.0, -1e-10, (-1.0, 0.0)), linear(-1e-10, -1.0, 0.0, (0.0, 1.0))), 1),
    "linear in a seam window": ((linear(-5e-10, -1.0, 0.0, (-1.0, 0.0)), hyper(3.0, -5e-10, -1.0, (0.0, 1.0))), 1),
    # within 1e-9 of a wall, where zeros are not nodes
    "hyper in the wall pad": ((hyper(1.0, -1e-10, 1.0, (-1.0, 0.0)), linear(1.0, 1.0, 0.0, (0.0, 1.0))), 0),
    "linear in the wall pad": ((hyper(1.0, 0.0, 1.0, (-1.0, 0.0)), linear(-5e-10, -1.0, 1.0, (0.0, 1.0))), 0),
    # q w = 60: psi(ln(1e5) / 60) = 0, and psi(-ln(1e20) / 60) = 0 where psi is about 1e-23
    "hyper far from its midpoint": (
        (
            linear(0.0, 1.0, -2.0, (-2.0, -1.0)),
            hyper(30.0, 1.0, -1e-5, (-1.0, 1.0)),
            linear(0.0, 1e-5, 2.0, (1.0, 2.0)),
        ),
        1,
    ),
    "hyper near its left end": (
        (
            linear(0.0, -1e-20, -2.0, (-2.0, -1.0)),
            hyper(30.0, -1e-20, 1.0, (-1.0, 1.0)),
            linear(0.0, -1.0, 2.0, (1.0, 2.0)),
        ),
        1,
    ),
    # a center 1e-10 wide, narrower than the seam window's floor, crossing zero off x = 0
    "hyper on a narrow span": (
        (
            linear(0.0, -1e-11 / (1.0 - 5e-11), -1.0, (-1.0, -5e-11)),
            hyper(1.0, -1e-11, 2e-11, (-5e-11, 5e-11)),
            linear(0.0, -2e-11 / (1.0 - 5e-11), 1.0, (5e-11, 1.0)),
        ),
        1,
    ),
    "linear on a narrow span": (
        (
            linear(0.0, 6e-11 / (1.0 - 5e-11), -1.0, (-1.0, -5e-11)),
            linear(1e-11, -1.0, 0.0, (-5e-11, 5e-11)),
            linear(0.0, 4e-11 / (1.0 - 5e-11), 1.0, (5e-11, 1.0)),
        ),
        1,
    ),
}


#: relative scale used by node_positions when merging zeros that meet at seams
_SEAM_PAD = 1e-9


def zeros_in(region, lo, hi):
    """Zeros of any region's closed form strictly inside (lo, hi), ascending.

    A hyperbolic or linear piece has at most one, located by ``brentq`` on
    ``region.value`` wherever its values at lo and hi have opposite signs;
    each zero of a trig piece is enumerated from its phase."""
    if region.kind != "trig":
        y_lo, y_hi = region.value([lo, hi])
        if not (y_lo < 0.0 < y_hi or y_hi < 0.0 < y_lo):
            return []
        xtol = 4.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
        return [brentq(lambda x: float(region.value(x)), lo, hi, xtol=xtol)]
    a, b, q = region.a_coef, region.b_coef, region.q
    if not hi > lo or a == b == 0.0:
        return []
    t1, t2 = lo - region.x_ref, hi - region.x_ref
    # A cos + B sin = R cos(q t - phi); zeros at q t = phi + pi/2 + n pi
    shift = math.atan2(b, a) + math.pi / 2.0
    n_lo, n_hi = math.ceil((q * t1 - shift) / math.pi) - 1, math.floor((q * t2 - shift) / math.pi) + 1
    zeros = ((shift + n * math.pi) / q for n in range(n_lo, n_hi + 1))
    return [t0 + region.x_ref for t0 in zeros if t1 < t0 < t2]


def node_positions(psi):
    """Deduplicated interior zero locations of psi, ascending: the zero list
    of the former node counter, kept here as the oracle's candidates.

    Zeros are enumerated per region in closed form, with each span padded
    by a hair so a zero sitting exactly on a region seam (x = +-a) is seen
    by both neighbors and then merged into one.  The wall zeros at +-L
    are excluded.
    """
    half = psi.half_width
    pad = _SEAM_PAD * max(1.0, half)
    zeros = []
    for region in psi.regions:
        zeros.extend(zeros_in(region, region.span[0] - pad, region.span[1] + pad))
    zeros = sorted(z for z in zeros if abs(z) < half - pad)
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 4.0 * pad:
            merged.append(z)
    return merged


def reference_count_nodes(psi):
    """The former node counter: psi evaluated once per gap between the
    candidates of :func:`node_positions`, a node wherever the nonzero signs
    on consecutive gaps differ.  A gap whose midpoint value underflows to 0
    (a deep hyperbolic center, e^(-808) at x = 0 say) is probed a quarter
    of the gap in from each end instead, and where those are 0 too
    (e^(-941) at q a = 1,882), at the region seams inside the gap."""
    half = psi.half_width
    zeros = node_positions(psi)
    if not zeros:
        return 0
    probes = np.array([-half] + zeros + [half])
    values = evaluate(psi, 0.5 * (probes[:-1] + probes[1:]))
    seams = [region.span[1] for region in psi.regions[:-1]]
    for i in np.flatnonzero(values == 0.0):
        left, right = probes[i], probes[i + 1]
        values[i] = max(evaluate(psi, [0.75 * left + 0.25 * right, 0.25 * left + 0.75 * right]), key=abs)
        inside = [x for x in seams if left < x < right]
        if values[i] == 0.0 and inside:
            values[i] = max(evaluate(psi, inside), key=abs)
    gap_signs = np.sign(values)
    return int(np.sum((gap_signs[:-1] * gap_signs[1:]) < 0.0))


def sampled_sign_changes(psi, n=100_001, region_samples=0):
    """Sign changes of psi on n points across the well, plus ``region_samples``
    more across each region's span, so that a span narrower than the grid's
    step is sampled too; the walls are left out."""
    half = psi.half_width
    xs = np.linspace(-half, half, n)[1:-1]
    if region_samples:
        spans = [np.linspace(*r.span, region_samples) for r in psi.regions]
        xs = np.unique(np.concatenate([xs, *spans]))
        xs = xs[np.abs(xs) < half]
    signs = np.sign(evaluate(psi, xs))
    signs = signs[signs != 0.0]
    return int(np.sum(signs[:-1] != signs[1:]))


#: None, or a span 10**log_gap wide, log-uniform down to 1e-10, for the wells of
#: the node-count property tests (see :func:`half_width`)
LOG_GAPS = st.one_of(st.none(), st.floats(-10.0, -1.0))


def half_width(L, a_frac, log_gap):
    """The inner half-width a: a_frac L, or, given log_gap, one that leaves a
    span 10**log_gap wide, the inner one (a) if a_frac < 0.5, else the outer
    one (L - a)."""
    if log_gap is None:
        return a_frac * L
    gap = 10.0 ** log_gap
    return gap if a_frac < 0.5 else L - gap


class TestEvaluate:
    def test_walls_are_zero(self):
        (_, psi), = uniform_states((0.0, 1.0), "even")
        assert evaluate(psi, 2.0) == 0.0
        assert evaluate(psi, -2.0) == 0.0

    def test_even_symmetry(self):
        (_, psi), = uniform_states((0.0, 1.0), "even")
        for x in (0.0, 0.37, 1.0, 1.81):
            assert evaluate(psi, x) == pytest.approx(evaluate(psi, -x), abs=1e-15)

    def test_odd_antisymmetry(self):
        (_, psi), = uniform_states((0.0, 3.0), "odd")
        for x in (0.15, 0.99, 1.62):
            assert evaluate(psi, x) == pytest.approx(-evaluate(psi, -x), abs=1e-15)

    def test_outside_domain_rejected(self):
        (_, psi), = uniform_states((0.0, 1.0), "even")
        with pytest.raises(ValueError):
            evaluate(psi, 2.0000001)
        with pytest.raises(ValueError):
            evaluate(psi, float("nan"))
        with pytest.raises(ValueError):
            evaluate(psi, [0.5, float("nan")])

    def test_ground_state_shape(self):
        (_, psi), = uniform_states((0.0, 1.0), "even")
        xs = np.linspace(-2.0, 2.0, 41)
        expect = np.cos(math.pi * xs / 4.0) / math.sqrt(2.0)
        np.testing.assert_allclose(evaluate(psi.normalized(), xs), expect, atol=1e-10)

    def test_later_region_wins_on_shared_seam(self):
        left = RegionSolution("linear", 0.0, 0.0, 1.0, 0.0, (-2.0, 0.5))
        right = RegionSolution("linear", 0.0, 0.0, 3.0, 0.0, (0.5, 2.0))
        psi = PiecewiseWavefunction((left, right), "even", 0.0)
        assert evaluate(psi, 0.5) == 3.0
        assert isinstance(evaluate(psi, 0.5), float)
        np.testing.assert_array_equal(evaluate(psi, np.array([0.0, 0.5, 1.0])), [1.0, 3.0, 3.0])

    def test_deep_state_evaluates_each_region_on_its_own_points(self):
        # q = 249 here: a hyperbolic outer piece evaluated over the whole
        # grid reaches e^(3 q) and overflows, so any RuntimeWarning fails this test
        profile = PRESET_PROFILES["constant-negative"]
        levels = sorted(
            (e, psi) for p in ("even", "odd") for e, psi in eigenvalues(profile, (-62500.0, -61500.0), p)
        )
        energy, psi = levels[0]
        psi = psi.normalized()
        kappa = math.sqrt(-energy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = evaluate(psi, np.linspace(-2.0, 2.0, 401))
            nodes = count_nodes(psi)
        assert np.all(np.isfinite(values))
        assert nodes == 2 * math.floor(kappa / math.pi + 0.5) == 158

    # A hyperbolic piece with small q w (w its width), down to just outside
    # the linear band, is as exact as one with large q w: its ratios
    # sinh(q d) / sinh(q w) go through expm1, which keeps its relative
    # precision as q w -> 0.  The odd tanh center c sinh(q x) and the
    # uniform well's outer sinh q(x + L), against references from np.sin
    # and np.sinh.
    @pytest.mark.parametrize("energy", [1e-3, 1e-5, 3e-6, 1.01e-6])
    def test_small_q_width_hyperbolic_error_is_a_few_eps(self, energy):
        k, q = math.sqrt(energy), math.sqrt(math.tanh(energy) * energy)
        y, dy = -math.sinh(q), q * math.cosh(q)
        c = k * math.cos(k) / dy if abs(dy) > 2.0 * q * abs(y) else math.sin(k) / y
        self.check_against(build_solution(PRESET_PROFILES["tanh"], energy, "odd"),
                           lambda x: np.where(x < -1.0, np.sin(k * (x + 2.0)), c * np.sinh(q * x)))

    @pytest.mark.parametrize("energy", [-1e-3, -1e-6, -1e-9, -1.1e-12])
    def test_small_q_width_outer_error_is_a_few_eps(self, energy):
        q = math.sqrt(-energy)
        y, dy = math.cosh(q), -q * math.sinh(q)
        c = q * math.cosh(q) / dy if abs(dy) > 2.0 * q * abs(y) else math.sinh(q) / y
        self.check_against(build_solution(PRESET_PROFILES["uniform"], energy, "even"),
                           lambda x: np.where(x < -1.0, np.sinh(q * (x + 2.0)), c * np.cosh(q * x)))

    @staticmethod
    def check_against(psi, reference):
        xs = np.linspace(-1.999, -0.001, 41)
        got, want = evaluate(psi, xs), reference(xs)
        want *= np.dot(got, want) / np.dot(want, want)
        # measured up to 2 eps
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(got))

    def test_inner_form_is_cosine_with_secular_wavenumber(self):
        kappa = KAPPA_NN_L2[0]
        psi = neg_state(kappa)
        inner = psi.regions[1]
        assert inner.kind == "trig"
        assert inner.q == pytest.approx(kappa, abs=1e-12)
        # even candidate at an eigenvalue: essentially pure cosine
        assert abs(inner.b_coef) <= 1e-10 * abs(inner.a_coef)
        # continuity across the mass step
        assert evaluate(psi, -1.0 - 1e-14) == pytest.approx(
            evaluate(psi, -1.0 + 1e-14), abs=1e-12
        )


#: end values of a hyperbolic piece: zero, or of either sign down to 1e-6 of the peak
END_VALUES = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))


class TestEndValuePieces:
    """Hyperbolic pieces against a 50-digit mpmath reference of
    y_l sinh(q (x_right - x)) / sinh(q w) + y_r sinh(q (x - x_left)) / sinh(q w)."""

    # measured over 3,000 random pieces: values to 2.7 eps of the peak, L2
    # integrals to 1.1e-15 relative, and end slopes, on the float and the
    # array path, to 2 eps of |exact| + q tanh(q w / 2) max(|y_l|, |y_r|), the
    # scale at which the slopes of the two ends' terms can cancel
    @settings(max_examples=60, deadline=None)
    @given(
        log_qw=st.floats(-7.0, math.log10(700.0)),
        x_left=st.floats(-3.0, 1.0),
        ends=st.one_of(st.sampled_from([(1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)]), st.tuples(END_VALUES, END_VALUES)),
    )
    def test_values_integral_and_end_slopes_match_mpmath(self, log_qw, x_left, ends):
        q, span = 0.5 * 10.0 ** log_qw, (x_left, x_left + 2.0)
        region = RegionSolution("hyper", q, 0.0, *ends, span)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            y_l, y_r, q_mp, x_l, x_r = map(mpmath.mpf, (*ends, q, *span))
            z = q_mp * (x_r - x_l)

            def psi(x):
                return (y_l * mpmath.sinh(q_mp * (x_r - x)) + y_r * mpmath.sinh(q_mp * (x - x_l))) / mpmath.sinh(z)

            def slope(x):
                cosh_r, cosh_l = mpmath.cosh(q_mp * (x - x_l)), mpmath.cosh(q_mp * (x_r - x))
                return q_mp * (y_r * cosh_r - y_l * cosh_l) / mpmath.sinh(z)

            xs = np.linspace(*span, 41)
            want = np.array([float(psi(mpmath.mpf(x))) for x in xs])
            end_slopes = np.array([float(slope(x)) for x in (x_l, x_r)])
            square = (mpmath.sinh(2 * z) - 2 * z) / (4 * q_mp * mpmath.sinh(z) ** 2)
            cross = (z * mpmath.cosh(z) - mpmath.sinh(z)) / (2 * q_mp * mpmath.sinh(z) ** 2)
            l2 = float((y_l ** 2 + y_r ** 2) * square + 2 * y_l * y_r * cross)
        peak = max(abs(y) for y in ends)
        assert np.max(np.abs(region.value(xs) - want)) <= 4.0 * eps * peak
        assert region_l2(region) == pytest.approx(l2, rel=1e-13, abs=0.0)
        bound = 8.0 * eps * np.abs(end_slopes) + 8.0 * eps * q * math.tanh(q) * peak
        floats = np.array([_value_slope(region, x)[1] for x in span])
        assert np.all(np.abs(floats - end_slopes) <= bound)
        assert np.all(np.abs(_value_slope(region, np.array(span), np)[1] - end_slopes) <= bound)


class TestArrayPath:
    """_value_slope over an array through numpy against the same piece one float at a time."""

    # measured over 6,000 random pieces: values within 2 eps of the peak
    # value, slopes within 1.5 eps of the peak slope plus the peak value over
    # the width (3 eps of the peak slope alone)
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["trig", "linear", "hyper"]),
        log_qw=st.floats(-7.0, math.log10(700.0)),
        x_left=st.floats(-3.0, 1.0),
        coefs=st.one_of(st.sampled_from([(1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)]), st.tuples(END_VALUES, END_VALUES)),
    )
    def test_array_matches_float_path(self, kind, log_qw, x_left, coefs):
        span = (x_left, x_left + 2.0)
        q = 0.0 if kind == "linear" else 0.5 * 10.0 ** log_qw
        region = RegionSolution(kind, q, x_left + 0.5, *coefs, span)
        xs = np.linspace(*span, 41)
        values, slopes = _value_slope(region, xs, np)
        want_values, want_slopes = np.array([_value_slope(region, float(x)) for x in xs]).T
        eps = np.finfo(float).eps
        assert np.all(np.abs(values - want_values) <= 4.0 * eps * np.max(np.abs(want_values)))
        slope_scale = np.max(np.abs(want_slopes)) + np.max(np.abs(want_values)) / (span[1] - span[0])
        assert np.all(np.abs(slopes - want_slopes) <= 4.0 * eps * slope_scale)
        np.testing.assert_array_equal(region.value(xs), values)


class TestMidpointPieces:
    """Whole-span L2 integrals of trig and linear pieces against a 50-digit
    mpmath antiderivative of (A cos(q t) + B sin(q t))^2 or (A + B t)^2."""

    # measured over 800 random pieces: within 4.4e-16 relative
    @settings(max_examples=60, deadline=None)
    @given(
        log_q=st.one_of(st.none(), st.floats(-7.0, math.log10(300.0))),
        x_left=st.floats(-3.0, 1.0),
        x_ref=st.sampled_from(["left", "right", "midpoint", "zero"]),
        coefs=st.one_of(st.sampled_from([(0.0, 1.0), (1.0, 0.0)]), st.tuples(END_VALUES, END_VALUES)),
    )
    def test_whole_span_l2_matches_mpmath(self, log_q, x_left, x_ref, coefs):
        span = (x_left, x_left + 2.0)
        x_ref = {"left": span[0], "right": span[1], "midpoint": 0.5 * (span[0] + span[1]), "zero": 0.0}[x_ref]
        if log_q is None:
            region = RegionSolution("linear", 0.0, x_ref, *coefs, span)
        else:
            region = RegionSolution("trig", 10.0 ** log_q, x_ref, *coefs, span)
        with mpmath.workdps(50):
            a, b, q, x_l, x_r, x_0 = map(mpmath.mpf, (*coefs, region.q, *span, x_ref))

            def antiderivative(x):
                t = x - x_0
                if log_q is None:
                    return a * a * t + a * b * t * t + b * b * t ** 3 / 3
                s2, c2 = mpmath.sin(2 * q * t), mpmath.cos(2 * q * t)
                return (a * a + b * b) * t / 2 + (a * a - b * b) * s2 / (4 * q) - a * b * c2 / (2 * q)

            l2 = float(antiderivative(x_r) - antiderivative(x_l))
        assert region_l2(region) == pytest.approx(l2, rel=1e-13, abs=0.0)


class TestCountNodes:
    def test_uniform_ground_state_nodeless(self):
        (_, psi), = uniform_states((0.0, 1.0), "even")
        assert count_nodes(psi) == 0

    def test_first_excited_odd_has_center_node(self):
        (_, psi), = uniform_states((0.0, 3.0), "odd")
        assert count_nodes(psi) == 1
        zeros = [z for region in psi.regions for z in zeros_in(region, *region.span)]
        assert zeros == pytest.approx([0.0], abs=1e-12)

    def test_uniform_ladder(self):
        profile = MassProfile(G2, ConstantInner(1.0))
        merged = sorted(
            [(e, psi) for p in ("even", "odd") for e, psi in eigenvalues(profile, (0.0, 70.0), p)]
        )
        for n, (_, psi) in enumerate(merged[:10], start=1):
            assert count_nodes(psi) == n - 1
            assert sampled_sign_changes(psi) == n - 1

    def test_inner_cosine_zero_enumeration(self):
        # cos(kappa x) on (-1, 1) contributes 2*floor(kappa/pi + 1/2) zeros
        for kappa in KAPPA_NN_L2:
            psi = neg_state(kappa)
            expect = 2 * math.floor(kappa / math.pi + 0.5)
            assert count_nodes(psi) == expect
            assert sampled_sign_changes(psi) == expect

    def test_cosine_zeros_spot_check(self):
        # cos(4 x) on (-1, 1): zeros at +-pi/8 only
        region = RegionSolution("trig", 4.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
        zeros = zeros_in(region, -1.0, 1.0)
        assert zeros == pytest.approx([-math.pi / 8.0, math.pi / 8.0], abs=1e-14)

    def test_seam_touch_without_crossing_not_counted(self):
        # synthetic |x - 0.5|-like vee: zero at the seam but no sign change
        psi, psi2 = seam_states()
        left, right = psi.regions
        assert left.value(0.5) == right.value(0.5) == 0.0
        assert zeros_in(left, *left.span) == zeros_in(right, *right.span) == []
        assert count_nodes(psi) == 0
        assert sampled_sign_changes(psi) == 0
        # the crossing version: straight line through the same seam
        assert count_nodes(psi2) == 1
        assert sampled_sign_changes(psi2) == 1

    @pytest.mark.parametrize("preset", sorted(PRESET_PROFILES))
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_matches_per_gap_reference(self, preset, parity):
        levels = eigenvalues(PRESET_PROFILES[preset], (-100.0, 100.0), parity)
        assert levels
        for _, psi in levels:
            assert count_nodes(psi) == reference_count_nodes(psi)

    def test_seam_states_match_per_gap_reference(self):
        for psi in seam_states():
            assert count_nodes(psi) == reference_count_nodes(psi)

    @pytest.mark.parametrize("name", sorted(OFF_CENTRE_STATES))
    def test_off_centre_zeros_of_hyperbolic_and_linear_pieces(self, name):
        regions, nodes = OFF_CENTRE_STATES[name]
        psi = PiecewiseWavefunction(regions, "even", 0.0)
        assert count_nodes(psi) == reference_count_nodes(psi) == sampled_sign_changes(psi) == nodes

    # off an eigenvalue psi may jump at a seam by as much as its own size; a
    # seam's window then stays within a quarter of pi / q, so it hides at
    # most two of the sign changes a dense sample sees there, and the merged
    # windows about a span narrower than themselves at most four.  A span as
    # narrow as 1e-10 can hold two sign changes across its seams' jumps, so
    # each span is sampled on its own grid too.
    @settings(max_examples=30, deadline=None)
    @given(
        L=st.floats(1.0, 4.0),
        a_frac=st.floats(0.1, 0.9),
        log_gap=LOG_GAPS,
        law=st.sampled_from(["constant", "tanh", "step"]),
        m0=st.floats(-3.0, 3.0),
        energy=st.floats(-400.0, 400.0),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_off_eigenvalue_states_stay_within_the_seam_windows(self, L, a_frac, log_gap, law, m0, energy, parity):
        inner = {"constant": ConstantInner(m0), "tanh": TanhInner(), "step": StepInner(10.0 * m0)}[law]
        psi = build_solution(MassProfile(WellGeometry(L, half_width(L, a_frac, log_gap)), inner), energy, parity)
        hidden = sampled_sign_changes(psi, region_samples=101) - count_nodes(psi)
        assert hidden in (0, 2, 4)


class TestCountNodesAgainstReference:
    """count_nodes against the test-local zero-list counter, reference_count_nodes."""

    # uniform-well levels k = J pi / (2L) with a zero on the seam x = -a:
    # sin(k a) = 0 for odd parity, cos(k a) = 0 for even; J - 1 nodes each
    @pytest.mark.parametrize(
        "L,a,parity,J",
        [(2.0, 1.0, "odd", 4), (2.0, 1.0, "odd", 8), (3.0, 1.0, "even", 3),
         (3.0, 1.0, "even", 9), (1.5, 0.5, "even", 3), (1.5, 0.5, "odd", 6)],
    )
    def test_zero_on_the_seam_counted_once(self, L, a, parity, J):
        profile = MassProfile(WellGeometry(L, a), ConstantInner(1.0))
        k = J * math.pi / (2.0 * L)
        half_gap = 0.25 * math.pi * k / L
        (energy, psi), = eigenvalues(profile, (k * k - half_gap, k * k + half_gap), parity)
        assert energy == pytest.approx(k * k, rel=1e-12)
        assert abs(psi.regions[0].value(-a)) <= 1e-9
        assert count_nodes(psi) == reference_count_nodes(psi) == J - 1
        exact = build_solution(profile, k * k, parity)
        assert count_nodes(exact) == reference_count_nodes(exact) == J - 1

    # the same levels off their exact k by a root-tolerance-sized error: the
    # pieces are matched in psi', psi jumps at the seam, and the zeros of the
    # two pieces land on either side of it.  The zero-list counter misses the
    # pair on one side (it reads 0 nodes below k = pi for J = 4), so the
    # truth here is J - 1.
    @pytest.mark.parametrize(
        "L,a,parity,J",
        [(2.0, 1.0, "odd", 4), (2.0, 1.0, "odd", 8), (3.0, 1.0, "even", 3),
         (3.0, 1.0, "even", 9), (1.5, 0.5, "even", 3), (1.5, 0.5, "odd", 6)],
    )
    @pytest.mark.parametrize("dk", [-1e-3, -1e-5, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5, 1e-3])
    def test_zero_beside_a_seam_jump_counted_once(self, L, a, parity, J, dk):
        profile = MassProfile(WellGeometry(L, a), ConstantInner(1.0))
        k = J * math.pi / (2.0 * L) + dk
        psi = build_solution(profile, k * k, parity)
        outer, center, _ = psi.regions
        assert outer.value(-a) != center.value(-a)
        assert count_nodes(psi) == J - 1

    # spectrum --preset uniform --window=9:11 --parity odd at a loose tol:
    # which side of k = pi the root lands on is up to the refinement
    @pytest.mark.parametrize("tol", [1e-6, 1e-4])
    def test_loose_tolerance_level_at_a_seam_zero(self, tol):
        profile = MassProfile(G2, ConstantInner(1.0))
        (energy, psi), = eigenvalues(profile, (9.0, 11.0), "odd", tol=tol)
        assert abs(energy - math.pi ** 2) <= tol
        assert count_nodes(psi) == 3

    # the same level a root-tolerance-sized error off pi^2 on either side:
    # above, each piece has its own zero beside x = -1; below, psi changes
    # sign there only across the jump, which the zero-list counter read as
    # 0 nodes
    @pytest.mark.parametrize("d_energy", [1e-6, 1e-4, -1e-6, -1e-4])
    def test_level_beside_a_seam_zero(self, d_energy):
        psi = build_solution(MassProfile(G2, ConstantInner(1.0)), math.pi ** 2 + d_energy, "odd")
        outer, center, _ = psi.regions
        near = bool(zeros_in(outer, -1.0 - 1e-3, -1.0)) and bool(zeros_in(center, -1.0, -1.0 + 1e-3))
        assert near == (d_energy > 0.0)
        assert (outer.value(-1.0) < 0.0) != (center.value(-1.0) < 0.0)
        assert count_nodes(psi) == 3

    # an outer or inner span narrower than the seam window's 1e-9 floor: the
    # window is capped at a quarter of the span, so the seam test reads each
    # piece on its own span; a window held at its floor reads one node too
    # many on each odd level at a = 1e-10 and two on every level at
    # L - a = 1e-10
    @pytest.mark.parametrize(
        "a,inner", [(1e-10, ConstantInner(1.0)), (2.0 - 1e-10, ConstantInner(1.0)), (1e-10, ScaledInner(1e-5))]
    )
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_spans_narrower_than_the_seam_floor(self, a, inner, parity):
        levels = eigenvalues(MassProfile(WellGeometry(2.0, a), inner), (0.5, 30.0), parity)
        nodes = [count_nodes(psi) for _, psi in levels]
        assert nodes == [reference_count_nodes(psi) for _, psi in levels]
        assert nodes == [sampled_sign_changes(psi) for _, psi in levels]
        assert nodes == ([0, 2, 4] if parity == "even" else [1, 3, 5])

    # a span narrower than the 1e-9 L floor of the windows, at an energy
    # 1.4e-9 to 3.4e-9 of itself off its level, where a root at tol = 4e-5
    # to 7e-5 landed: psi changes sign across each seam's jump, and the
    # zero beside it falls outside the seam's window capped at a quarter of
    # the narrow span.  Beside an outer span L - a of 5e-10 or 1.3e-9 that
    # zero lies 2e-9 to 3e-9 from the wall; beside a center 3.4e-10 wide, a
    # zero of each outer piece lies 1.8e-9 before its seam.  Windows that
    # overlap merge, so none of these counts; counting them read 220, 89
    # and 5
    @pytest.mark.parametrize(
        "L,a,inner,energy,parity,nodes",
        [
            (2.835601716940627, 2.835601716445191, ConstantInner(1.6768621116107827), 8617.303897995025, "even", 216),
            (2.2311226835552533, 2.2311226823015406, StepInner(9657.492132348867), 3665.977155265067, "odd", 85),
            (1.14980538037547, 1.7072629328470266e-10, StepInner(-8129.242381781443), 7.46536547203933, "odd", 1),
        ],
    )
    def test_loose_level_beside_a_span_narrower_than_the_floor(self, L, a, inner, energy, parity, nodes):
        profile = MassProfile(WellGeometry(L, a), inner)
        (level, exact), = eigenvalues(profile, (energy - 1.0, energy + 1.0), parity)
        assert 1e-9 < abs(energy / level - 1.0) < 4e-9
        assert count_nodes(exact) == reference_count_nodes(exact) == nodes
        assert count_nodes(build_solution(profile, energy, parity)) == nodes

    def test_deep_levels_past_the_l2_range(self):
        # kappa (L - a) between 355 and 710, where sinh(2 kappa (L - a)) is past
        # the float range: the end-value pieces still normalize and count
        profile = MassProfile(G2, ConstantInner(-1.0))
        kappas = find_roots(ConstantNegNeg(G2), RootWindow(400.0, 410.0))
        assert len(kappas) == 3
        for kappa in kappas:
            psi = build_solution(profile, -kappa * kappa, "even")
            assert psi.normalized().l2_norm() == pytest.approx(1.0, abs=1e-14)
            assert 0.0 <= localization_fraction(psi) <= 1.0
            assert count_nodes(psi) == reference_count_nodes(psi)

    # kappa (L - a) from about 708 to 745, where e^(-kappa (L - a)) is a
    # subnormal that rounds by up to half of itself: an outer piece whose
    # wall value is computed from it, rather than stored as 0, has a zero
    # just inside each wall, two extra nodes of unchanged parity
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_levels_with_a_subnormal_wall_coefficient(self, parity):
        levels = eigenvalues(PRESET_PROFILES["constant-negative"], (-560000.0, -530000.0), parity)
        assert len(levels) in (6, 7)
        for energy, psi in levels:
            kappa = math.sqrt(-energy)
            assert count_nodes(psi) == 2 * math.floor(kappa / math.pi) + (parity == "odd")

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_subnormal_wall_coefficient_off_levels(self, parity):
        profile = PRESET_PROFILES["constant-negative"]
        for q in np.linspace(700.0, 746.0, 47):
            psi = build_solution(profile, -q * q, parity)
            assert count_nodes(psi) == reference_count_nodes(psi)

    # s = sign(E) sqrt|E| runs over about `spacings` level spacings of one
    # parity, pi / (L - a) at E > 0 and pi / (a sqrt|m|) at E < 0, ending at
    # most at |E| = 1e5, where q (L - a) of a hyperbolic outer piece reaches
    # about 1,100 and q a of a hyperbolic center, `scaled` at b = 0.3, about
    # 3,800
    @settings(max_examples=20, deadline=None)
    @given(
        L=st.floats(1.0, 4.0),
        a_frac=st.floats(0.1, 0.9),
        log_gap=LOG_GAPS,
        law=st.sampled_from(["constant", "tanh", "step", "scaled"]),
        m0=st.floats(-3.0, 3.0),
        b=st.floats(0.3, 3.0),
        e_thr=st.floats(-1e4, 1e4),
        parity=st.sampled_from(["even", "odd"]),
        f=st.floats(-1.0, 1.0),
        spacings=st.floats(0.75, 1.5),
        log_tol=st.floats(-12.0, -4.0),
    )
    # deep hyperbolic levels of constant-negative near E = -1e5, and high
    # trig levels of the uniform well near E = 1e5
    @example(L=2.0, a_frac=0.5, log_gap=None, law="constant", m0=-1.0, b=1.0, e_thr=0.0, parity="even", f=-1.0, spacings=1.5, log_tol=-12.0)
    @example(L=2.0, a_frac=0.5, log_gap=None, law="constant", m0=-1.0, b=1.0, e_thr=0.0, parity="odd", f=-1.0, spacings=1.5, log_tol=-4.0)
    @example(L=2.0, a_frac=0.5, log_gap=None, law="constant", m0=1.0, b=1.0, e_thr=0.0, parity="even", f=1.0, spacings=1.5, log_tol=-12.0)
    @example(L=2.0, a_frac=0.5, log_gap=None, law="constant", m0=1.0, b=1.0, e_thr=0.0, parity="odd", f=1.0, spacings=1.5, log_tol=-4.0)
    # E = 94787.68: the hyperbolic center underflows to 0 at x = 0, the reference's midpoint probe there
    @example(L=3.0, a_frac=0.875, log_gap=None, law="constant", m0=-1.0, b=1.0, e_thr=0.0, parity="even", f=1.0, spacings=1.0, log_tol=-4.0)
    # q a = 1,882: the center is 0 at its midpoint and at the reference's quarter probes
    @example(L=4.0, a_frac=0.75, log_gap=None, law="scaled", m0=0.0, b=0.5, e_thr=0.0, parity="even", f=1.0, spacings=1.0, log_tol=-4.0)
    def test_equals_reference_over_random_wells(
        self, L, a_frac, log_gap, law, m0, b, e_thr, parity, f, spacings, log_tol
    ):
        """Each level at tol = 10**log_tol has the count of the same level at
        tol = 1e-12, which equals the reference's.  The reference is taken at
        1e-12 only: a looser root leaves a jump at the seam that it can miscount
        (see test_zero_beside_a_seam_jump_counted_once)."""
        a = half_width(L, a_frac, log_gap)
        inner, m_max = {
            "constant": (ConstantInner(m0), abs(m0)),
            "tanh": (TanhInner(), 1.0),
            "step": (StepInner(e_thr), 1.0),
            "scaled": (ScaledInner(b), 1.0 / (b * b)),
        }[law]
        profile = MassProfile(WellGeometry(L, a), inner)
        cap = math.sqrt(1e5)
        spacing = math.pi / max(L - a if f > 0.0 else a * math.sqrt(m_max), 0.1)
        width = min(spacings * spacing, cap)
        s0 = f * cap
        s1 = min(s0 + width, cap)
        s0 = s1 - width
        window = (s0 * abs(s0), s1 * abs(s1))
        levels = eigenvalues(profile, window, parity, tol=10.0 ** log_tol)
        tight = eigenvalues(profile, window, parity)
        assert len(levels) == len(tight)
        for (energy, psi), (_, psi_tight) in zip(levels, tight):
            nodes = count_nodes(psi)
            assert nodes == count_nodes(psi_tight) == reference_count_nodes(psi_tight)
            # a positive rescale cannot change a sign count
            assert count_nodes(build_solution(profile, energy, parity)) == nodes


class TestLocalization:
    def test_uniform_ground_state_exact(self):
        (_, psi), = uniform_states((0.0, 1.0), "even")
        exact = 0.5 + 1.0 / math.pi
        assert localization_fraction(psi) == pytest.approx(exact, abs=1e-10)

    def test_negative_states_increasing_toward_one(self):
        fracs = [localization_fraction(neg_state(k)) for k in KAPPA_NN_L2]
        assert all(f1 > f0 for f0, f1 in zip(fracs, fracs[1:]))
        assert all(0.0 < f < 1.0 for f in fracs)
        assert fracs[-1] == pytest.approx(LOC_LEVEL8_L2, abs=1e-10)

    def test_closed_form_oracle_agreement(self):
        # independent route: localization of sinh kappa(x+L) outer and
        # F cos(kappa x) inner reduces to (cosh 2k + S)/(cosh 2k + 2S - 1)
        for kappa in KAPPA_NN_L2:
            S = math.sinh(2.0 * kappa) / (2.0 * kappa)
            c2 = math.cosh(2.0 * kappa)
            oracle = (c2 + S) / (c2 + 2.0 * S - 1.0)
            assert localization_fraction(neg_state(kappa)) == pytest.approx(oracle, abs=1e-10)


class TestNormalization:
    @pytest.mark.parametrize("kappa", KAPPA_NN_L2[:4])
    def test_unit_norm_against_quadrature(self, kappa):
        psi = neg_state(kappa)
        total, err = quad(lambda x: evaluate(psi, x) ** 2, -2.0, 2.0,
                          points=[-1.0, 0.0, 1.0], limit=200)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert psi.l2_norm() == pytest.approx(1.0, abs=1e-12)

    # |E| from 1e-3 to 1e12 puts q times a width past 1e6: the end-value
    # hyperbolic pieces stay within the float range at any energy
    @settings(max_examples=60, deadline=None)
    @given(
        L=st.floats(0.5, 4.0),
        a_frac=st.floats(0.05, 0.95),
        law=st.sampled_from(["constant", "tanh", "step", "scaled"]),
        m0=st.floats(-3.0, 3.0),
        b=st.floats(0.3, 3.0),
        e_thr=st.floats(-1e4, 1e4),
        log_e=st.floats(-3.0, 12.0),
        sign=st.sampled_from([-1.0, 1.0]),
        parity=st.sampled_from(["even", "odd"]),
    )
    # m E = -1e-11, just outside the linear band: an odd center with q a = 1.6e-6
    @example(L=1.0, a_frac=0.5, law="constant", m0=1e-12, b=1.0, e_thr=0.0, log_e=1.0, sign=-1.0, parity="odd")
    # m E = +1e-11: an odd trig center with q a = 1.6e-6
    @example(L=1.0, a_frac=0.5, law="constant", m0=1e-12, b=1.0, e_thr=0.0, log_e=1.0, sign=1.0, parity="odd")
    def test_finite_norm_at_any_energy(self, L, a_frac, law, m0, b, e_thr, log_e, sign, parity):
        inner = {
            "constant": ConstantInner(m0), "tanh": TanhInner(), "step": StepInner(e_thr), "scaled": ScaledInner(b),
        }[law]
        profile = MassProfile(WellGeometry(L, a_frac * L), inner)
        psi = build_solution(profile, sign * 10.0 ** log_e, parity).normalized()
        assert psi.l2_norm() == pytest.approx(1.0, rel=1e-9)
        assert 0.0 <= localization_fraction(psi) <= 1.0

    def test_region_l2_matches_quadrature(self):
        region = RegionSolution("hyper", 1.3, -2.0, 0.4, 1.1, (-2.0, -1.0))
        total, _ = quad(lambda x: float(region.value(x)) ** 2, -2.0, -1.0)
        assert region_l2(region) == pytest.approx(total, rel=1e-12)

    def test_linear_region_l2_closed_form(self):
        # integral of (A + B t)^2 over t in [t1, t2] is ((A + B t2)^3 - (A + B t1)^3) / (3 B)
        A, B, x_ref = 0.7, -1.9, -0.5
        region = RegionSolution("linear", 0.0, x_ref, A, B, (-1.0, 1.0))

        def exact(x1, x2):
            t1, t2 = x1 - x_ref, x2 - x_ref
            return ((A + B * t2) ** 3 - (A + B * t1) ** 3) / (3.0 * B)

        assert region_l2(region) == pytest.approx(exact(-1.0, 1.0), rel=1e-14)


class TestStepModelStates:
    def test_newly_admitted_state_is_localized_oscillator(self):
        # just past the second critical beta the lowest state oscillates inside
        kappa = KAPPA_NN_L2[1]
        beta = kappa + 0.05
        profile = MassProfile(G2, StepInner(-beta * beta))
        evs = eigenvalues(profile, (-beta * beta, 0.0), "even")
        energies = [e for e, _ in evs]
        assert energies[0] == pytest.approx(-kappa * kappa, rel=1e-10)
        psi = evs[0][1]
        assert count_nodes(psi) == 2
        assert localization_fraction(psi) > 0.85


class TestHyperbolicInnerStates:
    """Inner mass m0 < 0 at E = k^2 > 0: the inner piece is c cosh(qx) or
    c sinh(qx) with q = k sqrt(-m0), the outer piece sin k(x + L)."""

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.2, 3.0),
        s=st.floats(0.3, 2.0),
        m0=st.floats(-2.5, -0.1),
        k0=st.floats(0.5, 30.0),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_nodes_and_localization_match_closed_form(self, a, s, m0, k0, parity):
        # the window spans 1.5 outer half-waves, so it holds a level of each
        # parity; q a stays below about 220, inside the range of sinh(2 q a)
        k1 = k0 + 1.5 * math.pi / s
        profile = MassProfile(WellGeometry(a + s, a), ConstantInner(m0))
        levels = eigenvalues(profile, (k0 * k0, k1 * k1), parity)
        assert levels
        for energy, psi in levels:
            k = math.sqrt(energy)
            q = k * math.sqrt(-m0)
            # outer zeros only (the inner cosh has none, the inner sinh one at x = 0)
            assert count_nodes(psi) == 2 * math.floor(k * s / math.pi) + (parity == "odd")
            # c = sin(k s) / cosh(q a) or / sinh(q a), from psi continuity at -a
            if parity == "even":
                inner = (a + math.sinh(2 * q * a) / (2 * q)) / math.cosh(q * a) ** 2
            else:
                inner = (math.sinh(2 * q * a) / (2 * q) - a) / math.sinh(q * a) ** 2
            inner *= math.sin(k * s) ** 2
            outer = s - math.sin(2 * k * s) / (2 * k)
            assert localization_fraction(psi) == pytest.approx(inner / (inner + outer), rel=1e-9)

    def test_odd_state_continuous_across_seam(self):
        # q a = 21.9: an inner piece anchored at x = 0 loses every digit at
        # the seam here (psi read -0.0027 on one side and 2.59 on the other)
        a = 3.25
        profile = MassProfile(WellGeometry(5.0, a), ConstantInner(-1.0))
        (energy, psi), = eigenvalues(profile, (45.0, 45.6), "odd")
        assert energy == pytest.approx(45.3196, abs=1e-4)
        outer, inner, _ = psi.regions
        assert inner.value(-a) == pytest.approx(outer.value(-a), rel=1e-12)
        left, right = evaluate(psi, [-a - 1e-9, -a + 1e-9])
        assert left == pytest.approx(right, rel=1e-7)
        assert count_nodes(psi) == 7

