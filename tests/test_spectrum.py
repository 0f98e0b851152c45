import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from masswell import _rootscan, matching, spectrum
from masswell._rootscan import ScanResolutionError, integers_crossed
from masswell.cli import PRESETS, ScenarioConfig
from masswell.matching import _level_brackets, _stretches, build_solution, eigenvalues, levels, winding
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
    TwoParamNeg,
    critical_betas,
    find_roots,
    reduced_kappa1,
)
from masswell.spectrum import (
    PROBE_KAPPA_LARGE,
    PROBE_KAPPA_SMALL,
    _probe_kappas,
    delta_limit_study,
    ground_state_staircase,
    run_scenario,
)
from masswell.wavefunction import count_nodes

from conftest import scan_levels

G2 = WellGeometry(2.0, 1.0)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0**u)


def _close(got, want, tol):
    """|got - want| within the 2 tol of two roots each known to tol, or 16 ulp."""
    return abs(got - want) <= max(2.0 * tol, 16.0 * math.ulp(want))


def _below_zero(profile):
    """The verdict helpers' first two arguments: the geometry and the stretches below E = 0."""
    return profile.geometry, profile.pieces(-math.inf, 0.0)


def _winding_counts(profile, parity, kappas):
    """The verdict's level counts, kappa = sqrt(-E) in (0, K] for each K of ``kappas``, from the winding."""
    pieces = profile.pieces(-math.inf, 0.0)
    return tuple(spectrum._levels_from(profile, pieces, parity, kappa) for kappa in kappas)


def _emptied_brackets(monkeypatch):
    """Make every level bracket one ulp wide at its low end and uncut, so it holds no level though it must."""
    original = matching._level_brackets

    def emptied(*args):
        lo, hi, cut = original(*args)
        return lo, np.nextafter(lo, np.inf), np.zeros_like(cut)

    monkeypatch.setattr(matching, "_level_brackets", emptied)


def _scan_count(profile, lo, hi, parity):
    """Levels that levels finds on [lo, hi], without building a state per level."""
    return len(levels(profile, (lo, hi), parity, 1e-10))


#: a or L - a log-uniform from 1e-3 L to L / 2
SPAN_FRAC = st.floats(-3.0, math.log10(0.5)).map(lambda u: 10.0**u)
CRITICALS_L2 = [
    0.9375520343559807,
    3.9273787191188063,
    7.0685841955232345,
    10.210176125520626,
    13.351768777759151,
]


class TestRunScenario:
    def test_constant_negative_is_unbounded_below(self):
        report = run_scenario(
            MassProfile(G2, ConstantInner(-1.0)), (-100.0, 100.0), parities=("even",)
        )
        assert report.verdict.kind == "unbounded_below"
        ev = report.verdict.evidence
        assert ev is not None
        assert ev["count_large"] - ev["count_small"] >= ev["required_growth"]
        assert any(level.energy < 0 for level in report.levels)

    def test_levels_sorted_with_diagnostics(self):
        report = run_scenario(
            MassProfile(G2, ConstantInner(-1.0)), (-60.0, 40.0), parities=("even", "odd")
        )
        energies = [level.energy for level in report.levels]
        assert energies == sorted(energies)
        for level in report.levels:
            assert level.parity in ("even", "odd")
            assert level.nodes >= 0
            assert 0.0 <= level.localization <= 1.0

    @pytest.mark.parametrize("parities", [("even", "odd"), ("odd", "even")])
    def test_levels_closer_than_tol_follow_the_parity_order(self, parities):
        # a deep even/odd pair split by about 3e-17, far below tol
        report = run_scenario(MassProfile(G2, TanhInner()), (440.0, 470.0), parities=parities)
        assert [level.parity for level in report.levels] == list(parities)
        assert report.levels[0].energy == pytest.approx(report.levels[1].energy, abs=2e-12)

    @pytest.mark.parametrize("L", [1.5, 2.0, 3.0])
    def test_tanh_bounded_below_with_positive_levels_only(self, L):
        report = run_scenario(
            MassProfile(WellGeometry(L, 1.0), TanhInner()), (-100.0, 100.0), parities=("even",)
        )
        assert report.verdict.kind == "bounded_below"
        assert report.levels
        assert all(level.energy > 0 for level in report.levels)

    def test_step_below_first_critical_keeps_positive_set(self):
        beta = 0.5  # below the first critical value
        step = run_scenario(
            MassProfile(G2, StepInner(-beta * beta)), (-beta * beta, 100.0), parities=("even",)
        )
        assert all(level.energy > 0 for level in step.levels)
        const = run_scenario(
            MassProfile(G2, ConstantInner(-1.0)), (0.0, 100.0), parities=("even",)
        )
        assert len(step.levels) == len(const.levels)
        for lv_s, lv_c in zip(step.levels, const.levels):
            assert lv_s.energy == pytest.approx(lv_c.energy, rel=1e-10)

    def test_positive_even_levels_shared_across_models(self):
        # the high-energy subset obeys the same unchanged equation
        window = (0.0, 90.0)
        reports = [
            run_scenario(MassProfile(G2, ConstantInner(-1.0)), window, parities=("even",)),
            run_scenario(MassProfile(G2, StepInner(-4.0)), window, parities=("even",)),
            run_scenario(MassProfile(G2, StepInner(-150.0)), window, parities=("even",)),
        ]
        base = [level.energy for level in reports[0].levels]
        for report in reports[1:]:
            got = [level.energy for level in report.levels]
            assert got == pytest.approx(base, rel=1e-10)

    def test_step_spectra_monotone_in_beta(self):
        window = (-170.0, 0.0)
        small = run_scenario(
            MassProfile(G2, StepInner(-16.0)), window, parities=("even",)
        )
        large = run_scenario(
            MassProfile(G2, StepInner(-64.0)), window, parities=("even",)
        )
        small_set = [level.energy for level in small.levels]
        large_set = [level.energy for level in large.levels]
        assert len(small_set) < len(large_set)
        for e in small_set:
            assert any(abs(e - other) <= 1e-8 * max(1.0, abs(e)) for other in large_set)

    def test_step_verdict_bounded(self):
        report = run_scenario(
            MassProfile(G2, StepInner(-4.0)), (-4.0, 50.0), parities=("even",)
        )
        assert report.verdict.kind == "bounded_below"

    def test_empty_verdict(self):
        report = run_scenario(
            MassProfile(G2, ConstantInner(1.0)), (-50.0, -10.0), parities=("even", "odd")
        )
        assert report.verdict.kind == "empty"
        assert report.levels == ()


class TestVerdictCounts:
    @settings(max_examples=30, deadline=None)
    @given(
        L=st.floats(0.5, 5.0),
        a_frac=st.floats(0.1, 0.9),
        b=st.floats(0.2, 3.0),
        # beta below, between and above the default probes 10 and 40
        beta=st.one_of(st.floats(0.5, 9.5), st.floats(10.5, 39.5), st.floats(40.5, 60.0)),
        law=st.sampled_from(["constant", "scaled", "step"]),
        parity=st.sampled_from(["even", "odd"]),
        # a step's own probes lie past its break; these put K1 on either side of it
        around=st.one_of(st.none(), st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 40.0))),
    )
    def test_counts_match_closed_form_roots(self, L, a_frac, b, beta, law, parity, around):
        geometry = WellGeometry(L, a_frac * L)
        inner, branch = {
            "constant": (ConstantInner(-1.0), ConstantNegNeg(geometry)),
            "scaled": (ScaledInner(b), TwoParamNeg(geometry, b=b)),
            "step": (StepInner(-beta * beta), StepNeg(geometry, beta=beta)),
        }[law]
        profile = MassProfile(geometry, inner)
        probes = _probe_kappas(*_below_zero(profile))[:2]
        if law == "step" and around is not None:
            probes = (beta * around[0], beta * around[0] + around[1])
        if parity == "even":
            expected = tuple(len(find_roots(branch, RootWindow(0.0, kappa))) for kappa in probes)
        else:
            # secular has no odd branch: the level scan is the oracle
            expected = tuple(_scan_count(profile, -kappa * kappa, -1e-12, "odd") for kappa in probes)
        assert _winding_counts(profile, parity, probes) == expected

    @pytest.mark.parametrize(
        "inner, a",
        [(ConstantInner(-1.0), 0.1), (ConstantInner(-0.01), 1.0), (ScaledInner(3.0), 1.0)],
    )
    def test_probes_follow_the_inner_spacing(self, inner, a):
        # a sqrt|m| = 0.1, 0.1 and 1/3: probes fixed at 10 and 40 saw 6 levels
        # and their growth fell short of 8, so these read bounded_below
        report = run_scenario(MassProfile(WellGeometry(2.0, a), inner), (-10.0, 10.0))
        assert report.verdict.kind == "unbounded_below"
        ev = report.verdict.evidence
        assert (ev["count_small"], ev["count_large"], ev["required_growth"]) == (6, 25, 8)
        assert ev["kappa_window_large"] == 4.0 * ev["kappa_window_small"]

    def test_probes_stay_in_the_float_range(self):
        # a sqrt|m| ~ 1e-155 would put -K2^2 past -1.8e308
        profile = MassProfile(G2, ConstantInner(-1e-310))
        assert _probe_kappas(*_below_zero(profile)) == (PROBE_KAPPA_SMALL, PROBE_KAPPA_LARGE, math.pi)
        run_scenario(profile, (-1.0, 1.0))

    def test_probes_survive_a_spacing_that_underflows(self):
        # a sqrt|m| = 1e-200 * 1e-125 rounds to 0, which divided 40 by zero; the inner mass is negative at every
        # energy, so the levels never end, at a spacing no probe resolves
        profile = MassProfile(WellGeometry(2.0, 1e-200), ConstantInner(-1e-250))
        assert _probe_kappas(*_below_zero(profile)) == (PROBE_KAPPA_SMALL, PROBE_KAPPA_LARGE, math.pi)
        assert run_scenario(profile, (-1.0, 1.0)).verdict == spectrum.Verdict("unbounded_below")

    @pytest.mark.parametrize("m0, L, a", [(-1e-300, 0.001, 1e-6), (-1e-310, 2.0, 1.0)])
    def test_a_negative_mass_too_slow_for_the_probes_is_unbounded(self, m0, L, a):
        # a sqrt|m| below about 1e-153: the probes fall back to 10 and 40, where no level has appeared yet
        # (the levels lie below about -1e300), so there is no growth to show as evidence
        report = run_scenario(MassProfile(WellGeometry(L, a), ConstantInner(m0)), (-1.0, 1.0))
        assert report.verdict == spectrum.Verdict("unbounded_below") and report.levels == ()

    def test_verdict_reads_the_law_once(self, monkeypatch):
        # the probes and both parities' counts share one list of stretches
        calls = []
        pieces = MassProfile.pieces
        monkeypatch.setattr(MassProfile, "pieces", lambda self, *args: calls.append(args) or pieces(self, *args))
        verdict = spectrum._boundedness_verdict(MassProfile(G2, StepInner(-407.169)), ("even", "odd"), True)
        assert calls == [(-math.inf, 0.0)] and verdict.kind == "bounded_below"

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.floats(0.5, 5.0),
        span=SPAN_FRAC,
        inner_span=st.booleans(),
        inner=st.one_of(
            st.builds(ConstantInner, st.one_of(st.floats(-4.0, -0.01), st.floats(0.01, 4.0))),
            st.builds(ScaledInner, st.floats(0.2, 5.0)),
            st.just(TanhInner()),
            st.builds(StepInner, st.one_of(st.floats(-1.0, 6.0).map(lambda u: -(10.0**u)), st.floats(0.0, 100.0))),
        ),
        parities=st.sampled_from([("even", "odd"), ("even",), ("odd",)]),
    )
    # deep thresholds read unbounded_below when the probes ignored the break
    # and the parities' counts were summed against one parity's growth
    @example(L=2.0, span=0.5, inner_span=True, inner=StepInner(-500.0), parities=("even", "odd"))
    @example(L=2.0, span=0.5, inner_span=True, inner=StepInner(-1000.0), parities=("even", "odd"))
    @example(L=2.0, span=0.5, inner_span=True, inner=StepInner(-2000.0), parities=("even",))
    # past kappa ~ 1e18 the probes round together
    @example(L=2.0, span=0.5, inner_span=True, inner=StepInner(-1e40), parities=("odd",))
    def test_verdict_follows_the_sign_of_the_inner_mass(self, L, span, inner_span, inner, parities):
        # unbounded below exactly when the inner mass is negative below the lowest break
        a = span * L if inner_span else L - span * L
        report = run_scenario(MassProfile(WellGeometry(L, a), inner), (-1.0, 1.0), parities)
        deep = 2.0 * min((0.0, *inner.breaks)) - 1.0
        assert (report.verdict.kind == "unbounded_below") == (inner.value(deep) < 0.0)

    @pytest.mark.parametrize(
        "preset, even, odd",
        [
            ("constant-negative", (3, 13), (3, 12)),
            ("uniform", (0, 0), (0, 0)),
            ("tanh", (0, 0), (0, 0)),
            ("step", (1, 1), (0, 0)),
            ("two-param", (4, 13), (3, 13)),
        ],
    )
    def test_one_call_counts_equal_window_by_window_counts(self, preset, even, odd):
        profile = ScenarioConfig({"preset": preset}).profile()
        k1, k2, _ = _probe_kappas(*_below_zero(profile))
        for parity, want in (("even", even), ("odd", odd)):
            small = _scan_count(profile, -k1 * k1, -1e-12, parity)
            assert (small, small + _scan_count(profile, -k2 * k2, -k1 * k1, parity)) == want
            assert _winding_counts(profile, parity, (k1, k2)) == want
        if preset == "step":
            # the threshold splits the small window into two stretches
            assert len(_stretches(profile, -k1 * k1, -1e-12)) == 2

    def test_step_threshold_rounding_below_itself(self):
        # -beta*beta rounds below e_thr here, onto the +1 branch; that jump is no level
        profile = MassProfile(G2, StepInner(-407.169))
        probes = (PROBE_KAPPA_SMALL, PROBE_KAPPA_LARGE)
        assert _winding_counts(profile, "even", probes) == (3, 7)
        assert _winding_counts(profile, "odd", probes) == (3, 6)
        assert run_scenario(profile, (-100.0, 100.0)).verdict.kind == "bounded_below"

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.floats(0.5, 5.0),
        a_frac=st.floats(0.1, 0.9),
        b=st.floats(0.2, 3.0),
        e_thr=st.floats(-1700.0, -0.3),
    )
    def test_drawn_thresholds_and_scaled_levels(self, L, a_frac, b, e_thr):
        geometry = WellGeometry(L, a_frac * L)
        branch = StepNeg(geometry, beta=math.sqrt(-e_thr))
        profile = MassProfile(geometry, StepInner(e_thr))
        probes = _probe_kappas(*_below_zero(profile))[:2]
        expected = tuple(len(find_roots(branch, RootWindow(0.0, kappa))) for kappa in probes)
        assert _winding_counts(profile, "even", probes) == expected

        window = (-PROBE_KAPPA_LARGE**2, -1e-12)
        levels = [e for e, _ in eigenvalues(MassProfile(geometry, ScaledInner(b)), window, "even")]
        kappas = find_roots(TwoParamNeg(geometry, b=b), RootWindow(0.0, PROBE_KAPPA_LARGE))
        closed = sorted(-k * k for k in kappas)
        assert len(levels) == len(closed)
        for e, want in zip(levels, closed):
            assert abs(e - want) <= 4e-12 * max(1.0, abs(want)), (e, want)


class TestDenseSegments:
    """Segments holding tens of thousands of levels: the scan is sized by
    phase, so it finds every one of them."""

    @pytest.mark.parametrize(
        "profile, window, parity, want",
        [
            # k = (n + 1/2) pi / L for n = 318 .. 31830
            (MassProfile(WellGeometry(1000.0, 1.0), ConstantInner(1.0)), (1.0, 1e4), "even", 31513),
            # the closed-form count between kappa = 1 and 100
            (MassProfile(G2, ConstantInner(-1e6)), (-1e4, -1.0), "even", 31512),
            # a well that ran out of rescans at 131,072 cells on [-32.79, 0] in s
            (MassProfile(WellGeometry(54.3834, 54.3822), ScaledInner(0.0159132)), (-1075.11, 279.977), "even", 35668),
            (MassProfile(WellGeometry(54.3834, 54.3822), ScaledInner(0.0159132)), (-1075.11, 279.977), "odd", 35668),
        ],
    )
    def test_every_level_is_found(self, profile, window, parity, want):
        assert _scan_count(profile, *window, parity) == want
        if window[1] < 0.0:
            kappas = (math.sqrt(-window[1]), math.sqrt(-window[0]))
            small, large = _winding_counts(profile, parity, kappas)
            assert large - small == want

    @settings(max_examples=8, deadline=None)
    @given(
        L=_log_uniform(2.0, 1e3),
        levels=_log_uniform(1.0, 1e5),
        k_lo=st.floats(0.01, 10.0),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_uniform_count_is_exact(self, L, levels, k_lo, parity):
        # levels at k L / pi = n + 1/2 (even) or n >= 1 (odd)
        k_hi = k_lo + levels * math.pi / L
        shift = 0.5 if parity == "even" else 0.0
        x_lo, x_hi = k_lo * L / math.pi - shift, k_hi * L / math.pi - shift
        assume(min(abs(x - round(x)) for x in (x_lo, x_hi)) > 1e-6)
        profile = MassProfile(WellGeometry(L, 1.0), ConstantInner(1.0))
        want = math.floor(x_hi) - math.ceil(x_lo) + 1
        assert _scan_count(profile, k_lo * k_lo, k_hi * k_hi, parity) == want
        # the winding crosses one integer per level; each level has one bracket, and only the end ones may be cut
        w_lo, w_hi = (winding(profile, k * k, parity) for k in (k_lo, k_hi))
        assert integers_crossed(w_lo, w_hi, 0.0) == want
        cut = _level_brackets(profile, k_lo * k_lo, k_hi * k_hi, parity)[2]
        assert np.count_nonzero(cut) <= 2 and np.count_nonzero(~cut) <= want <= cut.size

    @settings(max_examples=30, deadline=None)
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
    def test_winding_count_equals_the_scan_count(self, L, span, inner_span, inner, lo, width, parity):
        # a or L - a log-uniform down to 1e-10 L; each stretch on its own, by the reference scan
        profile = MassProfile(WellGeometry(L, span * L if inner_span else L - span * L), inner)
        found, ends = [], []
        for s0, s1, _ in _stretches(profile, lo, lo + width):
            found.append(len(scan_levels(profile, (s0 * abs(s0), s1 * abs(s1)), parity, 1e-10)))
            ends.append([winding(profile, s * abs(s), parity) for s in (s0, s1)])
        assert [integers_crossed(*w) for w in ends] == found
        assert len(levels(profile, (lo, lo + width), parity, 1e-10)) == sum(found)

    @settings(max_examples=8, deadline=None)
    @given(
        m=_log_uniform(1.0, 1e6),
        levels=_log_uniform(1.0, 1e5),
        kappa_lo=st.floats(0.1, 10.0),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_negative_count_matches_closed_form(self, m, levels, kappa_lo, parity):
        # about one level per pi / (a sqrt|m|) in kappa
        kappa_hi = kappa_lo + levels * math.pi / math.sqrt(m)
        profile = MassProfile(G2, ConstantInner(-m))
        small, large = _winding_counts(profile, parity, (kappa_lo, kappa_hi))
        assert _scan_count(profile, -kappa_hi * kappa_hi, -kappa_lo * kappa_lo, parity) == large - small


def _on_and_beside(profile, energies, parity, tol):
    """Solve windows that end on each energy, or one ulp either side of it, from above and from below."""
    for energy in energies:
        for end in (math.nextafter(energy, -math.inf), energy, math.nextafter(energy, math.inf)):
            width = 3.0 + 1e-3 * abs(end)
            eigenvalues(profile, (end, end + width), parity, tol)
            eigenvalues(profile, (end - width, end), parity, tol)


class TestLevelCheck:
    """eigenvalues raises ScanResolutionError where a bracket that must hold a level does not."""

    @pytest.mark.parametrize(
        "L", [2.0, math.nextafter(2.0, 3.0), math.nextafter(2.0, 1.0), 2.0 + 1e-13, 2.0 - 1e-13, 2.0 + 1e-9, 1.0 + 1e-6]
    )
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_nearly_coincident_poles_keep_their_level(self, L, parity):
        # a uniform well has its levels at k L = n pi (odd) or (n + 1/2) pi (even), n >= 1 or 0; with a = 1 and
        # L near 2 the poles j pi / (L - 1) of cot(k (L - a)) and j pi or (j + 1/2) pi of the inner side nearly
        # coincide, and an odd level lies between each such pair
        shift = 0.5 if parity == "even" else 1.0
        want = [((n + shift) * math.pi / L) ** 2 for n in range(160)]
        window = (0.0, ((159.5 + shift) * math.pi / L) ** 2)
        got = levels(MassProfile(WellGeometry(L, 1.0), ConstantInner(1.0)), window, parity)
        assert len(got) == len(want) and all(_close(g, w, 1e-12) for g, w in zip(got, want))

    @pytest.mark.parametrize(
        "profile, window",
        [
            # both regions oscillate; the inner one is hyperbolic above E = 0; below E = 0 only the inner one turns
            (MassProfile(WellGeometry(1000.0, 1.0), ConstantInner(1.0)), (1.0, 1e4)),
            (ScenarioConfig({"preset": "tanh"}).profile(), (2e3, 2e4)),
            (MassProfile(G2, ConstantInner(-1e6)), (-1e4, -1.0)),
        ],
    )
    def test_an_empty_bracket_raises(self, monkeypatch, profile, window):
        want = len(eigenvalues(profile, window, "even"))
        _emptied_brackets(monkeypatch)
        with pytest.raises(ScanResolutionError, match=r"^the bracket s = \S+ holds no level, though it must hold one$"):
            eigenvalues(profile, window, "even")
        # a bracket cut to the window that holds no level is no error: the cut brackets alone find none
        emptied = matching._level_brackets

        def cut(*args):
            lo, hi, _ = emptied(*args)
            return lo, hi, np.ones(lo.size, dtype=bool)

        monkeypatch.setattr(matching, "_level_brackets", cut)
        assert 0 < want and eigenvalues(profile, window, "even") == []

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-300])
    def test_window_ends_on_a_uniform_level(self, tol):
        # levels at k L = (n + 1/2) pi (even) or (n + 1) pi (odd)
        for L, ns in ((2.0, (0, 1, 10, 1000, 30000)), (1000.0, (0, 318, 10000, 30000))):
            profile = MassProfile(WellGeometry(L, 1.0), ConstantInner(1.0))
            for parity, shift in (("even", 0.5), ("odd", 1.0)):
                _on_and_beside(profile, [((n + shift) * math.pi / L) ** 2 for n in ns], parity, tol)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-300])
    def test_window_ends_on_a_preset_level_a_break_or_zero(self, preset, tol):
        profile = ScenarioConfig({"preset": preset}).profile()
        for parity in ("even", "odd"):
            levels = [e for e, _ in eigenvalues(profile, (-100.0, 100.0), parity)]
            _on_and_beside(profile, [*levels, 0.0, *profile.inner.breaks], parity, tol)


LAWS = [
    ConstantInner(-1.0),
    ConstantInner(2.0),
    ScaledInner(0.5),
    TanhInner(),
    StepInner(-30.0),
    StepInner(-1e6),
    StepInner(0.0),
    StepInner(5.0),
]


class TestLawBreaks:
    """What the verdict's closed-form count reads from each law's ``breaks``."""

    @pytest.mark.parametrize("inner", LAWS, ids=repr)
    def test_level_stretches_split_at_every_break(self, inner):
        lo, hi = -2e6, 100.0
        stretches = _stretches(MassProfile(G2, inner), lo, hi)
        cuts = [e for e in (0.0, *inner.breaks) if lo < e < hi]
        assert len(stretches) == 1 + len(set(cuts))
        # a law takes its value from above at a break, so no stretch holds
        # energies on both sides, counting the break itself as above
        for s0, s1, rate in stretches:
            assert not any(s0 * abs(s0) < e <= s1 * abs(s1) for e in inner.breaks)
            assert not s0 < 0.0 < s1
            # the inner rate is the largest sqrt(m sign E) on the stretch, 0 where it is hyperbolic
            s = np.linspace(s0, s1, 1001)
            e = s * np.abs(s)
            assert rate == pytest.approx(math.sqrt(np.max(np.maximum(inner.value(e) * np.sign(e), 0.0))), rel=1e-12)

    @pytest.mark.parametrize("inner", LAWS, ids=repr)
    def test_negative_mass_is_constant_between_breaks(self, inner):
        # wherever m E > 0, m is constant between E = 0 and the breaks, as pieces reads it
        lo, hi = -1e6, 1e6
        stretches = MassProfile(G2, inner).pieces(lo, hi)
        cuts = sorted({lo, hi, *(e for e in (0.0, *inner.breaks) if lo < e < hi)})
        assert [(e0, e1) for e0, e1, _ in stretches] == list(zip(cuts, cuts[1:]))
        for e0, e1, rate in stretches:
            # each stretch [e0, e1) at both ends and spread inside it
            inside = np.append(np.linspace(e0, e1, 97, endpoint=False), np.nextafter(e1, -math.inf))
            signed = np.asarray(inner.value(inside)) * (1.0 if e0 >= 0.0 else -1.0) * np.ones_like(inside)
            if rate > 0.0:
                assert np.all(np.sqrt(signed) == rate), (e0, e1)
            else:
                assert np.all(signed <= 0.0), (e0, e1)

    def test_hyperbolic_inner_stretch_adds_no_phase(self):
        # scaled b = 0.5 has m = -4 < 0 at E > 0: only the outer region turns, through (L - a)(s1 - s0) = 31.66
        # rad, so its brackets are the cells between the poles j pi of cot(k (L - a)); reading |m| there too
        # gave 221.6 rad
        profile = MassProfile(WellGeometry(4.0, 3.0), ScaledInner(0.5))
        ((s0, s1, rate),) = _stretches(profile, 9e4, 1.1e5)
        assert rate == 0.0 and (4.0 - 3.0) * (s1 - s0) == pytest.approx(31.66, abs=0.005)
        lo, hi, cut = _level_brackets(profile, 9e4, 1.1e5, "even")
        assert cut.tolist() == [True] + [False] * 9 + [True]
        assert np.allclose(lo[1:], np.arange(96, 106) * math.pi) and np.allclose(hi[:-1], lo[1:])
        for parity in ("even", "odd"):
            assert len(eigenvalues(profile, (9e4, 1.1e5), parity)) == 10

    def test_negative_pieces_reach_minus_infinity(self):
        # the verdict reads the lowest stretch at E = -inf
        laws = [(ConstantInner(-4.0), 2.0), (ScaledInner(0.5), 2.0), (TanhInner(), 0.0), (StepInner(-30.0), 0.0)]
        for inner, want in laws:
            assert MassProfile(G2, inner).pieces(-math.inf, 0.0)[0][::2] == (-math.inf, want)


class TestGroundStateStaircase:
    def test_counts_jump_exactly_at_criticals(self):
        rows = ground_state_staircase(2.0, 14.0, 280)
        step = 14.0 / 280
        jumps = [
            r1.beta
            for r0, r1 in zip(rows, rows[1:])
            if r1.negative_count != r0.negative_count
        ]
        assert len(jumps) == 5
        for jump, crit in zip(jumps, CRITICALS_L2):
            assert crit <= jump <= crit + step + 1e-12
        counts = [r.negative_count for r in rows]
        assert counts[0] == 0 and counts[-1] == 5
        for c0, c1 in zip(counts, counts[1:]):
            assert c1 - c0 in (0, 1)

    def test_ground_state_nodes_by_count(self):
        rows = ground_state_staircase(2.0, 14.0, 280)
        nodes_by_count = {}
        for row in rows:
            nodes_by_count.setdefault(row.negative_count, row.ground_state_nodes)
        assert nodes_by_count == {0: 0, 1: 0, 2: 2, 3: 4, 4: 6, 5: 8}

    # betas up to 500 admit roots with kappa (L - a) between 355 and 710, where
    # sinh(2 kappa (L - a)) is past the float range, and up to 800 roots past
    # 710, where sinh(kappa (L - a)) is too; the counts keep the law of the
    # shallow staircase, 2 n - 2 nodes
    @pytest.mark.parametrize(
        "beta_max,counts", [(500.0, [40, 80, 120, 159]), (800.0, [64, 128, 191, 255])]
    )
    def test_nodes_past_the_float_range(self, beta_max, counts):
        rows = ground_state_staircase(2.0, beta_max, 4)
        assert [r.negative_count for r in rows] == counts
        for row in rows:
            assert row.ground_state_nodes == 2 * row.negative_count - 2

    def test_boundary_beta_admitted(self):
        # a grid point exactly on a critical value counts the new state
        crit = critical_betas(G2, 1)[0]
        rows = ground_state_staircase(2.0, crit, 1)
        assert rows[0].beta == crit
        assert rows[0].negative_count == 1

    def test_below_the_first_branch(self, monkeypatch):
        # beta_max < pi/4 lies below every branch (j pi + pi/4, j pi + pi/2)
        def no_branch(geometry, count, tol):
            raise AssertionError(f"critical_betas asked for {count}")

        monkeypatch.setattr(spectrum, "critical_betas", no_branch)
        rows = ground_state_staircase(2.0, 0.7, 7)
        assert [(r.negative_count, r.ground_state_nodes) for r in rows] == [(0, 0)] * 7

    # L - a log-uniform from 1e-8 to 30, so kappa (L - a) at the deepest of the
    # 300 roots runs far past 710, where sinh(kappa (L - a)) leaves the float range
    @settings(max_examples=60, deadline=None)
    @given(span=_log_uniform(1e-8, 30.0), tol=st.sampled_from([1e-12, 1e-10, 1e-6]))
    def test_closed_form_nodes_match_the_solver(self, span, tol):
        geometry = WellGeometry(1.0 + span, 1.0)
        frozen = MassProfile(geometry, ConstantInner(-1.0))
        kappas = critical_betas(geometry, 300, tol=tol)
        assert [count_nodes(build_solution(frozen, -k * k, "even")) for k in kappas] == list(range(0, 600, 2))
        # the ground state below the first critical value: the lowest positive level
        k_first = find_roots(ConstantNegPos(geometry), RootWindow(0.0, 2.0 * math.pi / span, tol))[0]
        assert count_nodes(build_solution(frozen, k_first * k_first, "even")) == 0
        (row,) = ground_state_staircase(geometry.L, 0.7, 1, tol=tol)
        assert (row.negative_count, row.ground_state_nodes) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ground_state_staircase(2.0, 0.0, 10)
        with pytest.raises(ValueError):
            ground_state_staircase(2.0, 5.0, 0)


def test_staircase_and_delta_limit_do_not_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("isolate_sign_changes was called")

    monkeypatch.setattr(_rootscan, "isolate_sign_changes", scan)
    # every root of both has an analytic bracket
    assert ground_state_staircase(2.0, 14.0, 280)[-1].negative_count == 5
    assert len(delta_limit_study(1.0, 2.0, [0.1, 0.01, 0.001])) == 3


class TestDeltaLimitStudy:
    def test_leftmost_root_converges_to_reduced_fixed_point(self):
        rows = delta_limit_study(1.0, 2.0, [0.1, 0.01, 0.001])
        kappa1 = reduced_kappa1(1.0, 2.0)
        gaps = [abs(row.leftmost_root - kappa1) for row in rows]
        assert all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-2
        assert rows[-1].reduced_fixed_point == pytest.approx(kappa1, abs=1e-14)

    def test_second_root_escapes_like_pi_over_nu(self):
        rows = delta_limit_study(1.0, 2.0, [0.01, 0.001])
        for row in rows:
            expect = math.pi * row.b / row.a  # = pi / nu
            assert abs(row.second_root - expect) / expect <= 0.05
        assert rows[1].second_root > rows[0].second_root

    def test_unit_nu_matches_constant_branch_roots(self):
        # a = b = 1 reduces the full equation to the constant-mass branch
        rows = delta_limit_study(1.0, 2.0, [1.0])
        roots = find_roots(ConstantNegNeg(G2), RootWindow(0.0, 5.0))
        assert rows[0].a == pytest.approx(1.0)
        assert rows[0].b == pytest.approx(1.0)
        assert rows[0].leftmost_root == pytest.approx(roots[0], abs=1e-9)
        assert rows[0].second_root == pytest.approx(roots[1], abs=1e-9)

    def test_second_root_above_1_45_pi_over_nu(self):
        # the second root lies in (pi/nu, 3 pi/(2 nu)); here above 1.45 pi/nu
        nu = 0.1
        (row,) = delta_limit_study(100.0, 2.0, [nu])
        branch = TwoParamNeg(WellGeometry(2.0, row.a), b=row.b, nu=nu)
        roots = find_roots(branch, RootWindow(0.0, 2.5 * math.pi / nu))
        assert row.second_root == pytest.approx(roots[1], abs=1e-9)
        assert 1.45 * math.pi / nu < row.second_root < 1.5 * math.pi / nu

    # a = (b/nu) nu^2 must fit inside L
    @settings(max_examples=80, deadline=None)
    @given(
        ratio=_log_uniform(1e-3, 1e3),
        L=_log_uniform(0.3, 30.0),
        nu=_log_uniform(1e-4, 1.0),
        tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
    )
    def test_pair_matches_the_scan(self, ratio, L, nu, tol):
        assume(ratio * nu * nu < L)
        (row,) = delta_limit_study(ratio, L, [nu], tol=tol)
        branch = TwoParamNeg(WellGeometry(L, row.a), b=row.b, nu=nu)
        want = find_roots(branch, RootWindow(0.0, 2.0 * math.pi / nu, tol))[:2]
        assert len(want) == 2
        assert _close(row.leftmost_root, want[0], tol) and _close(row.second_root, want[1], tol), (row, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_limit_study(0.0, 2.0, [0.1])
        with pytest.raises(ValueError):
            delta_limit_study(1.0, 2.0, [-0.1])
        with pytest.raises(ValueError):
            delta_limit_study(4.0, 2.0, [1.0])  # a = 4 does not fit in L = 2
