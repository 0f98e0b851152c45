import json
import math
import numbers
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masswell import cli
from masswell.cli import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    main,
    parse_config,
)
from masswell.profiles import (
    ConstantInner,
    MassProfile,
    ScaledInner,
    StepInner,
    TanhInner,
    WellGeometry,
)
from masswell.secular import ConstantNegNeg, RootWindow, ScanResolutionError, find_roots


class TestConfigGrammar:
    def test_basic_parse(self):
        raw = parse_config("L = 2.0\n# full comment\nparity = even  # trailing\n\nwindow = -4:9\n")
        assert raw == {"L": "2.0", "parity": "even", "window": "-4:9"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("bogus = 1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("L = 2\nL = 3\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("L =\n")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_round_trip(self, name):
        cfg = ScenarioConfig({"preset": name})
        rebuilt = cfg.profile()
        expected = {
            "constant-negative": MassProfile(WellGeometry(2.0, 1.0), ConstantInner(-1.0)),
            "uniform": MassProfile(WellGeometry(2.0, 1.0), ConstantInner(1.0)),
            "tanh": MassProfile(WellGeometry(2.0, 1.0), TanhInner()),
            "step": MassProfile(WellGeometry(2.0, 1.0), StepInner(-4.0)),
            "two-param": MassProfile(WellGeometry(2.0, 0.5), ScaledInner(0.5)),
        }[name]
        assert rebuilt == expected

    def test_explicit_keys_override_preset(self):
        cfg = ScenarioConfig(parse_config("preset = step\ne_thr = -9\nL = 3\n"))
        profile = cfg.profile()
        assert profile.inner == StepInner(-9.0)
        assert profile.geometry.L == 3.0

    def test_profile_requires_inner_or_preset(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(parse_config("L = 2\n")).profile()

    def test_bad_geometry_is_config_error(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(parse_config("preset = tanh\na = 5\n")).profile()


class TestSpectrumCommand:
    def test_unbounded_verdict_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "spectrum", "--preset", "constant-negative", "--parity", "even",
            "--window=-100:100", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"]["kind"] == "unbounded_below"
        assert report["levels"][0]["energy"] < 0

    def test_tanh_bounded_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "spectrum", "--preset", "tanh", "--window=-50:50",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# verdict: bounded_below" in text
        data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert all(float(l.split(",")[1]) > 0 for l in data_lines)

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\nout = " + str(tmp_path / "never.csv") + "\n")
        code = main(["spectrum", "--config", str(cfg)])
        assert code == 2
        assert not (tmp_path / "never.csv").exists()

    def test_missing_config_file_exits_2(self):
        assert main(["spectrum", "--config", "/nonexistent/path.cfg"]) == 2

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        out = tmp_path / "report.csv"
        cfg.write_text(
            "preset = uniform\nwindow = 0:20\nparity = even\n"
            f"out = {out}\nformat = csv\n"
        )
        assert main(["spectrum", "--config", str(cfg)]) == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert float(lines[0].split(",")[1]) == pytest.approx((math.pi / 4.0) ** 2, rel=1e-9)

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "spectrum", "--preset", "step", "--window=-9:40",
                "--format", "json", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSolverFailureExitCode:
    # no request is known to overflow, so the OverflowError mapping is raised by hand
    @pytest.mark.parametrize(
        "error", [ScanResolutionError("synthetic diagnostic"), OverflowError("synthetic overflow")]
    )
    def test_solver_failure_maps_to_exit_3(self, error, monkeypatch, tmp_path, capsys):
        from masswell import cli as cli_module

        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_module, "run_scenario", explode)
        out = tmp_path / "never.csv"
        code = main(["spectrum", "--preset", "uniform", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == f"solver failure: {error}\n"

    def test_an_undersized_level_scan_exits_3(self, monkeypatch, tmp_path, capsys):
        # segments said to turn through no phase get 256 cells, too few for 31,513 levels
        from masswell import matching

        scan = matching._level_scan

        def unsized(*args):
            residual, segments, phases, count = scan(*args)
            return residual, segments, [0.0] * len(phases), count

        monkeypatch.setattr(matching, "_level_scan", unsized)
        config = tmp_path / "wide.cfg"
        config.write_text("inner = constant\nm0 = 1\nL = 1000\na = 1\n")
        code = main(["spectrum", "--config", str(config), "--window=1:1e4", "--parity", "even"])
        assert (code, capsys.readouterr().err) == (3, "solver failure: found 231 of at least 31513 roots\n")

    # windows whose scan would take more cells than one scan may: each fails before anything is sampled
    @pytest.mark.parametrize(
        "preset, window, phase",
        [
            ("uniform", "1e+30:2e+30", "8.28e+14"),
            ("uniform", "1e+200:2e+200", "8.28e+99"),
            # m E overflows to inf here
            ("two-param", "-1e+308:-1e+307", "6.84e+153"),
        ],
    )
    def test_a_window_too_wide_to_scan_exits_3(self, preset, window, phase, capsys):
        code = main(["spectrum", "--preset", preset, f"--window={window}", "--parity", "even"])
        err = f"solver failure: window {window} turns through {phase} radians, more than 8388608 scan cells hold\n"
        assert (code, capsys.readouterr()) == (3, ("", err))

    # curves ranges too wide to scan fail in the root scan, before a break is listed; step-neg's roots stop at beta,
    # so its scan passes, and its breaks, which run on to HI, are capped by count
    @pytest.mark.parametrize(
        "branch, window, err",
        [
            ("constant-neg-pos", "0:1e15", "the scan of 1e-12:1000000000000000.0 turns through 1e+15 radians"),
            ("tanh-pos", "0:1e20", "the scan of 1e-12:1e+20 turns through 1e+20 radians"),
            ("step-neg", "0:1e15", "range 0.0:1000000000000000.0 holds 3.18e+14 curve breaks, more than 1048576"),
        ],
    )
    def test_a_curves_range_too_wide_exits_3(self, branch, window, err, capsys):
        code = main(["curves", "--branch", branch, "--range", window])
        out, stderr = capsys.readouterr()
        assert (code, out) == (3, "") and stderr.startswith(f"solver failure: {err}")


class TestCoarseTol:
    def test_a_tol_coarser_than_the_level_spacing_exits_2(self, capsys):
        # 63 even levels on 1:1e4, pi / 2 apart in s = sqrt(E); tol 100 merges those closer than 4 tol / 200 = 2 in s
        code = main(["spectrum", "--preset", "uniform", "--window=1:1e4", "--parity", "even", "--tol", "100"])
        err = capsys.readouterr().err
        assert (code, err) == (2, "config error: tol is coarser than the root spacing: 63 roots merge into 32\n")
        assert main(["spectrum", "--preset", "uniform", "--window=1:1e4", "--parity", "even", "--tol", "10"]) == 0


class TestCurvesCommand:
    def test_segments_and_markers(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main([
            "curves", "--branch", "constant-neg-neg", "--range", "0.2:8",
            "--samples", "64", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        blocks = text.split("\n\n")
        assert len(blocks) >= 3  # split at the two tangent poles inside (0.2, 8)
        assert "# roots" in text
        marker_lines = text.split("# roots\n", 1)[1].strip().splitlines()
        markers = [float(line.split(",")[0]) for line in marker_lines]
        expected = find_roots(ConstantNegNeg(WellGeometry(2.0, 1.0)), RootWindow(0.2, 8.0))
        assert markers == pytest.approx(expected, abs=1e-10)
        # at every marker the two curves intersect
        for line in marker_lines:
            _, lhs, rhs = (float(v) for v in line.split(","))
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_constant_neg_pos_curve_values(self, tmp_path):
        out = tmp_path / "curves.csv"
        main([
            "curves", "--branch", "constant-neg-pos", "--range", "0.5:3",
            "--samples", "32", "--out", str(out),
        ])
        rows = [
            l for l in out.read_text().splitlines()
            if l and not l.startswith("#")
        ]
        t, lhs, rhs = (float(v) for v in rows[0].split(","))
        assert lhs == pytest.approx(-math.tanh(t), abs=1e-12)
        assert rhs == pytest.approx(1.0 / math.tan(t), abs=1e-12)

    # tanh(t * t) at t * t = inf is the right 1.0; the suite's error filter stays on for cli.py
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning:masswell.secular")
    def test_a_range_near_the_float_limit_keeps_every_sample(self, capsys):
        # the sample split divides before it multiplies: 512 * 1e308 would overflow to inf
        assert main(["curves", "--branch", "tanh-neg", "--range", "0:1e308"]) == 0
        table, _, roots = capsys.readouterr().out.partition("# roots\n")
        rows = [line for line in table.splitlines() if line and not line.startswith("#")]
        assert (len(rows), rows[-1].split(",")[0], roots) == (512, "1e+308", "")

    def test_unknown_branch_rejected(self):
        assert main(["curves", "--branch", "no-such-branch"]) == 2

    def test_bad_reduced_ratio_rejected(self, capsys):
        assert main(["curves", "--branch", "two-param-reduced", "--b-over-nu", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestWavefunctionCommand:
    def test_uniform_ground_state_dump(self, tmp_path):
        out = tmp_path / "wf.csv"
        code = main([
            "wavefunction", "--preset", "uniform", "--window", "0:1",
            "--level", "1", "--samples", "9", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# parity: even" in text
        assert "# nodes: 0" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 9
        for row in rows:
            x, value = (float(v) for v in row.split(","))
            assert value == pytest.approx(math.cos(math.pi * x / 4.0) / math.sqrt(2.0), abs=1e-9)

    def test_step_past_first_critical_lowest_level(self, tmp_path):
        out = tmp_path / "wf.csv"
        code = main([
            "wavefunction", "--preset", "step", "--window=-4:1",
            "--level", "1", "--parity", "even", "--samples", "101", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        energy = float(next(l for l in text.splitlines() if l.startswith("# energy:")).split(":")[1])
        assert energy == pytest.approx(-0.9375520343559807 ** 2, rel=1e-9)
        loc = float(next(l for l in text.splitlines() if l.startswith("# localization:")).split(":")[1])
        assert loc > 0.85

    def test_grid_size_one_rejected(self):
        assert main(["wavefunction", "--preset", "uniform", "--samples", "1"]) == 2

    def test_level_out_of_range_rejected(self):
        code = main([
            "wavefunction", "--preset", "uniform", "--window", "0:1",
            "--level", "5",
        ])
        assert code == 2


class TestCriticalBetaCommand:
    def test_values_match_library(self, tmp_path):
        out = tmp_path / "beta.json"
        code = main([
            "critical-beta", "--L", "2", "--count", "4", "--format", "json",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["critical_betas"] == pytest.approx(
            [0.9375520343559807, 3.9273787191188063, 7.0685841955232345, 10.210176125520626],
            abs=1e-10,
        )

    def test_bad_count_rejected(self):
        assert main(["critical-beta", "--L", "2", "--count", "0"]) == 2


class TestDeltaLimitCommand:
    def test_table_csv(self, tmp_path):
        out = tmp_path / "delta.csv"
        code = main([
            "delta-limit", "--b-over-nu", "1", "--L", "2", "--nus", "0.01,0.001",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# reduced fixed point: 1.03266906948" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 2
        nu, a, b, left, second, pi_over_nu = (float(v) for v in rows[1].split(","))
        assert nu == 0.001 and b == pytest.approx(0.001) and a == pytest.approx(1e-6)
        assert left == pytest.approx(1.0326690694873524, abs=1e-4)
        assert abs(second - pi_over_nu) / pi_over_nu < 0.05

    def test_bad_nu_list_rejected(self):
        assert main(["delta-limit", "--nus", "0.1,zebra"]) == 2

    def test_second_root_above_old_search_window(self, capsys):
        assert main(["delta-limit", "--b-over-nu", "100", "--nus", "0.1", "--L", "2"]) == 0
        row = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][0]
        second = float(row.split(",")[4])
        assert second == pytest.approx(46.127, abs=1e-3)


class TestOptionsPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["curves", "--branch", "constant-neg-neg", "--format", "json"],
            ["wavefunction", "--preset", "uniform", "--format", "json"],
            ["critical-beta", "--window", "0:1"],
            ["delta-limit", "--parity", "odd"],
        ],
    )
    def test_option_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def closed_form_localization(energy, parity, L=2.0, a=1.0):
    """Localization of the inner-mass -1 state at E = k^2 > 0: outer sin k(x+L),
    inner c cosh(kx) (even) or c sinh(kx) (odd), c from psi continuity at -a.
    Written through t = tanh ka, so it stays finite at any k a."""
    k = math.sqrt(energy)
    s = math.sin(k * (L - a)) ** 2
    t = math.tanh(k * a)
    if parity == "even":
        inside = s * (a * (1.0 - t * t) + t / k)  # (a + sinh(2ka)/(2k)) / cosh^2(ka)
    else:
        inside = s * (1.0 / (k * t) - a * (1.0 / (t * t) - 1.0))  # (sinh(2ka)/(2k) - a) / sinh^2(ka)
    outside = (L - a) - math.sin(2 * k * (L - a)) / (2 * k)
    return inside / (inside + outside)


def closed_form_negative_localization(kappa, k, L=2.0, a=1.0):
    """Localization of the level at E = -kappa^2 with outer sinh kappa(x+L) and
    inner cos kx (even) or sin kx (odd).  With t = tanh kappa(L-a), the seam
    condition k tan ka = kappa / t (even) or -k cot ka = kappa / t (odd) gives
    both parities inner / psi(-a)^2 = a (1 + (kappa/(k t))^2) + kappa / (k^2 t)
    and, per side, outer / psi(-a)^2 = 1/(2 kappa t) - (L-a)(1/t^2 - 1)/2, finite
    at any kappa.  At k = kappa, L = 2 a = 2 it is
    (1 + tanh 2kappa/(2kappa)) / (1 + tanh 2kappa/kappa - sech 2kappa)."""
    t = math.tanh(kappa * (L - a))
    inside = a * (1.0 + (kappa / (k * t)) ** 2) + kappa / (k * k * t)
    outside = 1.0 / (2.0 * kappa * t) - (L - a) * (1.0 / (t * t) - 1.0) / 2.0
    return inside / (inside + 2.0 * outside)


class TestDeepHyperbolicStates:
    """Levels with a hyperbolic piece whose q times width is far above 1,
    some past where cosh or sinh leaves the float range."""

    @staticmethod
    def rows(argv, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["spectrum", *argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        return [line.split(",")[1:] for line in lines if line and not line.startswith("#")]

    def test_tanh_nodes_and_localization(self, tmp_path):
        # q a = 21.2 and -tanh(449.7) == -1.0, so the constant m0 = -1 closed form applies
        rows = self.rows(["--preset", "tanh", "--window=440:470"], tmp_path)
        assert [(parity, nodes) for _, parity, nodes, _ in rows] == [("even", "12"), ("odd", "13")]
        for energy, parity, _, loc in rows:
            want = closed_form_localization(float(energy), parity)
            assert float(loc) == pytest.approx(want, rel=1e-10)
            assert float(loc) == pytest.approx(0.0225167, rel=1e-5)

    # q a = 194: an inner piece anchored at x = 0 gives the level a NaN norm;
    # q a = 357: sinh(2 q a) of a cosh inner piece's L2 integral is past the float range
    @pytest.mark.parametrize("window,nodes", [("37000:38500", ["122"]), ("126000:132000", ["226", "228"])])
    def test_deep_positive_levels_normalize(self, window, nodes, tmp_path):
        rows = self.rows(["--preset", "constant-negative", f"--window={window}", "--parity", "even"], tmp_path)
        assert [(parity, n) for _, parity, n, _ in rows] == [("even", n) for n in nodes]
        for energy, _, n, loc in rows:
            assert n == str(2 * math.floor(math.sqrt(float(energy)) / math.pi))
            assert float(loc) == pytest.approx(closed_form_localization(float(energy), "even"), rel=1e-10)

    # inner wavenumber k = kappa sqrt(-m): 1 for constant-negative, 2 for two-param
    @pytest.mark.parametrize(
        "preset,window,parity,k_per_kappa,count",
        [
            ("constant-negative", "-1e6:10", "even", 1.0, 319),
            ("two-param", "-1e5:-1e4", "even", 2.0, 69),
            ("two-param", "-1e5:-1e4", "odd", 2.0, 69),
        ],
    )
    def test_deep_negative_levels_match_closed_form(self, preset, window, parity, k_per_kappa, count, tmp_path):
        rows = self.rows(["--preset", preset, f"--window={window}", "--parity", parity], tmp_path)
        negative = [(float(e), int(nodes), float(loc)) for e, _, nodes, loc in rows if float(e) < 0.0]
        assert len(negative) == count
        L, a = float(PRESETS[preset]["L"]), float(PRESETS[preset]["a"])
        for energy, nodes, loc in negative:
            kappa = math.sqrt(-energy)
            k = k_per_kappa * kappa
            # 2 floor(kappa / pi) for constant-negative
            assert nodes == math.floor(2.0 * k * a / math.pi), energy
            assert abs(loc - closed_form_negative_localization(kappa, k, L, a)) <= 1e-12, energy


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--preset", "constant-negative", "--window=-inf:10", "--parity", "even"],
            ["spectrum", "--preset", "constant-negative", "--window=0:inf"],
            ["spectrum", "--preset", "uniform", "--window=0:30", "--tol", "inf"],
            ["spectrum", "--preset", "uniform", "--window=0:30", "--tol", "nan"],
            ["critical-beta", "--L", "inf"],
            ["delta-limit", "--nus", "0.1,nan"],
        ],
    )
    def test_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "never.txt"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error:")


class TestFormerTracebacks:
    def test_curves_range_below_pole_margin_has_no_roots(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main([
            "curves", "--branch", "constant-neg-pos", "--range", "0:1e-10", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-2].startswith("# columns:") and lines[-1] == "# roots"

    def test_delta_limit_tiny_ratio_finds_both_roots(self, capsys):
        # the first root, near sqrt(b / (nu L)) ~ 1e-150, lies far below any scan's floor
        assert main(["delta-limit", "--b-over-nu", "1e-300"]) == 0
        rows = [[float(v) for v in line.split(",")] for line in capsys.readouterr().out.splitlines()[3:]]
        assert [row[0] for row in rows] == [0.1, 0.01, 0.001]
        for nu, _, _, first, second, _ in rows:
            assert 0.0 < first < 0.5 * math.pi / nu and math.pi / nu <= second < 1.5 * math.pi / nu

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2(self, target, tmp_path, capsys):
        out = tmp_path / target
        assert main(["critical-beta", "--count", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "missing").exists()


class TestConfigChecks:
    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("spectrum", "preset = nope", "unknown preset"),
            ("critical-beta", "count = 2.5", "not an integer"),
            ("spectrum", "preset = uniform\nwindow = 1:2:3", "expected LO:HI"),
            ("spectrum", "preset = uniform\nwindow = 5:1", "require LO < HI"),
            ("spectrum", "preset = uniform\nparity = all", "parity must be"),
            ("spectrum", "preset = uniform\ntol = -1", "tol must be positive"),
            ("spectrum", "preset = uniform\nwindow = 0:1\nformat = xml", "format must be"),
            ("spectrum", "inner = quartic", "unknown inner law"),
            ("spectrum", "inner = step", "requires 'e_thr'"),
            ("spectrum", "inner = scaled\nb = -1", "require b > 0"),
            ("curves", "branch = step-neg\ne_thr = 1", "requires e_thr < 0"),
            ("curves", "L = 2", "requires 'branch'"),
            ("curves", "branch = constant-neg-pos\nrange = -1:2", "require 0 <= LO < HI"),
            ("curves", "branch = constant-neg-pos\nsamples = 1", "samples must be"),
            ("wavefunction", "preset = uniform\nlevel = 0", "1-based"),
            ("delta-limit", "nu_values = ,", "at least one value"),
            # keys that no reader takes
            ("spectrum", "preset = uniform\nscenario = x", "unknown key"),
            ("curves", "branch = two-param-neg\nnu = 1", "unknown key"),
        ],
    )
    def test_exits_2_without_output(self, command, text, message, tmp_path, capsys):
        out = tmp_path / "never.txt"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{text}\nout = {out}\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,solver",
        [
            (["spectrum", "--preset", "constant-negative", "--window=-1e5:1e4"], "run_scenario"),
            (["critical-beta"], "critical_betas"),
            (["delta-limit"], "delta_limit_study"),
        ],
    )
    def test_bad_format_fails_before_the_solve(self, argv, solver, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError(f"{solver} ran")

        monkeypatch.setattr(cli, solver, never)
        assert main([*argv, "--format", "xml"]) == 2
        assert "format must be csv or json" in capsys.readouterr().err

    def test_unknown_preset_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            ScenarioConfig({"preset": "nope"})

    @pytest.mark.parametrize(
        "argv,flag,key,value",
        [
            (["spectrum", "--preset", "uniform"], "--format", "format", "xml"),
            (["spectrum", "--preset", "uniform"], "--parity", "parity", "all"),
            (["wavefunction", "--preset", "uniform"], "--samples", "samples", "2.5"),
            (["critical-beta"], "--L", "L", "x"),
            (["critical-beta"], "--L", "L", "1e400"),
            (["critical-beta"], "--count", "count", "1.5"),
            (["critical-beta"], "--tol", "tol", "abc"),
            (["delta-limit"], "--b-over-nu", "b_over_nu", "q"),
            (["wavefunction", "--preset", "uniform"], "--level", "level", "z"),
        ],
    )
    def test_flag_and_config_line_fail_alike(self, argv, flag, key, value, tmp_path, capsys):
        out = tmp_path / "never.txt"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        errors = []
        for extra in ([flag, value], ["--config", str(cfg)]):
            assert main([*argv, *extra, "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1] and errors[0].startswith("config error:")
        assert repr(value) in errors[0]  # as typed: 1e400 is not read back as 'inf'


def _per_value_row(row):
    """A table row as written before row templates: one format per value, joined."""
    return ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)


_FLOATS = st.one_of(
    st.floats(),  # with nan, +-inf, +-0.0 and subnormals
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308,
         1.7976931348623157e308, -1.7976931348623157e308]
    ),
    st.floats().map(np.float64),
)
_STRATEGY = {
    "%.17g": _FLOATS,
    "%d": st.one_of(st.integers(), st.integers(-(2**63), 2**63 - 1).map(np.int64)),
    "%s": st.text(),
}
# what each conversion must be given: %d of a float would truncate silently
_COLUMN_TYPE = {"%.17g": float, "%d": numbers.Integral, "%s": str}


class TestRowTemplates:
    @pytest.mark.parametrize("command", sorted(cli._ROW_TEMPLATES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_template_bytes_equal_per_value_join(self, command, data):
        template = cli._ROW_TEMPLATES[command]
        row = tuple(data.draw(_STRATEGY[spec]) for spec in template.split(","))
        assert template % row == _per_value_row(row)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--preset", "step", "--window=-9:20"],
            ["curves", "--branch", "tanh-pos", "--samples", "64"],
            ["wavefunction", "--preset", "uniform", "--samples", "9"],
            ["critical-beta", "--count", "3"],
            ["delta-limit", "--nus", "0.1,0.01"],
        ],
    )
    def test_rows_carry_the_template_column_types(self, argv, monkeypatch, capsys):
        real = cli._format_rows
        seen = []

        def checked(command, values):
            specs = cli._ROW_TEMPLATES[command].split(",")
            assert isinstance(values, list) and len(values) % len(specs) == 0
            seen.append((command, len(values) // len(specs)))
            for i, value in enumerate(values):
                spec = specs[i % len(specs)]
                assert isinstance(value, _COLUMN_TYPE[spec]), (spec, value)
                assert not isinstance(value, bool), (spec, value)
            return real(command, values)

        monkeypatch.setattr(cli, "_format_rows", checked)
        assert main(argv) == 0
        assert {command for command, _ in seen} == {argv[0]}
        assert sum(n for _, n in seen) > 0


_SRC = Path(cli.__file__).resolve().parent.parent


def _stdout_of_fresh_process(args):
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        check=True,
    ).stdout


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_requests_after_an_argparse_exit_match_fresh_processes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        for argv in (["spectrum", "--preset", "step"], ["curves", "--branch", "tanh-pos"]):
            assert main(argv) == 0
            alone = _stdout_of_fresh_process(
                ["-c", f"import sys; from masswell.cli import main; sys.exit(main({argv!r}))"]
            )
            assert capsys.readouterr().out.encode() == alone

    def test_python_dash_m_matches_in_process_main(self, capsys, tmp_path, monkeypatch):
        argv = ["critical-beta", "--count", "3"]
        assert main(argv) == 0
        monkeypatch.chdir(tmp_path)
        assert _stdout_of_fresh_process(["-m", "masswell", *argv]) == capsys.readouterr().out.encode()
