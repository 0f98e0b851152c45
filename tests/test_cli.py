import json
import math

import pytest

from masswell.cli import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    main,
    parse_config,
    preset_config,
)
from masswell.profiles import (
    ConstantInner,
    MassProfile,
    ScaledInner,
    StepInner,
    TanhInner,
    WellGeometry,
)
from masswell.secular import ConstantNegNeg, RootWindow, find_roots


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
        cfg = ScenarioConfig.from_text(preset_config(name))
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
        cfg = ScenarioConfig.from_text("preset = step\ne_thr = -9\nL = 3\n")
        profile = cfg.profile()
        assert profile.inner == StepInner(-9.0)
        assert profile.geometry.L == 3.0

    def test_profile_requires_inner_or_preset(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("L = 2\n").profile()

    def test_bad_geometry_is_config_error(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("preset = tanh\na = 5\n").profile()


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
    def test_scan_diagnostic_maps_to_exit_3(self, monkeypatch, tmp_path):
        from masswell import cli as cli_module
        from masswell.secular import ScanResolutionError

        def explode(*args, **kwargs):
            raise ScanResolutionError("synthetic diagnostic")

        monkeypatch.setattr(cli_module, "run_scenario", explode)
        out = tmp_path / "never.csv"
        code = main(["spectrum", "--preset", "uniform", "--out", str(out)])
        assert code == 3
        assert not out.exists()


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


class TestNumericFailureExitCode:
    @pytest.mark.parametrize(
        "argv",
        [
            # math.cosh overflows deep in the negative-energy window
            ["--window=-1e6:10"],
            # the grown state's L2 norm is not finite, so it cannot be normalized
            ["--window=37000:38500", "--parity", "even"],
        ],
    )
    def test_overflow_maps_to_exit_3(self, argv, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(["spectrum", "--preset", "constant-negative", *argv, "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("solver failure:")


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
