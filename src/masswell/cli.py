"""Command-line front end: scenario configs, presets, CSV/JSON emission.

Config files are flat ``key = value`` text: one assignment per line,
``#`` starts a comment, unknown keys are rejected.  Command-line flags
override config values.  Exit codes: 0 success, 2 bad config or request,
3 solver diagnostic or numeric overflow.

Floats are always written with 17 significant digits, so identical
configs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from ._rootscan import segments_between
from .matching import eigenvalues
from .profiles import INNER_LAWS, MassProfile, WellGeometry
from .secular import (
    BRANCHES,
    PoleProximityError,
    RootWindow,
    ScanResolutionError,
    SecularBranch,
    StepNeg,
    TwoParamNeg,
    TwoParamReduced,
    critical_betas,
    find_roots,
)
from .spectrum import SpectrumReport, delta_limit_study, run_scenario
from .wavefunction import count_nodes, evaluate, localization_fraction

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "preset_config", "main"]


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


PRESETS: dict[str, dict[str, str]] = {
    "constant-negative": {"inner": "constant", "m0": "-1", "L": "2", "a": "1"},
    "uniform": {"inner": "constant", "m0": "1", "L": "2", "a": "1"},
    "tanh": {"inner": "tanh", "L": "2", "a": "1"},
    "step": {"inner": "step", "e_thr": "-4", "L": "2", "a": "1"},
    "two-param": {"inner": "scaled", "b": "0.5", "L": "2", "a": "0.5"},
}

_KNOWN_KEYS = {
    "preset", "scenario", "L", "a", "inner", "m0", "e_thr", "b", "nu",
    "window", "parity", "tol", "format", "out", "samples", "level",
    "branch", "count", "b_over_nu", "nu_values", "range",
}

#: config keys a command-line flag can override; each flag's dest is its key
_FLAG_KEYS = (
    "preset", "out", "window", "tol", "format", "parity", "branch", "range",
    "samples", "level", "count", "L", "b_over_nu", "nu_values",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def parse_config(text: str) -> dict[str, str]:
    """Parse the flat key = value grammar into a raw string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def preset_config(name: str) -> str:
    """Canonical config text for a named preset (round-trips through parse)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    lines = [f"preset = {name}"]
    lines += [f"{key} = {value}" for key, value in PRESETS[name].items()]
    return "\n".join(lines) + "\n"


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {raw!r}")
    return value


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from None


def _parse_pair(raw: str, key: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ConfigError(f"key {key!r}: expected LO:HI, got {raw!r}")
    return _parse_float(parts[0], key), _parse_float(parts[1], key)


@dataclass
class ScenarioConfig:
    """Validated view over the raw config mapping with defaults applied."""

    raw: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        return cls(parse_config(text))

    def _effective(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        preset = self.raw.get("preset")
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
            merged.update(PRESETS[preset])
        merged.update(self.raw)
        return merged

    def profile(self) -> MassProfile:
        eff = self._effective()
        inner_name = eff.get("inner")
        if inner_name is None:
            raise ConfigError("no mass profile: set 'preset' or 'inner'")
        geometry = self.geometry()
        try:
            law = INNER_LAWS.get(inner_name)
            if law is None:
                *names, last = INNER_LAWS
                raise ConfigError(
                    f"unknown inner law {inner_name!r}; choose {', '.join(names)} or {last}"
                )
            params = {}
            for param in fields(law):
                if param.name in eff:
                    params[param.name] = _parse_float(eff[param.name], param.name)
                elif param.default is MISSING:
                    raise ConfigError(f"{inner_name} inner law requires {param.name!r}")
            return MassProfile(geometry, law(**params))
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from None

    def geometry(self) -> WellGeometry:
        L = self.get_float("L", "2")
        a = self.get_float("a", "1")
        try:
            return WellGeometry(L, a)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def window(self) -> tuple[float, float]:
        lo, hi = _parse_pair(self.get_str("window", "-100:100"), "window")
        if not lo < hi:
            raise ConfigError(f"window: require LO < HI, got {lo}:{hi}")
        return lo, hi

    def parities(self) -> tuple[str, ...]:
        raw = self.get_str("parity", "both")
        if raw == "both":
            return ("even", "odd")
        if raw in ("even", "odd"):
            return (raw,)
        raise ConfigError(f"parity must be even, odd or both, got {raw!r}")

    def tol(self) -> float:
        tol = self.get_float("tol", "1e-12")
        if not tol > 0.0:
            raise ConfigError("tol must be positive")
        return tol

    def out_format(self) -> str:
        fmt = self.get_str("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        return fmt

    def get_float(self, key: str, default: str) -> float:
        return _parse_float(self.get_str(key, default), key)

    def get_int(self, key: str, default: str) -> int:
        return _parse_int(self.get_str(key, default), key)

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self._effective().get(key, default)


def _profile_dict(profile: MassProfile) -> dict:
    return {
        "L": profile.geometry.L,
        "a": profile.geometry.a,
        "outer_mass": profile.outer_mass,
        "inner": {"law": profile.inner.law, **asdict(profile.inner)},
    }


def _report_text(report: SpectrumReport) -> str:
    lines = [
        "# masswell spectrum report",
        f"# scenario: {report.scenario}",
        f"# model: {report.profile.describe()}",
        f"# window: {_fmt(report.window[0])}:{_fmt(report.window[1])}",
        f"# parities: {','.join(report.parities)}",
        f"# verdict: {report.verdict.kind}",
    ]
    if report.verdict.evidence:
        ev = report.verdict.evidence
        lines.append(
            "# evidence: negative-level count "
            f"{ev['count_small']} for kappa in (0,{_fmt(ev['kappa_window_small'])}], "
            f"{ev['count_large']} for kappa in (0,{_fmt(ev['kappa_window_large'])}], "
            f"required growth {ev['required_growth']}"
        )
    lines.append("# columns: index,energy,parity,nodes,localization")
    for i, level in enumerate(report.levels, start=1):
        lines.append(
            f"{i},{_fmt(level.energy)},{level.parity},{level.nodes},{_fmt(level.localization)}"
        )
    return "\n".join(lines) + "\n"


def _report_dict(report: SpectrumReport) -> dict:
    return {
        "scenario": report.scenario,
        "model": _profile_dict(report.profile),
        "window": list(report.window),
        "parities": list(report.parities),
        "verdict": {"kind": report.verdict.kind, "evidence": report.verdict.evidence},
        "levels": [
            {
                "index": i,
                "energy": level.energy,
                "parity": level.parity,
                "nodes": level.nodes,
                "localization": level.localization,
            }
            for i, level in enumerate(report.levels, start=1)
        ],
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _make_branch(name: str, cfg: ScenarioConfig) -> SecularBranch:
    branch = BRANCHES.get(name)
    if branch is None:
        raise ConfigError(f"unknown branch {name!r}; choose from {list(BRANCHES)}")
    try:
        if branch is TwoParamReduced:
            return TwoParamReduced(cfg.get_float("L", "2"), cfg.get_float("b_over_nu", "1"))
        geometry = cfg.geometry()
        if branch is StepNeg:
            e_thr = cfg.get_float("e_thr", "-4")
            if not e_thr < 0.0:
                raise ConfigError("step-neg requires e_thr < 0")
            return StepNeg(geometry, beta=math.sqrt(-e_thr))
        if branch is TwoParamNeg:
            nu = cfg.get_str("nu")
            return TwoParamNeg(
                geometry,
                b=cfg.get_float("b", "0.5"),
                nu=None if nu is None else _parse_float(nu, "nu"),
            )
        return branch(geometry)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        raw.update(parse_config(text))
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = str(value)
    return ScenarioConfig(raw)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    profile = cfg.profile()
    report = run_scenario(
        profile,
        cfg.window(),
        parities=cfg.parities(),
        tol=cfg.tol(),
        scenario=cfg.get_str("scenario", "") or profile.describe(),
    )
    if cfg.out_format() == "json":
        text = _json_text(_report_dict(report))
    else:
        text = _report_text(report)
    _emit(text, cfg.get_str("out"))
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    name = cfg.get_str("branch")
    if name is None:
        raise ConfigError("curves requires 'branch'")
    branch = _make_branch(name, cfg)
    lo, hi = _parse_pair(cfg.get_str("range", "0.05:13") or "", "range")
    if not 0.0 <= lo < hi:
        raise ConfigError(f"range: require 0 <= LO < HI, got {lo}:{hi}")
    samples = cfg.get_int("samples", "512")
    if samples < 2:
        raise ConfigError("samples must be at least 2")
    tol = cfg.tol()

    margin = 1e-6
    segments = segments_between(max(lo, margin), hi, branch.curve_breaks(lo, hi), margin)

    roots = find_roots(branch, RootWindow(max(lo, 1e-9), hi, tol=tol))

    lab1, lab2 = branch.curve_labels
    lines = [
        f"# masswell secular curves: {branch.describe()}",
        f"# columns: t,{lab1},{lab2}",
    ]
    total = sum(s1 - s0 for s0, s1 in segments)
    for s0, s1 in segments:
        n = max(2, int(round(samples * (s1 - s0) / total)))
        ts = np.linspace(s0, s1, n)
        c1, c2 = branch.curve_pair(ts)
        c1 = np.broadcast_to(np.asarray(c1, dtype=float), ts.shape)
        c2 = np.broadcast_to(np.asarray(c2, dtype=float), ts.shape)
        for t, v1, v2 in zip(ts, c1, c2):
            lines.append(f"{_fmt(float(t))},{_fmt(float(v1))},{_fmt(float(v2))}")
        lines.append("")
    lines.append("# roots")
    for r in roots:
        v1, v2 = branch.curve_pair(np.float64(r))
        lines.append(f"{_fmt(float(r))},{_fmt(float(v1))},{_fmt(float(v2))}")
    _emit("\n".join(lines) + "\n", cfg.get_str("out"))
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    profile = cfg.profile()
    samples = cfg.get_int("samples", "401")
    if samples < 2:
        raise ConfigError("samples must be at least 2")
    level_index = cfg.get_int("level", "1")
    if level_index < 1:
        raise ConfigError("level index is 1-based")
    window = cfg.window()
    tol = cfg.tol()
    found = []
    for parity in cfg.parities():
        for energy, psi in eigenvalues(profile, window, parity, tol=tol):
            found.append((energy, parity, psi))
    found.sort(key=lambda item: item[0])
    if level_index > len(found):
        raise ConfigError(
            f"level {level_index} out of range: only {len(found)} level(s) in window"
        )
    energy, parity, psi = found[level_index - 1]
    half = psi.half_width
    xs = np.linspace(-half, half, samples)
    values = evaluate(psi, xs)
    lines = [
        "# masswell wavefunction dump",
        f"# model: {profile.describe()}",
        f"# level: {level_index}",
        f"# energy: {_fmt(energy)}",
        f"# parity: {parity}",
        f"# nodes: {count_nodes(psi)}",
        f"# localization: {_fmt(localization_fraction(psi))}",
        "# columns: x,psi",
    ]
    for x, v in zip(xs, values):
        lines.append(f"{_fmt(float(x))},{_fmt(float(v))}")
    _emit("\n".join(lines) + "\n", cfg.get_str("out"))
    return 0


def _cmd_critical_beta(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    count = cfg.get_int("count", "5")
    if count < 1:
        raise ConfigError("count must be >= 1")
    geometry = cfg.geometry()
    betas = critical_betas(geometry, count, tol=cfg.tol())
    if cfg.out_format() == "json":
        obj = {
            "L": geometry.L,
            "a": geometry.a,
            "critical_betas": list(betas),
        }
        text = _json_text(obj)
    else:
        lines = [
            f"# masswell critical beta values: L={_fmt(geometry.L)} a={_fmt(geometry.a)}",
            "# columns: index,beta",
        ]
        lines += [f"{i},{_fmt(b)}" for i, b in enumerate(betas, start=1)]
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.get_str("out"))
    return 0


def _cmd_delta_limit(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    b_over_nu = cfg.get_float("b_over_nu", "1")
    L = cfg.get_float("L", "2")
    raw = cfg.get_str("nu_values", "0.1,0.01,0.001") or ""
    nus = [_parse_float(part, "nu_values") for part in raw.split(",") if part.strip()]
    if not nus:
        raise ConfigError("nu_values must contain at least one value")
    try:
        rows = delta_limit_study(b_over_nu, L, nus, tol=cfg.tol())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.out_format() == "json":
        obj = {
            "b_over_nu": b_over_nu,
            "L": L,
            "reduced_fixed_point": rows[0].reduced_fixed_point,
            "rows": [
                {
                    "nu": row.nu,
                    "a": row.a,
                    "b": row.b,
                    "leftmost_root": row.leftmost_root,
                    "second_root": row.second_root,
                    "pi_over_nu": math.pi / row.nu,
                }
                for row in rows
            ],
        }
        text = _json_text(obj)
    else:
        lines = [
            f"# masswell delta-limit study: b/nu={_fmt(b_over_nu)} L={_fmt(L)}",
            f"# reduced fixed point: {_fmt(rows[0].reduced_fixed_point)}",
            "# columns: nu,a,b,leftmost_root,second_root,pi_over_nu",
        ]
        for row in rows:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        row.nu, row.a, row.b,
                        row.leftmost_root, row.second_root, math.pi / row.nu,
                    )
                )
            )
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.get_str("out"))
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a flat key = value scenario config")
    sub.add_argument("--preset", help=f"model preset: {', '.join(sorted(PRESETS))}")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")
    sub.add_argument("--window", help="energy window LO:HI")
    sub.add_argument("--tol", type=float, help="solver tolerance")
    sub.add_argument("--parity", choices=("even", "odd", "both"), help="parity selection")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masswell",
        description="Bound states of square wells with piecewise, sign-indefinite, "
        "energy-dependent effective mass.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectrum", help="solve a scenario and write the level report")
    _add_common(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = subs.add_parser("curves", help="graphical-solution curve data for one branch")
    _add_common(p)
    p.add_argument("--branch", help=f"branch name: {', '.join(BRANCHES)}")
    p.add_argument("--range", help="search-variable range LO:HI")
    p.add_argument("--samples", type=int, help="total curve samples")
    p.add_argument("--b-over-nu", dest="b_over_nu", type=float, help="reduced-branch ratio")
    p.set_defaults(handler=_cmd_curves)

    p = subs.add_parser("wavefunction", help="dump one normalized state on a grid")
    _add_common(p)
    p.add_argument("--level", type=int, help="1-based level index in the window")
    p.add_argument("--samples", type=int, help="grid size (>= 2)")
    p.set_defaults(handler=_cmd_wavefunction)

    p = subs.add_parser("critical-beta", help="first critical threshold strengths")
    _add_common(p)
    p.add_argument("--count", type=int, help="how many critical values")
    p.add_argument("--L", type=float, help="outer half-width")
    p.set_defaults(handler=_cmd_critical_beta)

    p = subs.add_parser("delta-limit", help="deep-narrow-well study at fixed b/nu")
    _add_common(p)
    p.add_argument("--b-over-nu", dest="b_over_nu", type=float, help="fixed ratio b/nu")
    p.add_argument("--L", type=float, help="outer half-width")
    p.add_argument("--nus", dest="nu_values", help="comma-separated nu sequence")
    p.set_defaults(handler=_cmd_delta_limit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ScanResolutionError, PoleProximityError, OverflowError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
