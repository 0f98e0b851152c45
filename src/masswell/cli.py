"""Command-line front end: scenario configs, presets, CSV/JSON emission.

Config files are flat ``key = value`` text: one assignment per line,
``#`` starts a comment, unknown keys are rejected.  Each command-line
flag sets one config key (``_FLAGS``) over the file's value and stays the
string typed, so ``ScenarioConfig``'s readers check flags and files by
the same rules.  Exit codes, set by ``main`` alone: 0 success, 2 bad
config or request (``ValueError``, ``OSError``), 3 solver diagnostic or
numeric overflow (``RuntimeError``, ``OverflowError``).

Floats are always written with 17 significant digits, so identical
configs produce byte-identical output files.  Each table states its row
template once (``%.17g`` per float column) and formats its flat list of
values by one ``%`` per chunk of rows, which writes the same bytes as one
``%`` per row; header lines write their floats the same way.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, fields
from typing import Optional, Sequence

import numpy as np

from .matching import build_solution
from .profiles import INNER_LAWS, MassProfile, WellGeometry
from .secular import (
    BRANCHES,
    DEFAULT_TOL,
    RootWindow,
    SecularBranch,
    StepNeg,
    TwoParamNeg,
    TwoParamReduced,
    critical_betas,
    find_roots,
)
from .spectrum import SpectrumReport, _levels_by_energy, delta_limit_study, run_scenario
from .wavefunction import count_nodes, evaluate, localization_fraction

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "main"]


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


PRESETS: dict[str, dict[str, str]] = {
    "constant-negative": {"inner": "constant", "m0": "-1", "L": "2", "a": "1"},
    "uniform": {"inner": "constant", "m0": "1", "L": "2", "a": "1"},
    "tanh": {"inner": "tanh", "L": "2", "a": "1"},
    "step": {"inner": "step", "e_thr": "-4", "L": "2", "a": "1"},
    "two-param": {"inner": "scaled", "b": "0.5", "L": "2", "a": "0.5"},
}

#: each command's table row: %.17g per float column, %d per integer, %s per word
_ROW_TEMPLATES = {
    "spectrum": "%d,%.17g,%s,%d,%.17g",
    "curves": "%.17g,%.17g,%.17g",
    "wavefunction": "%.17g,%.17g",
    "critical-beta": "%d,%.17g",
    "delta-limit": "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
}

#: each flag's config key and help text
_FLAGS = {
    "--preset": ("preset", f"model preset: {', '.join(sorted(PRESETS))}"),
    "--out": ("out", "output path (default: stdout)"),
    "--tol": ("tol", "solver tolerance"),
    "--format": ("format", "output format: csv or json"),
    "--window": ("window", "energy window LO:HI"),
    "--parity": ("parity", "parity selection: even, odd or both"),
    "--L": ("L", "outer half-width"),
    "--branch": ("branch", f"branch name: {', '.join(BRANCHES)}"),
    "--range": ("range", "search-variable range LO:HI"),
    "--samples": ("samples", "curve samples or grid size (>= 2)"),
    "--b-over-nu": ("b_over_nu", "ratio b/nu"),
    "--level": ("level", "1-based level index in the window"),
    "--count": ("count", "how many critical values"),
    "--nus": ("nu_values", "comma-separated nu sequence"),
}

#: the flags' keys, the inner laws' parameters and the keys only a config file sets
_KNOWN_KEYS = (
    {key for key, _ in _FLAGS.values()}
    | {param.name for law in INNER_LAWS.values() for param in fields(law)}
    | {"a", "inner"}
)


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


class ScenarioConfig:
    """Validated view over a raw config mapping, merged over its preset
    once, with defaults applied by the readers."""

    def __init__(self, raw: dict[str, str]) -> None:
        preset = raw.get("preset")
        if preset is not None and preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        self.values = {**PRESETS.get(preset, {}), **raw}

    def profile(self) -> MassProfile:
        inner_name = self.get_str("inner")
        if inner_name is None:
            raise ConfigError("no mass profile: set 'preset' or 'inner'")
        geometry = self.geometry()
        law = INNER_LAWS.get(inner_name)
        if law is None:
            *names, last = INNER_LAWS
            raise ConfigError(
                f"unknown inner law {inner_name!r}; choose {', '.join(names)} or {last}"
            )
        params = {}
        for param in fields(law):
            if param.name in self.values:
                params[param.name] = _parse_float(self.values[param.name], param.name)
            elif param.default is MISSING:
                raise ConfigError(f"{inner_name} inner law requires {param.name!r}")
        try:
            return MassProfile(geometry, law(**params))
        except ValueError as exc:
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
        tol = self.get_float("tol", str(DEFAULT_TOL))
        if not tol > 0.0:
            raise ConfigError("tol must be positive")
        return tol

    def out_format(self) -> str:
        fmt = self.get_str("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        return fmt

    def samples(self, default: str) -> int:
        samples = self.get_int("samples", default)
        if samples < 2:
            raise ConfigError("samples must be at least 2")
        return samples

    def get_float(self, key: str, default: str) -> float:
        return _parse_float(self.get_str(key, default), key)

    def get_int(self, key: str, default: str) -> int:
        return _parse_int(self.get_str(key, default), key)

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.values.get(key, default)


def _report_header(report: SpectrumReport) -> list[str]:
    model = report.profile.describe()
    lines = [
        "# masswell spectrum report",
        f"# scenario: {model}",
        f"# model: {model}",
        f"# window: {report.window[0]:.17g}:{report.window[1]:.17g}",
        f"# parities: {','.join(report.parities)}",
        f"# verdict: {report.verdict.kind}",
    ]
    if report.verdict.evidence:
        ev = report.verdict.evidence
        lines.append(
            "# evidence: negative-level count "
            f"{ev['count_small']} for kappa in (0,{ev['kappa_window_small']:.17g}], "
            f"{ev['count_large']} for kappa in (0,{ev['kappa_window_large']:.17g}], "
            f"required growth {ev['required_growth']}"
        )
    return lines


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _format_rows(command: str, values: list) -> list[str]:
    """The rows of ``command``'s table, given as one flat list of values, as text:
    one ``%`` of the row template repeated per row for each chunk of up to
    2048 rows, which bounds the memory one ``%`` takes."""
    template = _ROW_TEMPLATES[command]
    width = template.count("%")
    chunks = (values[i : i + 2048 * width] for i in range(0, len(values), 2048 * width))
    return ["\n".join([template] * (len(chunk) // width)) % tuple(chunk) for chunk in chunks]


def _table_text(header: Sequence[str], columns: str, lines) -> str:
    return "\n".join([*header, f"# columns: {columns}", *lines]) + "\n"


def _write(cfg: ScenarioConfig, command: str, columns: str, table, as_json=None) -> None:
    """Emit ``as_json()`` as JSON if given and asked for, else the table of ``table()``'s header and rows."""
    if as_json is not None and cfg.out_format() == "json":
        text = json.dumps(as_json(), indent=2, sort_keys=True) + "\n"
    else:
        header, rows = table()
        text = _table_text(header, columns, _format_rows(command, [v for row in rows for v in row]))
    _emit(text, cfg.get_str("out"))


def _make_branch(name: str, cfg: ScenarioConfig) -> SecularBranch:
    branch = BRANCHES.get(name)
    if branch is None:
        raise ConfigError(f"unknown branch {name!r}; choose from {list(BRANCHES)}")
    if branch is TwoParamReduced:
        return TwoParamReduced(cfg.get_float("L", "2"), cfg.get_float("b_over_nu", "1"))
    geometry = cfg.geometry()
    if branch is StepNeg:
        e_thr = cfg.get_float("e_thr", "-4")
        if not e_thr < 0.0:
            raise ConfigError("step-neg requires e_thr < 0")
        return StepNeg(geometry, beta=math.sqrt(-e_thr))
    if branch is TwoParamNeg:
        return TwoParamNeg(geometry, b=cfg.get_float("b", "0.5"))
    return branch(geometry)


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    raw: dict[str, str] = {}
    if args.config:
        with open(args.config) as handle:
            raw.update(parse_config(handle.read()))
    for key, value in vars(args).items():
        if key in _KNOWN_KEYS and value is not None:
            raw[key] = value
    return ScenarioConfig(raw)


def _cmd_spectrum(cfg: ScenarioConfig) -> int:
    report = run_scenario(cfg.profile(), cfg.window(), parities=cfg.parities(), tol=cfg.tol())
    columns = "index,energy,parity,nodes,localization"
    rows = [
        (i, level.energy, level.parity, level.nodes, level.localization)
        for i, level in enumerate(report.levels, start=1)
    ]
    def as_json():
        return {
            "scenario": report.profile.describe(),
            "model": {
                "L": report.profile.geometry.L,
                "a": report.profile.geometry.a,
                "outer_mass": 1.0,
                "inner": {"law": report.profile.inner.law, **asdict(report.profile.inner)},
            },
            "window": list(report.window),
            "parities": list(report.parities),
            "verdict": {"kind": report.verdict.kind, "evidence": report.verdict.evidence},
            "levels": [dict(zip(columns.split(","), row)) for row in rows],
        }

    _write(cfg, "spectrum", columns, lambda: (_report_header(report), rows), as_json)
    return 0


def _cmd_curves(cfg: ScenarioConfig) -> int:
    name = cfg.get_str("branch")
    if name is None:
        raise ConfigError("curves requires 'branch'")
    branch = _make_branch(name, cfg)
    lo, hi = _parse_pair(cfg.get_str("range", "0.05:13"), "range")
    if not 0.0 <= lo < hi:
        raise ConfigError(f"range: require 0 <= LO < HI, got {lo}:{hi}")
    samples = cfg.samples("512")
    tol = cfg.tol()

    # the roots first: their scan rejects a range too wide to scan before a break is listed
    roots = find_roots(branch, RootWindow(lo, hi, tol=tol))

    # plot pieces keep 1e-6 clear of t = 0 and of each curve break
    breaks = branch.curve_breaks(lo, hi)
    starts = [max(lo, 1e-6)] + [c + 1e-6 for c in breaks]
    ends = [c - 1e-6 for c in breaks] + [hi]
    segments = [(s, e) for s, e in zip(starts, ends) if e > s]

    # each piece sampled as np.linspace samples it; all pieces, then the roots, in one array
    s0, s1 = np.array(segments, dtype=float).reshape(-1, 2).T
    n = np.maximum(2, np.rint(samples * (s1 - s0) / sum((s1 - s0).tolist())).astype(int))
    stop = np.cumsum(n)
    ts = (np.arange(n.sum()) - np.repeat(stop - n, n)) * np.repeat((s1 - s0) / (n - 1), n) + np.repeat(s0, n)
    ts[stop - 1] = s1
    t = np.concatenate((ts, roots))
    table = np.column_stack((t, *branch.curve_pair(t)))
    lines: list[str] = []
    for first, end in zip([0, *stop.tolist()], stop.tolist()):
        lines += [*_format_rows("curves", table[first:end].ravel().tolist()), ""]
    lines += ["# roots", *_format_rows("curves", table[ts.size :].ravel().tolist())]
    lab1, lab2 = branch.curve_labels
    header = [f"# masswell secular curves: {branch.describe()}"]
    _emit(_table_text(header, f"t,{lab1},{lab2}", lines), cfg.get_str("out"))
    return 0


def _cmd_wavefunction(cfg: ScenarioConfig) -> int:
    profile = cfg.profile()
    samples = cfg.samples("401")
    level_index = cfg.get_int("level", "1")
    if level_index < 1:
        raise ConfigError("level index is 1-based")
    found = _levels_by_energy(profile, cfg.window(), cfg.parities(), cfg.tol())
    if level_index > len(found):
        raise ConfigError(
            f"level {level_index} out of range: only {len(found)} level(s) in window"
        )
    energy, parity = found[level_index - 1]
    psi = build_solution(profile, energy, parity).normalized()
    half = psi.half_width
    xs = np.linspace(-half, half, samples)
    header = [
        "# masswell wavefunction dump",
        f"# model: {profile.describe()}",
        f"# level: {level_index}",
        f"# energy: {energy:.17g}",
        f"# parity: {parity}",
        f"# nodes: {count_nodes(psi)}",
        f"# localization: {localization_fraction(psi):.17g}",
    ]
    _write(cfg, "wavefunction", "x,psi", lambda: (header, np.column_stack((xs, evaluate(psi, xs))).tolist()))
    return 0


def _cmd_critical_beta(cfg: ScenarioConfig) -> int:
    count = cfg.get_int("count", "5")
    if count < 1:
        raise ConfigError("count must be >= 1")
    geometry = cfg.geometry()
    betas = critical_betas(geometry, count, tol=cfg.tol())
    _write(
        cfg,
        "critical-beta",
        "index,beta",
        lambda: ([f"# masswell critical beta values: L={geometry.L:.17g} a={geometry.a:.17g}"], enumerate(betas, 1)),
        lambda: {"L": geometry.L, "a": geometry.a, "critical_betas": betas},
    )
    return 0


def _cmd_delta_limit(cfg: ScenarioConfig) -> int:
    b_over_nu = cfg.get_float("b_over_nu", "1")
    L = cfg.get_float("L", "2")
    raw = cfg.get_str("nu_values", "0.1,0.01,0.001")
    nus = [_parse_float(part, "nu_values") for part in raw.split(",") if part.strip()]
    if not nus:
        raise ConfigError("nu_values must contain at least one value")
    rows = delta_limit_study(b_over_nu, L, nus, tol=cfg.tol())
    fixed_point = rows[0].reduced_fixed_point
    columns = "nu,a,b,leftmost_root,second_root,pi_over_nu"
    table = [
        (row.nu, row.a, row.b, row.leftmost_root, row.second_root, math.pi / row.nu)
        for row in rows
    ]
    _write(
        cfg,
        "delta-limit",
        columns,
        lambda: (
            [
                f"# masswell delta-limit study: b/nu={b_over_nu:.17g} L={L:.17g}",
                f"# reduced fixed point: {fixed_point:.17g}",
            ],
            table,
        ),
        lambda: {
            "b_over_nu": b_over_nu,
            "L": L,
            "reduced_fixed_point": fixed_point,
            "rows": [dict(zip(columns.split(","), row)) for row in table],
        },
    )
    return 0


#: each subcommand's handler, help text and the flags it takes besides
#: --config, --preset, --out and --tol
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "solve a scenario and write the level report", "--format --window --parity"),
    "curves": (_cmd_curves, "graphical-solution curve data for one branch", "--branch --range --samples --b-over-nu"),
    "wavefunction": (_cmd_wavefunction, "dump one normalized state on a grid", "--window --parity --level --samples"),
    "critical-beta": (_cmd_critical_beta, "first critical threshold strengths", "--format --L --count"),
    "delta-limit": (_cmd_delta_limit, "deep-narrow-well study at fixed b/nu", "--format --L --b-over-nu --nus"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="masswell",
        description="Bound states of square wells with piecewise, sign-indefinite, "
        "energy-dependent effective mass.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="path to a flat key = value scenario config")
        for flag in ["--preset", "--out", "--tol", *flags.split()]:
            key, flag_help = _FLAGS[flag]
            sub.add_argument(flag, dest=key, help=flag_help)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if "--format" in _COMMANDS[args.command][2].split():
            cfg.out_format()  # a bad format fails before the solve
        return args.handler(cfg)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
