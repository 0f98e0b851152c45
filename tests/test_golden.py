"""CLI outputs for a fixed set of configs, compared with stored golden files.

Each golden file under ``tests/golden`` holds the stdout of one command.
Text and integers must match exactly.  Floats must agree to 1e-12
relative, so a different libm cannot fail the test; magnitudes below
1e-14 are rounding noise around a zero and compare absolutely.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from masswell.cli import main

GOLDEN = Path(__file__).parent / "golden"

PRESETS = ("constant-negative", "uniform", "tanh", "step", "two-param")
BRANCHES = (
    "constant-neg-pos", "constant-neg-neg", "tanh-pos", "tanh-neg",
    "step-neg", "two-param-neg", "two-param-reduced",
)

CASES = {
    **{
        f"spectrum-{preset}.{fmt}": ["spectrum", "--preset", preset, "--window=-100:100", "--format", fmt]
        for preset in PRESETS
        for fmt in ("csv", "json")
    },
    **{f"curves-{branch}.csv": ["curves", "--branch", branch, "--samples", "200"] for branch in BRANCHES},
    "wavefunction-step.csv": [
        "wavefunction", "--preset", "step", "--window=-4:1", "--level", "1", "--samples", "401",
    ],
    "critical-beta-50.csv": ["critical-beta", "--count", "50"],
    "delta-limit.csv": ["delta-limit"],
}

# a number not glued to a preceding name character, so "k^2" splits but "L-a" does not
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _tokens(text):
    """Alternating text and number pieces; text pieces sit at even indices."""
    return _NUMBER.split(text)


def _same_number(got, want):
    if re.fullmatch(r"[-+]?\d+", want):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-14)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    got = _run(CASES[name]).splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for lineno, (got_line, want_line) in enumerate(zip(got, want), start=1):
        got_tokens, want_tokens = _tokens(got_line), _tokens(want_line)
        assert got_tokens[::2] == want_tokens[::2], f"{name}:{lineno}: {got_line!r}"
        for g, w in zip(got_tokens[1::2], want_tokens[1::2]):
            assert _same_number(g, w), f"{name}:{lineno}: {g} != {w}"


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)
