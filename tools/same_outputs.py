#!/usr/bin/env python3
"""Compare the CLI outputs of two checkouts of masswell, request by request.

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout directories.  Each checkout's ``src/`` is
imported in one fresh interpreter, which runs every request of
:func:`requests` through ``masswell.cli.main`` and records its stdout,
stderr and exit code.  No command prints the threshold staircase, so a
request that starts with ``ground_state_staircase`` instead prints the
``repr`` of ``masswell.spectrum.ground_state_staircase`` called on the
request's other items.  An exception that escapes ``main``, which the
command line would print as a traceback with exit code 1, is recorded as
the exit code ``"uncaught <type>"``.  Each request whose record differs between the two
is printed with the parts that differ and, where only numbers differ, the
largest absolute difference between them, or both exit codes where those
differ; each checkout's
``src/masswell`` line count is printed.  The exit code is 1 if any request
differs, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

PRESETS = ("constant-negative", "uniform", "tanh", "step", "two-param")

CURVE_BRANCHES = (
    "constant-neg-pos", "constant-neg-neg", "tanh-pos", "tanh-neg", "step-neg", "two-param-neg", "two-param-reduced",
)

#: scenario configs for the wells no preset covers: name -> key = value text
CONFIGS = {
    # spans narrower than the seam window's 1e-9 floor
    "narrow-inner": "inner = constant\nm0 = 1\nL = 2\na = 1e-10\n",
    "narrow-outer": "inner = constant\nm0 = 1\nL = 2\na = 1.9999999999\n",
    "narrow-scaled": "inner = scaled\nb = 1e-5\nL = 2\na = 1e-10\n",
    "scaled-wide": "inner = scaled\nb = 0.5\nL = 4\na = 3\n",
    # a threshold deeper than the verdict's default probes
    "step-deep": "inner = step\ne_thr = -1000\nL = 2\na = 1\n",
    # tens of thousands of levels in one scan segment
    "uniform-wide": "inner = constant\nm0 = 1\nL = 1000\na = 1\n",
    "constant-deep": "inner = constant\nm0 = -1e6\nL = 2\na = 1\n",
    "scaled-soak": "inner = scaled\nb = 0.0159132\nL = 54.3834\na = 54.3822\n",
    # a tangent scale above 1 for the secular branches, whose turns overflow near the float limit
    "wide-inner": "L = 4\na = 3\n",
    # a negative inner mass whose levels lie past the verdict's probes
    "tiny-negative": "inner = constant\nm0 = -1e-300\nL = 0.001\na = 1e-6\n",
    "subnormal-negative": "inner = constant\nm0 = -1e-310\nL = 2\na = 1\n",
    # an outer span of L / 100, where the tanh-pos turns were only measured to rise
    "thin-outer": "L = 2\na = 1.98\n",
    # wells whose levels each come from a bracket of their own: the uniform well with L = 2 a, where the odd
    # levels sit on the poles and on the winding's samples; a winding that dips just above E = 0; and two
    # wells where it falls and rises again below E = 0
    "uniform-half": "inner = constant\nm0 = 1\nL = 2\na = 1\n",
    "negative-dip": "inner = constant\nm0 = -1e4\nL = 1\na = 0.5\n",
    "scaled-falling": "inner = scaled\nb = 5.751248763934483\nL = 41.704985884817425\na = 22.282346822054652\n",
    "constant-falling": "inner = constant\nm0 = -802.4809278397089\nL = 1.1599233870516126\na = 0.09512480881458793\n",
}

#: (config, window) of the wells above whose levels come from one bracket each, in both parities
BRACKETED = (
    ("uniform-half", "0:631.6546816697189"),
    ("negative-dip", "-10:1e4"),
    ("scaled-falling", "-0.8882725238976468:0.035749162938037315"),
    ("constant-falling", "-1.2069824076211564:-0.5283659121142862"),
)

#: library requests: (L, beta_max, steps[, tol]) of ground_state_staircase
STAIRCASES = (
    (2.0, 200.0, 20000), (1.0 + 1e-8, 0.7, 3), (30.0, 50.0, 1000), (2.0, 800.0, 4), (1.5, 14.0, 280, 1e-6),
)

#: runs in the child interpreter: argv[1] is the checkout's src/, stdin the requests
CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from masswell import cli, spectrum
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if argv[0] == "ground_state_staircase":
                print(repr(spectrum.ground_state_staircase(*argv[1:])))
                code = 0
            else:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "uncaught " + type(exc).__name__
    records.append({"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code})
json.dump(records, sys.stdout)
"""


def requests(config_dir: str) -> list[list]:
    """The fixed request list; config-file requests read from ``config_dir``."""
    out = []
    for preset in PRESETS:
        for window in ("-100:100", "-1600:3000", "-1e5:-1e4"):
            out.append(["spectrum", "--preset", preset, f"--window={window}"])
        out.append(["spectrum", "--preset", preset, "--window=-100:100", "--format", "json"])
        for window, level in (("-100:100", 1), ("-100:100", 2), ("-100:100", 5), ("-1e5:-1e4", 3)):
            argv = ["wavefunction", "--preset", preset, f"--window={window}", "--level", str(level)]
            out.append(argv + ["--samples", "401"])
    for name in ("narrow-inner", "narrow-outer", "narrow-scaled"):
        for parity in ("even", "odd"):
            out.append(["spectrum", "--config", os.path.join(config_dir, name), "--window=0.5:30", "--parity", parity])
    out.append(["spectrum", "--preset", "constant-negative", "--window=-1e6:10"])
    out.append(["spectrum", "--config", os.path.join(config_dir, "scaled-wide"), "--window=9e4:1.1e5"])
    # wide windows where the inner region is hyperbolic and turns through no phase
    out.append(["spectrum", "--preset", "tanh", "--window=1e3:4e4", "--parity", "even"])
    out.append(["spectrum", "--preset", "two-param", "--window=1e3:1e5", "--parity", "odd"])
    for extra in ([], ["--parity", "even"], ["--format", "json"]):
        out.append(["spectrum", "--config", os.path.join(config_dir, "step-deep"), "--window=-100:100", *extra])
    dense = (
        ("uniform-wide", "--window=1:1e4", "--parity", "even"),
        ("constant-deep", "--window=-1e4:-1", "--parity", "even"),
        ("scaled-soak", "--window=-1075.11:279.977", "--tol", "4.3e-12"),
    )
    for name, *extra in dense:
        out.append(["spectrum", "--config", os.path.join(config_dir, name), *extra])
    # the dense benchmark's chunks on one side of E = 0, in both parities: trig outer with a trig
    # inner (uniform) or a hyperbolic one (tanh); -1e5:-1e4 above covers the deep negative chunks
    out.append(["spectrum", "--preset", "uniform", "--window=1e4:1e5"])
    out.append(["spectrum", "--preset", "tanh", "--window=2e3:2e4"])
    # window ends on a level ((pi/4)^2, the uniform ground state), on a break and on E = 0
    for preset, window in (("uniform", "0.6168502750680849:100"), ("step", "-4:100"), ("constant-negative", "-100:0")):
        for parity in ("even", "odd"):
            out.append(["spectrum", "--preset", preset, f"--window={window}", "--parity", parity])
    # 16 and 17 even uniform levels: the most brackets refined one at a time (_rootscan._SCALAR_BRACKETS), and one more
    for window in ("0.5:650", "0.5:700"):
        out.append(["spectrum", "--preset", "uniform", f"--window={window}", "--parity", "even"])
    for name in ("tiny-negative", "subnormal-negative"):
        out.append(["spectrum", "--config", os.path.join(config_dir, name), "--window=-1:1"])
    # the sweep benchmark's commands
    for branch in CURVE_BRANCHES:
        out.append(["curves", "--branch", branch, "--range", "0.05:199.653", "--samples", "20000"])
    out.append(["curves", "--branch", "constant-neg-pos", "--range", "0:1e-10"])
    # ranges whose width times the sample count overflows
    for branch in ("tanh-neg", "two-param-reduced"):
        out.append(["curves", "--branch", branch, "--range", "0:1e308"])
    for extra in ([], ["--format", "json"]):
        out.append(["critical-beta", "--L", "1.939", "--count", "5000", *extra])
    out.append(["delta-limit"])
    # a first root near 1e-150, below the 1e-12 floor of a window scan
    out.append(["delta-limit", "--b-over-nu", "1e-300"])
    # float-table edges: tens of blank-line pieces, 2-row pieces, a 2-row table, a 1-row table, and
    # roots small enough for e-notation
    out.append(["curves", "--branch", "two-param-neg", "--range", "0.001:60", "--samples", "400"])
    out.append(["curves", "--branch", "tanh-pos", "--samples", "2"])
    out.append(["wavefunction", "--preset", "uniform", "--window=0:1", "--samples", "2"])
    out.append(["critical-beta", "--count", "1"])
    out.append(["delta-limit", "--b-over-nu", "1e-30"])
    out += [["ground_state_staircase", *case] for case in STAIRCASES]
    # flag values the config readers reject, each with exit 2
    out += [
        ["spectrum", "--preset", "uniform", "--format", "xml"],
        ["spectrum", "--preset", "uniform", "--parity", "all"],
        ["wavefunction", "--preset", "uniform", "--samples", "2.5"],
        ["critical-beta", "--L", "x"],
        ["critical-beta", "--count", "1.5"],
        ["critical-beta", "--tol", "abc"],
        ["delta-limit", "--b-over-nu", "q"],
        ["wavefunction", "--preset", "uniform", "--level", "z"],
    ]
    # windows whose scan would take more cells than one scan may (exit 3), and a tol coarser than the
    # level spacing (exit 2)
    for preset, window, *extra in (
        ("uniform", "1e30:2e30", "--parity", "even"), ("uniform", "1e200:2e200", "--parity", "even"),
        ("two-param", "-1e308:-1e307"),
    ):
        out.append(["spectrum", "--preset", preset, f"--window={window}", *extra])
    # curves ranges holding too many roots, or (step-neg) too many curve breaks, to list (exit 3)
    for branch, window in (("constant-neg-pos", "0:1e15"), ("tanh-pos", "0:1e20"), ("step-neg", "0:1e15")):
        out.append(["curves", "--branch", branch, "--range", window])
    # secular roots named by index: tanh-pos with a thin outer span; 16 and 17 roots, the most refined one at a
    # time (_rootscan._SCALAR_BRACKETS) and one more; a range ending on the second critical beta to 17 digits
    thin_outer = os.path.join(config_dir, "thin-outer")
    out.append(["curves", "--config", thin_outer, "--branch", "tanh-pos", "--range", "0:300"])
    for window in ("0.05:50", "0.05:53"):
        out.append(["curves", "--branch", "constant-neg-neg", "--range", window])
    out.append(["curves", "--branch", "constant-neg-neg", "--range", "0.05:3.9273787191188076"])
    wide_inner = os.path.join(config_dir, "wide-inner")
    for branch in ("two-param-neg", "constant-neg-neg"):
        out.append(["curves", "--config", wide_inner, "--branch", branch, "--range", "0:1e308"])
    wide = os.path.join(config_dir, "uniform-wide")
    out.append(["spectrum", "--config", wide, "--window=1:1e4", "--parity", "even", "--tol", "1"])
    for name, window in BRACKETED:
        config = os.path.join(config_dir, name)
        for parity in ("even", "odd"):
            out.append(["spectrum", "--config", config, f"--window={window}", "--parity", parity])
    # b/nu * L underflows to 0 (exit 3)
    out.append(["delta-limit", "--b-over-nu", "1e-300", "--L", "1e-30"])
    return out


def run_checkout(checkout: str, argvs: list[list]) -> list[dict]:
    """Records of every request in one fresh interpreter on ``checkout``'s source."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(os.path.abspath(checkout), "src")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, src], input=json.dumps(argvs), capture_output=True, text=True, env=env
    )
    if done.returncode != 0:
        sys.exit(f"{checkout}: the request runner failed:\n{done.stderr}")
    return json.loads(done.stdout)


def source_lines(checkout: str) -> int:
    """Lines of the Python files in ``checkout``'s ``src/masswell``."""
    package = os.path.join(checkout, "src", "masswell")
    total = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                total += sum(1 for _ in handle)
    return total


def worst_delta(old: str, new: str):
    """The largest |new - old| over the tokens that differ, if all are numbers, else None."""
    tokens = [re.split(r"[\s,\[\]{}]+", text) for text in (old, new)]
    if len(tokens[0]) != len(tokens[1]):
        return None
    worst = 0.0
    for a, b in zip(*tokens):
        if a != b:
            try:
                worst = max(worst, abs(float(b) - float(a)))
            except ValueError:
                return None
    return worst


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as config_dir:
        for name, text in CONFIGS.items():
            with open(os.path.join(config_dir, name), "w") as handle:
                handle.write(text)
        for checkout in argv:
            print(f"{checkout}: src/masswell has {source_lines(checkout)} lines")
        argvs = requests(config_dir)
        before, after = (run_checkout(checkout, argvs) for checkout in argv)
        differing = 0
        for args, old, new in zip(argvs, before, after):
            parts = [key for key in ("stdout", "stderr", "exit") if old[key] != new[key]]
            if parts:
                differing += 1
                delta = worst_delta(old["stdout"], new["stdout"]) if parts == ["stdout"] else None
                worst = "" if delta is None else f" (worst |delta| {delta:.3g})"
                if "exit" in parts:
                    worst = f" (exit {old['exit']} -> {new['exit']})"
                request = " ".join(map(str, args)).replace(config_dir + os.sep, "")
                print(f"differs in {', '.join(parts)}: {request}{worst}")
    print(f"{differing} of {len(argvs)} requests differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
