"""Independent references for every benchmark request.

The level references solve the matching condition in the harness's own
vectorized numpy form, the exact uniform-well formula, or, for even
levels, the paper's closed forms in ``masswell.secular`` (the other
solver route, which the matching solver is checked against).  Sweep
references use pole-free forms of each branch equation.  Every check
raises :class:`Wrong` with a reason, or returns the number of roots it
verified.  None of this runs inside a timed or traced region.
"""

from __future__ import annotations

import math

import numpy as np

from masswell import matching, profiles, secular

#: a level agrees with its reference within this share of max(1, |E|)
REL_TOL = 1e-9
#: grid points per reference scan; finer than every root spacing used here
GRID = 200_001
#: matching.mismatch overflows math.cosh beyond this kappa*(L - a)
MISMATCH_KAPPA_LIMIT = 700.0

#: the five README presets: inner law, its parameter and the geometry
PRESETS = {
    "constant-negative": {"law": "constant", "m0": -1.0, "L": 2.0, "a": 1.0},
    "uniform": {"law": "constant", "m0": 1.0, "L": 2.0, "a": 1.0},
    "tanh": {"law": "tanh", "L": 2.0, "a": 1.0},
    "step": {"law": "step", "e_thr": -4.0, "L": 2.0, "a": 1.0},
    "two-param": {"law": "scaled", "b": 0.5, "L": 2.0, "a": 0.5},
}

#: verdict each preset must get (the paper's boundedness claims)
PRESET_VERDICTS = {
    "constant-negative": "unbounded_below",
    "uniform": "bounded_below",
    "tanh": "bounded_below",
    "step": "bounded_below",
    "two-param": "unbounded_below",
}


class Wrong(Exception):
    """A request's output disagrees with its reference."""


def profile(model: dict) -> profiles.MassProfile:
    law = model["law"]
    if law == "constant":
        inner = profiles.ConstantInner(model["m0"])
    elif law == "tanh":
        inner = profiles.TanhInner()
    elif law == "step":
        inner = profiles.StepInner(model["e_thr"])
    else:
        inner = profiles.ScaledInner(model["b"])
    return profiles.MassProfile(profiles.WellGeometry(model["L"], model["a"]), inner)


def _inner_mass(model: dict, energy):
    law = model["law"]
    if law == "constant":
        return np.full_like(energy, model["m0"])
    if law == "tanh":
        return -np.tanh(energy)
    if law == "step":
        return np.where(energy >= model["e_thr"], -1.0, 1.0)
    return np.full_like(energy, -1.0 / model["b"] ** 2)


def _matching_residual(model: dict, parity: str, sign: float):
    """psi_in' psi_out - psi_in psi_out' at x = a, as a function of t = sqrt(|E|).

    Hyperbolic pieces are divided by cosh, which keeps the sign and the
    zero set and avoids overflow; no piece has a pole, so every sign
    change is a level.
    """
    L, a = model["L"], model["a"]
    s = L - a

    def f(t):
        energy = sign * t * t
        if sign > 0:
            v_out, d_out = np.sin(t * s) / t, -np.cos(t * s)
        else:
            v_out, d_out = np.tanh(t * s) / t, -1.0
        q2 = _inner_mass(model, energy) * energy
        q = np.sqrt(np.abs(q2))
        trig = q2 > 0.0
        if parity == "even":
            v_in = np.where(trig, np.cos(q * a), 1.0)
            d_in = np.where(trig, -q * np.sin(q * a), q * np.tanh(q * a))
        else:
            v_in = np.where(trig, np.sin(q * a), np.tanh(q * a)) / q
            d_in = np.where(trig, np.cos(q * a), 1.0)
        return d_in * v_out - v_in * d_out

    return f


def roots(f, lo: float, hi: float, n: int = GRID) -> np.ndarray:
    """Every sign change of the vectorized ``f`` on [lo, hi], bisected to full precision."""
    t = np.linspace(lo, hi, n)
    v = f(t)
    exact = t[v == 0.0]
    i = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)[0]
    a, b, fa = t[i], t[i + 1], v[i]
    for _ in range(200):
        mid = 0.5 * (a + b)
        if np.all((mid <= a) | (mid >= b)):
            break
        fm = f(mid)
        left = np.sign(fm) == np.sign(fa)
        a, fa, b = np.where(left, mid, a), np.where(left, fm, fa), np.where(left, b, mid)
    return np.sort(np.concatenate([exact, 0.5 * (a + b)]))


def _secular_even_branch(model: dict, sign: float):
    """The closed-form branch for even levels on one side of E = 0, if the paper has one."""
    geo = profiles.WellGeometry(model["L"], model["a"])
    law = model["law"]
    if law == "constant" and model["m0"] == -1.0:
        return secular.ConstantNegNeg(geo) if sign < 0 else secular.ConstantNegPos(geo)
    if law == "tanh":
        return secular.TanhNeg(geo) if sign < 0 else secular.TanhPos(geo)
    if law == "step":
        return secular.StepNeg(geo, math.sqrt(-model["e_thr"])) if sign < 0 else secular.ConstantNegPos(geo)
    if law == "scaled" and sign < 0:
        return secular.TwoParamNeg(geo, b=model["b"])
    return None


def _is_uniform(model: dict) -> bool:
    return model["law"] == "constant" and model["m0"] == 1.0


def reference_levels(model: dict, window: tuple[float, float], parity: str) -> list[float]:
    """Energies of the levels of one parity in the closed window, ascending."""
    lo, hi = window
    out: list[float] = []
    for sign in (-1.0, 1.0):
        e0, e1 = (lo, min(hi, 0.0)) if sign < 0 else (max(lo, 0.0), hi)
        if not e1 > e0:
            continue
        t0, t1 = sorted((math.sqrt(abs(e0)), math.sqrt(abs(e1))))
        if sign > 0 and _is_uniform(model):
            # exact: E_n = (n pi / 2L)^2, even parity for odd n
            step = math.pi / (2.0 * model["L"])
            first = 1 if parity == "even" else 2
            ts = [n * step for n in range(first, int(t1 / step) + 2, 2)]
            out += [t * t for t in ts if e0 <= t * t <= e1]
            continue
        branch = _secular_even_branch(model, sign) if parity == "even" else None
        if branch is not None:
            ts = secular.find_roots(branch, secular.RootWindow(t0, t1, tol=1e-14))
            out += [sign * t * t for t in ts if e0 <= sign * t * t <= e1]
            continue
        f = _matching_residual(model, parity, sign)
        cuts = [max(t0, 1e-9), t1]
        if model["law"] == "step" and sign < 0 and cuts[0] < math.sqrt(-model["e_thr"]) < t1:
            # the inner mass jumps at the threshold; the side with E >= e_thr keeps m = -1
            beta = math.sqrt(-model["e_thr"])
            cuts = [cuts[0], beta, math.nextafter(beta, math.inf), t1]
        for c0, c1 in zip(cuts[::2], cuts[1::2]):
            out += [sign * t * t for t in roots(f, c0, c1) if e0 <= sign * t * t <= e1]
    return sorted(out)


def same_roots(label: str, got, want, rel: float = REL_TOL) -> None:
    got, want = list(got), list(want)
    if len(got) != len(want):
        raise Wrong(f"{label}: {len(got)} roots, reference has {len(want)}")
    for g, w in zip(got, want):
        if abs(g - w) > rel * max(1.0, abs(w)):
            raise Wrong(f"{label}: root {float(g)!r} differs from reference {float(w)!r}")


def check_levels(model: dict, window, parity: str, levels) -> int:
    """``levels`` is a list of (energy, parity, nodes, localization)."""
    label = f"{window[0]}:{window[1]} {parity}"
    energies = [lv[0] for lv in levels]
    if energies != sorted(energies):
        raise Wrong(f"{label}: levels not in ascending order")
    same_roots(label, energies, reference_levels(model, window, parity))
    for energy, par, nodes, loc in levels:
        if par != parity:
            raise Wrong(f"{label}: level {energy!r} has parity {par}")
        # odd states vanish at x = 0 and their nodes pair up around it
        if nodes % 2 != (parity == "odd"):
            raise Wrong(f"{label}: {parity} level {energy!r} has {nodes} nodes")
        if _is_uniform(model) and nodes != round(2.0 * model["L"] * math.sqrt(energy) / math.pi) - 1:
            raise Wrong(f"{label}: uniform level {energy!r} has {nodes} nodes")
        if not 0.0 <= loc <= 1.0:
            raise Wrong(f"{label}: localization {loc!r} outside [0, 1]")
    return len(levels)


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


def _header(text: str, key: str) -> str:
    prefix = f"# {key}: "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise Wrong(f"no '{key}' header line")


def check_spectrum(preset: str, window, parity: str, text: str) -> int:
    verdict = _header(text, "verdict")
    if verdict != PRESET_VERDICTS[preset]:
        raise Wrong(f"{preset}: verdict {verdict}, expected {PRESET_VERDICTS[preset]}")
    levels = [(float(e), par, int(n), float(loc)) for _, e, par, n, loc in _csv_rows(text)]
    return check_levels(PRESETS[preset], window, parity, levels)


def check_wavefunction(preset: str, window, level: int, samples: int, text: str) -> int:
    model = PRESETS[preset]
    energy, parity = float(_header(text, "energy")), _header(text, "parity")
    both = sorted(
        (e, p) for p in ("even", "odd") for e in reference_levels(model, window, p)
    )
    want_e, want_p = both[level - 1]
    same_roots(f"{preset} level {level}", [energy], [want_e])
    if parity != want_p:
        raise Wrong(f"{preset} level {level}: parity {parity}, expected {want_p}")
    if int(_header(text, "nodes")) % 2 != (parity == "odd"):
        raise Wrong(f"{preset} level {level}: node count has the wrong parity")
    xs, psi = np.array([[float(c) for c in row] for row in _csv_rows(text)]).T
    if len(xs) != samples or abs(psi[0]) > 1e-12 or abs(psi[-1]) > 1e-12:
        raise Wrong(f"{preset} level {level}: bad grid or nonzero wall values")
    norm = float(np.sum(0.5 * (psi[1:] ** 2 + psi[:-1] ** 2) * np.diff(xs)))
    if abs(norm - 1.0) > 1e-3:
        raise Wrong(f"{preset} level {level}: squared norm {norm!r}")
    return 1


def _kappa_neg_residual(L: float, a: float, nu: float = 1.0, b: float = 1.0):
    """tan(nu k) tanh(k (L-a)) = b without the tangent's poles."""
    return lambda k: np.sin(nu * k) * np.tanh(k * (L - a)) - b * np.cos(nu * k)


def check_critical_betas(L: float, count: int, text: str) -> int:
    got = [float(row[1]) for row in _csv_rows(text)]
    if len(got) != count:
        raise Wrong(f"critical-beta: {len(got)} values, asked for {count}")
    want = roots(_kappa_neg_residual(L, 1.0), 1e-9, (count + 1) * math.pi)[:count]
    same_roots("critical-beta", got, want)
    # each beta is a matching-solver level at E = -beta^2 (even parity, inner mass -1)
    prof = profile({"law": "constant", "m0": -1.0, "L": L, "a": 1.0})
    for beta in got:
        if beta * (L - 1.0) > MISMATCH_KAPPA_LIMIT:
            break
        d = 1e-7 * max(1.0, beta)
        lo = matching.mismatch(prof, -((beta - d) ** 2), "even")
        hi = matching.mismatch(prof, -((beta + d) ** 2), "even")
        if not lo * hi < 0.0:
            raise Wrong(f"critical-beta {beta!r}: matching.mismatch does not change sign")
    return count


def _branch_residuals(L: float, a: float, e_thr: float, b: float, b_over_nu: float):
    """Pole-free forms of each ``curves`` branch with the CLI defaults, and its t-cut."""
    s = L - a

    def tanh_pos(k):
        root = np.sqrt(np.tanh(k * k))
        return root * np.tanh(k * root * a) * np.sin(k * s) + np.cos(k * s)

    def tanh_neg(k):
        root = np.sqrt(np.tanh(k * k))
        return root * np.tanh(k * root * a) * np.tanh(k * s) + 1.0

    return {
        "constant-neg-pos": (lambda k: np.tanh(k * a) * np.sin(k * s) + np.cos(k * s), None),
        "constant-neg-neg": (_kappa_neg_residual(L, a, nu=a), None),
        "tanh-pos": (tanh_pos, None),
        "tanh-neg": (tanh_neg, None),
        "step-neg": (_kappa_neg_residual(L, a, nu=a), math.sqrt(-e_thr)),
        "two-param-neg": (_kappa_neg_residual(L, a, nu=a / b, b=b), None),
        "two-param-reduced": (lambda k: k * np.tanh(k * L) - b_over_nu, None),
    }


#: ``curves`` with no geometry flags uses L = 2, a = 1, e_thr = -4, b = 0.5, b/nu = 1
CURVE_BRANCHES = _branch_residuals(2.0, 1.0, -4.0, 0.5, 1.0)


def check_curves(branch: str, lo: float, hi: float, samples: int, text: str) -> int:
    body, _, tail = text.partition("# roots\n")
    segments = [block for block in body.split("\n\n") if _csv_rows(block)]
    rows = sum(len(_csv_rows(block)) for block in segments)
    if not samples - len(segments) <= rows <= samples + 2 * len(segments):
        raise Wrong(f"curves {branch}: {rows} rows for {samples} samples")
    found = [[float(c) for c in row] for row in _csv_rows(tail)]
    for t, c1, c2 in found:
        if abs(c1 - c2) > 1e-6 * max(1.0, abs(c1)):
            raise Wrong(f"curves {branch}: curves do not meet at root {t!r}")
    f, cut = CURVE_BRANCHES[branch]
    want = roots(f, max(lo, 1e-9), hi if cut is None else min(hi, cut))
    same_roots(f"curves {branch}", [row[0] for row in found], want)
    return len(found)


def check_delta_limit(b_over_nu: float, L: float, nus, text: str) -> int:
    rows = [[float(c) for c in row] for row in _csv_rows(text)]
    fixed = roots(lambda k: k * np.tanh(k * L) - b_over_nu, 1e-9, 2.0 * b_over_nu + 2.0 / L)
    same_roots("delta-limit fixed point", [float(_header(text, "reduced fixed point"))], fixed)
    if [row[0] for row in rows] != list(nus):
        raise Wrong("delta-limit: rows do not follow the nu sequence")
    for nu, a, b, first, second, _ in rows:
        want = roots(_kappa_neg_residual(L, a, nu=nu, b=b), 1e-9, 1.45 * math.pi / nu)
        same_roots(f"delta-limit nu={nu}", [first, second], want[:2], rel=1e-8)
    return 2 * len(rows)


def check_staircase(L: float, beta_max: float, steps: int, rows) -> int:
    critical = roots(_kappa_neg_residual(L, 1.0), 1e-9, beta_max)
    if len(rows) != steps:
        raise Wrong(f"staircase: {len(rows)} rows for {steps} steps")
    betas = beta_max * np.arange(1, steps + 1) / steps
    counts = np.searchsorted(critical, betas, side="right")
    # a count may go either way where a critical beta sits on the grid point
    gaps = np.abs(np.subtract.outer(betas, critical)).min(axis=1) if critical.size else betas
    for row, beta, count, gap in zip(rows, betas, counts, gaps):
        if abs(row.beta - beta) > 1e-12 * beta or (row.negative_count != count and gap > 1e-9 * beta):
            raise Wrong(f"staircase: {row}, expected {count} levels")
        # the n-th admitted state has 2(n-1) inner-region nodes; below the
        # first critical beta the ground state is the nodeless positive one
        if row.ground_state_nodes != 2 * max(row.negative_count - 1, 0):
            raise Wrong(f"staircase: {row} has the wrong node count")
    return rows[-1].negative_count
