"""Bound states of 1D square wells whose effective mass is piecewise
constant in position, may depend on the energy, and may change sign.

The package pairs closed-form quantization conditions (:mod:`.secular`)
with a generic matching solver (:mod:`.matching`) so every closed form
can be cross-checked against a solver that never saw it.
"""

from ._rootscan import ScanSizeError
from .matching import build_solution, eigenvalues, level_diagnostics, levels, mismatch
from .profiles import (
    ConstantInner,
    InnerLaw,
    MassProfile,
    ScaledInner,
    StepInner,
    TanhInner,
    WellGeometry,
)
from .secular import (
    ConstantNegNeg,
    ConstantNegPos,
    RootWindow,
    ScanResolutionError,
    SecularBranch,
    StepNeg,
    TanhNeg,
    TanhPos,
    TwoParamNeg,
    TwoParamReduced,
    critical_betas,
    find_roots,
    reduced_kappa1,
)
from .spectrum import (
    DeltaLimitRow,
    Level,
    SpectrumReport,
    StaircaseStep,
    Verdict,
    delta_limit_study,
    ground_state_staircase,
    run_scenario,
)
from .wavefunction import (
    PiecewiseWavefunction,
    RegionSolution,
    count_nodes,
    evaluate,
    localization_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "WellGeometry", "ConstantInner", "TanhInner", "StepInner", "ScaledInner",
    "InnerLaw", "MassProfile",
    "RootWindow", "SecularBranch", "ConstantNegPos", "ConstantNegNeg",
    "TanhPos", "TanhNeg", "StepNeg", "TwoParamNeg", "TwoParamReduced",
    "find_roots", "critical_betas", "reduced_kappa1",
    "ScanResolutionError", "ScanSizeError",
    "build_solution", "mismatch", "levels", "level_diagnostics", "eigenvalues",
    "RegionSolution", "PiecewiseWavefunction", "evaluate", "count_nodes",
    "localization_fraction",
    "Level", "Verdict", "SpectrumReport", "StaircaseStep", "DeltaLimitRow",
    "run_scenario", "ground_state_staircase", "delta_limit_study",
    "__version__",
]
