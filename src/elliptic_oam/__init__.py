"""Ince-Gauss beams, their Laguerre-Gauss decomposition, and photon OAM."""

__version__ = "0.1.0"

from .beams import (
    BeamGeometry,
    ComplexField,
    eval_gaussian,
    eval_hg,
    eval_hig,
    eval_ig,
    eval_lg,
    sample_grid,
)
from .errors import (
    EllipticOamError,
    GridError,
    InvalidModeError,
    SolverError,
    UnnormalizedStateError,
)
from .ince import (
    IncePolynomial,
    ModeIndex,
    Parity,
    ince_ode_residual,
    solve_ince,
)
from .quantum import (
    Decomposition,
    OamCurve,
    QuantumModeState,
    decompose,
    find_crossings,
    find_turning_points,
    helical_state,
    oam_curve,
    oam_distribution,
    oam_expectation,
)
from .vortex import Vortex, find_vortices, vortex_census

__all__ = [
    "BeamGeometry",
    "ComplexField",
    "Decomposition",
    "EllipticOamError",
    "GridError",
    "IncePolynomial",
    "InvalidModeError",
    "ModeIndex",
    "OamCurve",
    "Parity",
    "QuantumModeState",
    "SolverError",
    "UnnormalizedStateError",
    "Vortex",
    "decompose",
    "eval_gaussian",
    "eval_hg",
    "eval_hig",
    "eval_ig",
    "eval_lg",
    "find_crossings",
    "find_turning_points",
    "find_vortices",
    "helical_state",
    "ince_ode_residual",
    "oam_curve",
    "oam_distribution",
    "oam_expectation",
    "sample_grid",
    "solve_ince",
    "vortex_census",
]
