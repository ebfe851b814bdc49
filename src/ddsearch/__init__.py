"""Directional direct search with a randomized revealing poll.

The package bundles a discontinuous 1-D objective whose dyadic band structure
traps the classic method against its discontinuity, the solver itself (with
the revealing poll as the fix), trace persistence, and the analysis tooling
that measures refining subsequences, discontinuity gaps, trial-point density,
and Clarke derivative estimates.
"""

from .analysis import (
    EscapeStats,
    RefinementReport,
    clarke_estimate,
    covering_radius,
    extract_refining,
    monte_carlo_escape,
    verify_counterexample_closed_form,
)
from .engine import (
    AlgoConfig,
    ConfigError,
    InitializationError,
    IterationRecord,
    ObjectiveError,
    StepOutcome,
    Trace,
    TrialPoint,
    run,
)
from .objective import ObjectiveSpec, Polynomial, UnknownNameError, get_objective, objective_names
from .steps import sample_ball_uniform
from .traceio import read_trace, replay_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "AlgoConfig",
    "ConfigError",
    "EscapeStats",
    "InitializationError",
    "IterationRecord",
    "ObjectiveError",
    "ObjectiveSpec",
    "Polynomial",
    "RefinementReport",
    "StepOutcome",
    "Trace",
    "TrialPoint",
    "UnknownNameError",
    "clarke_estimate",
    "covering_radius",
    "extract_refining",
    "get_objective",
    "monte_carlo_escape",
    "objective_names",
    "read_trace",
    "replay_trace",
    "run",
    "sample_ball_uniform",
    "verify_counterexample_closed_form",
    "write_trace",
]
