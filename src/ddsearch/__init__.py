"""Directional direct search with a randomized revealing poll.

The package bundles a discontinuous 1-D objective whose dyadic band structure
traps the classic method against its discontinuity, the solver itself (with
the revealing poll as the fix), trace persistence, and the analysis tooling
that measures refining subsequences, discontinuity gaps, trial-point density,
and Clarke derivative estimates.

Each public name loads its submodule on first access (PEP 562), so that
importing ddsearch, or a command that needs neither the trace files nor the
analysis, does not load them.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULES = {
    "AlgoConfig": "engine",
    "ConfigError": "engine",
    "EscapeStats": "analysis",
    "InitializationError": "engine",
    "IterationRecord": "engine",
    "ObjectiveError": "engine",
    "ObjectiveSpec": "objective",
    "RefinementReport": "analysis",
    "StepOutcome": "engine",
    "Trace": "engine",
    "TrialPoint": "engine",
    "UnknownNameError": "objective",
    "clarke_estimate": "analysis",
    "covering_radius": "analysis",
    "extract_refining": "analysis",
    "get_objective": "objective",
    "monte_carlo_escape": "analysis",
    "read_trace": "traceio",
    "replay_trace": "traceio",
    "run": "engine",
    "sample_ball_uniform": "steps",
    "verify_counterexample_closed_form": "analysis",
    "write_trace": "traceio",
}

__all__ = sorted(_SUBMODULES)


def __getattr__(name: str):
    try:
        submodule = _SUBMODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    # Bound here, a later access does not come back to __getattr__.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
