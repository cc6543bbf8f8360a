"""stratwave: spectral laboratory for non-local dispersive-dissipative waves.

Importing the package loads none of its submodules, nor numpy: each public
name below is resolved from its submodule when it is first used (PEP 562
module __getattr__), so a process that needs one submodule compiles only
that one and what it imports.  Nothing is cached in the package namespace:
``stratwave.<name>`` always returns the submodule's current binding, so a
monkeypatched or traced function is seen through the package too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"  # a plain assignment: stratwave.runio reads it

#: submodule -> the public names the package exports from it
_EXPORTS = {
    "errors": ("BadParameter", "ConfigInvalid", "ExcludedParameters", "GridMismatch",
               "InsufficientDecades", "InvalidN", "InvalidRange", "NoContraction",
               "NonFinite", "StratwaveError", "UnderResolved", "UnknownPreset",
               "WindowContaminated", "ZeroMean"),
    "model": ("DispersionSymbol", "ModelParams", "dissipation_symbol",
              "linear_multiplier", "model_from_config", "preset", "validate_params"),
    "spectral": ("Field", "Grid", "convolve", "field_from_csv", "field_to_csv",
                 "integral", "wrap_contamination"),
    "kernel": ("asymptotic_coefficient", "kernel_derivative_field", "kernel_field",
               "leading_jump"),
    "solver": ("EtdPropagator", "SolverConfig", "Trajectory", "datum_from_config",
               "picard_solve", "solution_at", "solve"),
    "analysis": ("EXPERIMENT_SCHEMAS", "dichotomy_experiment", "energy_experiment",
                 "growth_envelope", "growth_experiment", "kernel_report",
                 "lower_bound_check", "lower_bound_experiment", "run_experiment",
                 "tail_exponent", "weighted_norm", "weighted_persistence_experiment",
                 "window_mask"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: submodules reachable as ``stratwave.<module>`` with no import of their own:
#: those of the exports, and runio, which model, solver and analysis import
_SUBMODULES = frozenset({*_EXPORTS, "runio"})

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
