"""stratwave: spectral laboratory for non-local dispersive-dissipative waves."""

__version__ = "0.1.0"  # before the imports: stratwave.runio reads it

from .errors import (BadParameter, ConfigInvalid, ExcludedParameters,
                     GridMismatch, InsufficientDecades, InvalidN, InvalidRange,
                     NoContraction, NonFinite, StratwaveError, UnderResolved,
                     UnknownPreset, WindowContaminated, ZeroMean)
from .model import (DispersionSymbol, ModelParams, dissipation_symbol,
                    linear_multiplier, model_from_config, preset,
                    validate_params)
from .spectral import (Field, Grid, convolve, field_from_csv, field_to_csv,
                       integral, wrap_contamination)
from .kernel import (KernelField, asymptotic_coefficient, kernel_derivative_field,
                     kernel_field, kernel_hat, leading_jump)
from .solver import (DatumSpec, EtdPropagator, SolverConfig, Trajectory,
                     datum_from_config, make_datum, picard_solve, solution_at,
                     solve)
from .analysis import (EXPERIMENT_SCHEMAS, DecayFit, Weight, dichotomy_experiment,
                       energy_experiment, growth_envelope, growth_experiment,
                       kernel_report, lower_bound_check, lower_bound_experiment,
                       run_experiment, tail_exponent, tail_report, weighted_norm,
                       weighted_persistence_experiment, window_mask)
