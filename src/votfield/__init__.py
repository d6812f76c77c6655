"""Stochastic neural-field simulation of voice onset time planning.

A one-dimensional activation field over VOT (one unit per millisecond)
receives Gaussian target and competitor inputs, evolves under local
excitation, lateral/global inhibition, and additive noise, and is read out
once it stabilizes. Batches, amplitude sweeps, and canned replication
campaigns are deterministic functions of a single master seed.
"""

from .config import (DEFAULT_INPUTS, RunConfig, SweepRange, config_from_dict,
                     config_to_dict, default_config, load_config,
                     serialize_config)
from .errors import ConfigError, IntegrationDivergedError
from .experiments import (CONDITIONS_BBG2009, REPLICATIONS, Condition,
                          ConditionStats, ReplicationResult, SweepResult,
                          example_trajectory, replicate_named, run_batch,
                          run_trials, sweep_1d, sweep_2d, trial_seed)
from .field import (FieldParams, FieldState, KernelTable, Trajectory,
                    build_kernel, draw_noise, evolve, initial_state,
                    kernel_value, lateral_input, sigmoid_gate)
from .outputs import (PLOT_KINDS, SWEEP_COLUMNS, emit_sweep_csv,
                      emit_trajectory_csv, render_plots)
from .readout import METHODS, TrialResult, readout_rows, trial_metrics
from .stimulus import GaussianInput, compose_inputs, gaussian_profile

__version__ = "0.1.0"

__all__ = [
    "CONDITIONS_BBG2009", "Condition", "ConditionStats", "ConfigError",
    "DEFAULT_INPUTS", "FieldParams", "FieldState", "GaussianInput",
    "IntegrationDivergedError", "KernelTable", "METHODS", "PLOT_KINDS",
    "REPLICATIONS", "ReplicationResult", "RunConfig", "SWEEP_COLUMNS",
    "SweepRange", "SweepResult", "Trajectory", "TrialResult",
    "build_kernel", "compose_inputs", "config_from_dict",
    "config_to_dict", "default_config", "draw_noise", "emit_sweep_csv", "emit_trajectory_csv",
    "evolve", "example_trajectory", "gaussian_profile",
    "initial_state", "kernel_value", "lateral_input", "load_config",
    "readout_rows", "render_plots", "replicate_named", "run_batch", "run_trials",
    "serialize_config", "sigmoid_gate", "sweep_1d", "sweep_2d", "trial_seed",
    "trial_metrics", "__version__",
]
