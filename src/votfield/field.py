"""Core 1-D activation field: parameters, interaction kernel, Euler integrator.

The field u(x, t) lives on an integer grid x = 0 .. field_size-1 (1 grid unit
= 1 ms of VOT) and evolves by

    u_next = u + (dt/tau) * (-u + h + s(x) + sum_x' k(x - x') g(u(x')) + q * xi)

where g is a steep logistic gate, k is a difference-of-Gaussians kernel with a
global inhibitory offset, s is the static external drive, and xi is unit
Gaussian noise drawn fresh per neuron per step. The lateral sum is a plain
linear convolution with zero contribution from outside the grid (VOT space is
not periodic). The noise term sits inside the bracket, so the per-step noise
increment is (dt/tau)*q*xi — not sqrt(dt)-scaled; see the `dt` field note.
"""

import functools
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import ConfigError, IntegrationDivergedError

logger = logging.getLogger(__name__)

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# the most float64 values the lateral table (field_size**2) or one
# trajectory's states ((n_steps + 1) * field_size) may hold: 1 GiB, on any host
_MAX_VALUES = 2**27


def _is_number(val):
    return not isinstance(val, bool) and isinstance(
        val, (int, float, np.integer, np.floating))


def _finite(key, val):
    """`val` as a float; a ConfigError naming `key` unless it is a finite number."""
    try:
        if _is_number(val) and math.isfinite(val):
            return float(val)
    except OverflowError:  # an int beyond the float range
        pass
    raise ConfigError(f"{key} must be a finite number, got {val!r}")


def _as_int(key, val):
    """`val` as an int; a ConfigError naming `key` unless it is an integral number."""
    if _is_number(val) and (isinstance(val, (int, np.integer)) or float(val).is_integer()):
        return int(val)
    raise ConfigError(f"{key} must be an integer, got {val!r}")


def _width(key, val):
    """A ConfigError naming `key` unless the Gaussian width `val` is > 0 and
    its square, which exp(-x**2 / (2 val**2)) divides by, is neither 0 nor inf."""
    if not (val > 0 and 0 < val * val < math.inf):
        raise ConfigError(f"{key} must be > 0 with a square that is neither 0 nor inf, "
                          f"got {val}")


@dataclass(frozen=True)
class FieldParams:
    """Field constants plus discretization choices.

    `dt` is exposed for completeness but note the caveat in the module
    docstring: the effective noise increment scales with dt/tau rather than
    sqrt(dt), so changing dt changes the noise process, not just the
    resolution.
    """

    tau: float = 20.0          # time constant, in steps
    h: float = -5.0            # resting activation level
    beta: float = 4.0          # sigmoid gate steepness
    c_exc: float = 15.0        # excitatory kernel magnitude
    c_inh: float = 5.0         # surround-inhibition magnitude
    c_glob: float = 0.9        # global inhibition per active neuron
    sigma_exc: float = 5.0     # excitatory kernel width (ms)
    sigma_inh: float = 12.5    # inhibitory kernel width (ms)
    q: float = 1.0             # noise weight
    field_size: int = 200      # number of neurons (grid 0..199 ms)
    dt: float = 1.0            # integration step
    n_steps: int = 120         # steps per trial
    u_init: float | None = None        # initial activation; None = resting h
    noise_smooth_sigma: float = 0.0    # Gaussian smoothing of each noise vector; 0 = i.i.d.

    def __post_init__(self):
        for key in ("field_size", "n_steps"):
            object.__setattr__(self, key, _as_int(key, getattr(self, key)))
        floats = ("tau", "h", "beta", "c_exc", "c_inh", "c_glob", "sigma_exc",
                  "sigma_inh", "q", "dt", "noise_smooth_sigma")
        for key in floats:
            object.__setattr__(self, key, _finite(key, getattr(self, key)))
        if self.u_init is not None:
            object.__setattr__(self, "u_init", _finite("u_init", self.u_init))
        for key in ("tau", "dt", "beta"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        for key in ("sigma_exc", "sigma_inh"):
            _width(key, getattr(self, key))
        for key in ("c_exc", "c_inh", "c_glob", "q", "noise_smooth_sigma"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        # `_smoothing_weights` takes 8 sigma + 1 taps of exp(-0.5 / sigma**2 * x**2)
        sigma = self.noise_smooth_sigma
        if sigma and not (0.5 / sys.float_info.max < sigma * sigma and sigma <= 1e6):
            raise ConfigError("noise_smooth_sigma must be 0, or at most 1e6 with "
                              f"0.5 / noise_smooth_sigma**2 finite, got {sigma}")
        if self.field_size < 2:
            raise ConfigError(f"field_size must be >= 2, got {self.field_size}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.field_size > math.isqrt(_MAX_VALUES):
            raise ConfigError(f"field_size must be at most {math.isqrt(_MAX_VALUES)}, for a "
                              f"lateral table of at most 2**27 values, got {self.field_size}")
        if (self.n_steps + 1) * self.field_size > _MAX_VALUES:
            raise ConfigError(f"n_steps must be at most {_MAX_VALUES // self.field_size - 1} at "
                              f"field_size {self.field_size}, for a trajectory of at most 2**27 "
                              f"values, got {self.n_steps}")
        for c, sigma in (("c_exc", "sigma_exc"), ("c_inh", "sigma_inh")):
            height, width = getattr(self, c), getattr(self, sigma)
            if not math.isfinite(height / (float(_SQRT_2PI) * width)):
                raise ConfigError(f"the kernel height {c} / (sqrt(2 pi) {sigma}) must be "
                                  f"finite, got {c}={height} {sigma}={width}")
        if not (self.sigma_exc < self.sigma_inh and self.c_exc > self.c_inh > self.c_glob):
            logger.warning(
                "kernel outside the selective regime (expected sigma_exc < sigma_inh "
                "and c_exc > c_inh > c_glob): sigma_exc=%g sigma_inh=%g c_exc=%g "
                "c_inh=%g c_glob=%g — running anyway",
                self.sigma_exc, self.sigma_inh, self.c_exc, self.c_inh, self.c_glob,
            )


@dataclass(eq=False)
class FieldState:
    """Activation vector of the field."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)


@dataclass(eq=False)
class KernelTable:
    """Precomputed k(d) for every displacement d = -(n-1) .. n-1."""

    weights: np.ndarray


def initial_state(params):
    """Resting-state field: u(x, 0) = u_init (default: the resting level h)."""
    level = params.h if params.u_init is None else params.u_init
    return FieldState(np.full(params.field_size, level, dtype=np.float64))


def sigmoid_gate(u_val, beta):
    """Logistic gate g(u) = 1 / (1 + exp(-beta*u)), overflow-safe.

    Accepts a scalar or an array; returns the same shape.
    """
    if not beta > 0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    g = backends.gate(np.asarray(u_val, dtype=np.float64) * beta)
    return float(g) if g.ndim == 0 else g


def kernel_value(d, params):
    """Interaction weight at displacement d: local excitation minus surround
    and global inhibition."""
    d = np.asarray(d, dtype=np.float64)
    exc = params.c_exc / (_SQRT_2PI * params.sigma_exc) * np.exp(
        -(d * d) / (2.0 * params.sigma_exc ** 2))
    inh = params.c_inh / (_SQRT_2PI * params.sigma_inh) * np.exp(
        -(d * d) / (2.0 * params.sigma_inh ** 2))
    out = exc - inh - params.c_glob
    return float(out) if out.ndim == 0 else out


def build_kernel(params):
    """Tabulate the kernel over every integer displacement on the grid.

    Weights are computed from |d|, so the table is symmetric exactly.
    """
    n = params.field_size
    disp = np.abs(np.arange(-(n - 1), n, dtype=np.float64))
    return KernelTable(weights=kernel_value(disp, params))


def lateral_input(state, kernel, beta):
    """Lateral interaction vector: convolution of the gated field with the
    kernel table, zero outside the grid."""
    n = state.u.shape[0]
    if kernel.weights.shape[0] != 2 * n - 1:
        raise ConfigError(
            f"kernel table of length {kernel.weights.shape[0]} does not match "
            f"field_size {n} (expected {2 * n - 1})")
    return sigmoid_gate(state.u, beta) @ backends.toeplitz(kernel.weights)


def _check_vector(name, vec, n):
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (n,):
        raise ConfigError(f"{name} must be a vector of length {n}, got shape {vec.shape}")
    return vec


@functools.lru_cache(maxsize=4)
def _smoother(sigma, n):
    """The `backends.toeplitz` table of the smoothing weights, so that a run
    builds it once, not once per trial's draw."""
    return backends.toeplitz(_smoothing_weights(sigma, n))


def _smoothing_weights(sigma, n):
    """Normalised Gaussian taps of radius int(4*sigma + 0.5) (as
    scipy.ndimage.gaussian_filter1d tabulates them), laid out as
    `backends.toeplitz` weights of length 2n - 1; taps past the grid would
    only meet the zero boundary and are dropped."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * x * x)
    taps /= taps.sum()
    keep = np.abs(x) < n
    weights = np.zeros(2 * n - 1)
    weights[x[keep] + n - 1] = taps[keep]
    return weights


def draw_noise(params, rng, out=None):
    """Pre-draw the (n_steps, field_size) noise matrix for one trial.

    Row t is the noise injected on the step from state t to t+1. With
    `noise_smooth_sigma` > 0 each row is convolved along the field axis with
    a normalised Gaussian, zero outside the grid (this lowers the effective
    per-neuron variance). `rng=None` gives a zero matrix (useful with q=0).
    With `out`, a C-contiguous float64 array of k <= n_steps rows, the next k
    rows of `rng`'s stream are written into it and `out` is returned, so a
    matrix drawn block by block has the bits of the whole draw, provided that
    no smoothed block is a single row when n_steps >= 2: NumPy multiplies a
    single row with the matrix-vector kernel, which rounds differently.
    """
    if out is None:
        out = np.empty((params.n_steps, params.field_size))
    if rng is None:
        out[...] = 0.0
        return out
    rng.standard_normal(out.shape, out=out)
    if params.noise_smooth_sigma > 0:
        out[...] = out @ _smoother(params.noise_smooth_sigma, params.field_size)
    return out


@dataclass(eq=False)
class Trajectory:
    """A completed run: per-step states (unless memory-lean) plus summaries.

    `states[t]` is the field after t steps (`states[0]` the initial one) and
    `len()` counts them. `first_cross_step`/`first_cross_pos` give the first
    step and lowest neuron index at which activation exceeded 0, or None if
    it never did.
    """

    states: np.ndarray | None
    final: FieldState
    max_u: np.ndarray
    n_above: np.ndarray
    first_cross_step: int | None
    first_cross_pos: int | None

    def __len__(self):
        return self.max_u.shape[0]


def evolve(initial, inputs, params, rng, *, keep_states=True):
    """Run the integrator for params.n_steps steps from `initial`.

    `rng` is a seeded numpy Generator supplying the noise stream (or None for
    a zero noise matrix). With keep_states=False only the final state and
    per-step summaries (max activation, above-threshold count) are kept;
    the summaries are read off the states, so those are computed anyway.
    """
    if initial is None:
        initial = initial_state(params)
    n = params.field_size
    if initial.u.shape[0] != n:
        raise ConfigError(f"initial state has {initial.u.shape[0]} neurons, params expect {n}")
    inputs = _check_vector("inputs", inputs, n)
    (traj,) = trajectories(params, initial.u, inputs[None], draw_noise(params, rng))
    if not keep_states:
        traj.states = None
    return traj


def trajectories(params, u0, drives, noise, seed=None):
    """The `Trajectory` of each row of the (rows, n) `drives`, run from `u0`
    as one engine batch on one trial's (n_steps, n) `noise`; the first
    diverging row raises IntegrationDivergedError with its step and `seed`,
    the trial's seed where the caller knows it."""
    table = backends.toeplitz(build_kernel(params).weights)
    run = backends.evolve_batch(params, u0, drives, table,
                                np.broadcast_to(noise, (len(drives),) + noise.shape),
                                keep_states=True)
    out = []
    for row, states in enumerate(run.states):
        if run.diverged[row] >= 0:
            raise IntegrationDivergedError(step=int(run.diverged[row]), seed=seed)
        crossed = run.first_step[row] >= 0
        out.append(Trajectory(
            states=states, final=FieldState(run.final[row]),
            max_u=states.max(axis=1), n_above=np.count_nonzero(states > 0.0, axis=1),
            first_cross_step=(int(run.first_step[row]) if crossed else None),
            first_cross_pos=(int(run.first_pos[row]) if crossed else None)))
    return out
