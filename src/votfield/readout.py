"""Extract a planned VOT and timing metrics from a completed trajectory.

Three readout rules are supported: the position of maximum activation in the
final field (total — defined even when nothing crossed threshold), the
activation-weighted centroid over above-threshold neurons (absent unless the
field stabilized), and the first neuron to cross threshold (absent if none
ever did). The interaction threshold is strictly u > 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .field import FieldState, Trajectory

METHODS = ("argmax", "centroid_above_threshold", "first_to_threshold")


@dataclass(eq=False)
class TrialResult:
    """Per-trial readout bundle.

    `vot_target` is None when the chosen method returns no value (e.g.
    centroid on a non-stabilized trial). `seed` is the integer that
    reproduces the trial's noise stream. `final_u` snapshots the last field.
    """

    vot_target: float | None
    time_to_threshold: int | None
    stabilized: bool
    readout_method: str
    seed: int | None = None
    final_u: np.ndarray | None = None

    def __post_init__(self):
        if self.readout_method not in METHODS:
            raise ConfigError(f"readout_method must be one of {METHODS}, "
                              f"got {self.readout_method!r}")
        if self.stabilized and self.time_to_threshold is None:
            raise ConfigError("stabilized trial must carry time_to_threshold")
        if self.vot_target is not None and self.final_u is not None:
            if not 0 <= self.vot_target < self.final_u.shape[0]:
                raise ConfigError(f"vot_target {self.vot_target} outside the grid "
                                  f"[0, {self.final_u.shape[0]})")


def _as_u(final):
    if isinstance(final, FieldState):
        return final.u
    return np.asarray(final, dtype=np.float64)


def readout_argmax(final):
    """Grid position of the maximum activation; ties break to the lowest
    index. Defined for every finite field."""
    return float(np.argmax(_as_u(final)))


def readout_centroid(final):
    """Activation-weighted mean position over neurons with u > 0, or None
    when no neuron is above threshold."""
    u = _as_u(final)
    mask = u > 0.0
    if not mask.any():
        return None
    idx = np.flatnonzero(mask)
    w = u[idx]
    return float(np.sum(idx * w) / np.sum(w))


def readout_first_threshold(trajectory):
    """(position, step) of the first neuron to exceed 0, scanning steps in
    order with ties broken toward the lowest index; None if never crossed.

    Accepts a Trajectory (full or memory-lean) or any sequence of FieldState.
    """
    if isinstance(trajectory, Trajectory):
        if trajectory.states is None:
            if trajectory.first_cross_step is None:
                return None
            return float(trajectory.first_cross_pos), int(trajectory.first_cross_step)
        above = trajectory.states > 0.0
        rows = above.any(axis=1)
        if not rows.any():
            return None
        t = int(np.argmax(rows))
        return float(np.argmax(above[t])), t
    for state in trajectory:
        mask = _as_u(state) > 0.0
        if mask.any():
            return float(np.argmax(mask)), int(state.step)
    return None


def readout_rows(final, first_step, first_pos, method):
    """Read out many trials at once from per-row engine results (the `final`,
    `first_step` and `first_pos` of an `Evolution`, any leading shape).

    Returns (vot, time_to_threshold, stabilized) arrays shaped like
    `first_step`; vot is NaN and time_to_threshold -1 where absent.
    """
    if method not in METHODS:
        raise ConfigError(f"readout method must be one of {METHODS}, got {method!r}")
    final = np.asarray(final, dtype=np.float64)
    first_step = np.asarray(first_step)
    if method == "argmax":
        vot = np.argmax(final, axis=-1).astype(np.float64)
    elif method == "centroid_above_threshold":
        rows = final.reshape(-1, final.shape[-1])
        vot = np.array([math.nan if c is None else c
                        for c in map(readout_centroid, rows)]).reshape(first_step.shape)
    else:
        vot = np.where(first_step >= 0, first_pos, math.nan)
    return vot, first_step, (final > 0.0).any(axis=-1)


def row_result(vot, time_to_threshold, stabilized, method, seed=None, final_u=None):
    """One trial's TrialResult from its entries in `readout_rows`' arrays."""
    return TrialResult(
        vot_target=(None if math.isnan(vot) else float(vot)),
        time_to_threshold=(int(time_to_threshold) if time_to_threshold >= 0 else None),
        stabilized=bool(stabilized),
        readout_method=method,
        seed=seed,
        final_u=final_u,
    )


def trial_metrics(trajectory, method, seed=None):
    """Assemble a TrialResult under the chosen readout method.

    time_to_threshold and the stabilization flag are recorded regardless of
    method; methods that require stabilization yield vot_target=None on
    trials that never crossed (the result is still returned).
    """
    if isinstance(trajectory, Trajectory):
        final = trajectory.final
    else:
        final = trajectory[-1]
    u = _as_u(final)
    pos, step = readout_first_threshold(trajectory) or (-1, -1)
    vot, ttt, stab = readout_rows(u, step, pos, method)
    return row_result(vot, ttt, stab, method, seed=seed, final_u=u)
