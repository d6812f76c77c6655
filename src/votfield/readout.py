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
        # zero outside the above-threshold region; no such neuron gives 0/0 = NaN
        mass = np.where(final > 0.0, final, 0.0)
        with np.errstate(invalid="ignore"):
            vot = (np.sum(np.arange(final.shape[-1]) * mass, axis=-1)
                   / np.sum(mass, axis=-1))
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
    """Assemble a Trajectory's TrialResult under the chosen readout method.

    time_to_threshold and the stabilization flag are recorded regardless of
    method; methods that require stabilization yield vot_target=None on
    trials that never crossed (the result is still returned).
    """
    u = trajectory.final.u
    crossed = trajectory.first_cross_step is not None
    vot, ttt, stab = readout_rows(u, trajectory.first_cross_step if crossed else -1,
                                  trajectory.first_cross_pos if crossed else -1, method)
    return row_result(vot, ttt, stab, method, seed=seed, final_u=u)
