"""Readout rules on synthetic fields and on real trajectories."""

import dataclasses
import math

import numpy as np
import pytest

from votfield import (METHODS, ConfigError, Condition, FieldParams,
                      GaussianInput, TrialResult, compose_inputs, evolve,
                      readout_rows, run_trials, trial_metrics)

PARAMS = FieldParams()
DRIVE = compose_inputs([GaussianInput(6.0, 70.0, 30.0, "target"),
                        GaussianInput(0.0, 20.0, 30.0, "mp")], 200)


def vot_of(u, method="argmax"):
    """readout_rows on one never-crossed field as a (1, n) row; NaN where
    absent."""
    vot, _, _ = readout_rows(np.asarray(u, dtype=np.float64)[None], np.array([-1]),
                             np.array([-1]), method)
    assert vot.shape == (1,)
    return vot[0]


def centroid_reference(u):
    """Activation-weighted mean position over the neurons with u > 0, summed
    over those neurons only; None when there are none."""
    idx = np.flatnonzero(u > 0.0)
    if not idx.size:
        return None
    return float(np.sum(idx * u[idx]) / np.sum(u[idx]))


def test_argmax_basic_and_tie_breaks_low():
    u = np.full(10, -1.0)
    u[4] = 2.0
    assert vot_of(u) == 4.0
    u[7] = 2.0
    assert vot_of(u) == 4.0  # tie -> lowest position
    assert vot_of(np.full(5, -3.0)) == 0.0  # defined below threshold too


def test_centroid_weighted_mean_over_active_region():
    u = np.full(10, -1.0)
    u[3], u[4], u[5] = 1.0, 2.0, 1.0
    assert vot_of(u, "centroid_above_threshold") == pytest.approx(4.0)
    u[5] = 3.0
    assert vot_of(u, "centroid_above_threshold") == pytest.approx((3 * 1 + 4 * 2 + 5 * 3) / 6.0)
    assert math.isnan(vot_of(np.full(10, -0.5), "centroid_above_threshold"))
    assert math.isnan(vot_of(np.zeros(10), "centroid_above_threshold"))  # threshold is strict


def test_centroid_ignores_subthreshold_mass():
    assert vot_of(np.array([-100.0, 0.5, -100.0, -100.0]), "centroid_above_threshold") == 1.0


def test_centroid_rows_match_scalar_reference_on_real_fields():
    # The array centroid sums whole rows with zeros outside the active region,
    # so it may differ from a sum over the active neurons alone by rounding.
    finals = np.array([r.final_u for a_mp in (-6.0, 0.0)
                       for r in run_trials(condition=Condition(6.0, a_mp), n_trials=100,
                                           master_seed=1)])
    steps = np.zeros(len(finals), np.int64)
    vot, _, _ = readout_rows(finals, steps, steps, "centroid_above_threshold")
    ref = np.array([math.nan if c is None else c for c in map(centroid_reference, finals)])
    assert np.isnan(ref).any() and not np.isnan(ref).all()  # both kinds of row occur
    np.testing.assert_array_equal(np.isnan(vot), np.isnan(ref))
    assert np.nanmax(np.abs(vot - ref)) <= 1e-12


def test_first_threshold_rows_read_the_engine_crossing():
    vot, ttt, stab = readout_rows(np.array([[-1.0, 0.5], [-1.0, -1.0]]), np.array([7, -1]),
                                  np.array([1, -1]), "first_to_threshold")
    assert vot[0] == 1.0 and math.isnan(vot[1])
    assert ttt.tolist() == [7, -1] and stab.tolist() == [True, False]


def test_first_threshold_full_and_lean_trajectories_agree():
    full = evolve(None, DRIVE, PARAMS, np.random.default_rng(5))
    lean = evolve(None, DRIVE, PARAMS, np.random.default_rng(5), keep_states=False)
    step, pos = full.first_cross_step, full.first_cross_pos
    assert step is not None
    assert (step, pos) == (lean.first_cross_step, lean.first_cross_pos)
    # the first (step, lowest index) of the recorded states above 0
    above = np.argwhere(full.states > 0.0)
    assert (step, pos) == tuple(above[0])
    for method in METHODS:
        assert trial_metrics(full, method).vot_target == trial_metrics(lean, method).vot_target
    assert trial_metrics(lean, "first_to_threshold").vot_target == float(pos)


def test_trial_metrics_bundles_consistent_fields():
    full = evolve(None, DRIVE, PARAMS, np.random.default_rng(5))
    res = trial_metrics(full, "argmax", seed=77)
    assert res.readout_method == "argmax"
    assert res.seed == 77
    assert res.stabilized is True
    assert res.vot_target == float(np.argmax(full.final.u))
    assert res.time_to_threshold == full.first_cross_step
    assert np.array_equal(res.final_u, full.final.u)


def test_trial_metrics_methods_agree_on_clean_noiseless_bump():
    params = dataclasses.replace(PARAMS, q=0.0)
    traj = evolve(None, DRIVE, params, None)
    vots = {m: trial_metrics(traj, m).vot_target for m in METHODS}
    assert vots["argmax"] == 70.0
    assert abs(vots["centroid_above_threshold"] - 70.0) <= 2.0
    assert abs(vots["first_to_threshold"] - 70.0) <= 2.0


def test_trial_metrics_when_field_never_crosses():
    params = dataclasses.replace(PARAMS, q=0.0, n_steps=5)
    traj = evolve(None, np.zeros(200), params, None)
    for method in ("centroid_above_threshold", "first_to_threshold"):
        res = trial_metrics(traj, method)
        assert res.vot_target is None
        assert res.stabilized is False
        assert res.time_to_threshold is None
    # argmax is defined even without a crossing (edge truncation of the
    # lateral sum makes the relaxing field very slightly non-uniform, so the
    # exact winner is an implementation detail; only definedness is promised)
    res = trial_metrics(traj, "argmax")
    assert res.vot_target == float(np.argmax(traj.final.u))
    assert res.stabilized is False and res.time_to_threshold is None


def test_trial_metrics_rejects_unknown_method():
    traj = evolve(None, DRIVE, dataclasses.replace(PARAMS, n_steps=2), None)
    with pytest.raises(ConfigError, match="readout"):
        trial_metrics(traj, "peak")


def test_trial_result_validation():
    with pytest.raises(ConfigError, match="readout_method"):
        TrialResult(vot_target=1.0, time_to_threshold=None, stabilized=False,
                    readout_method="nope")
    with pytest.raises(ConfigError, match="time_to_threshold"):
        TrialResult(vot_target=None, time_to_threshold=None, stabilized=True,
                    readout_method="argmax")
    with pytest.raises(ConfigError, match="grid"):
        TrialResult(vot_target=500.0, time_to_threshold=3, stabilized=True,
                    readout_method="argmax", final_u=np.zeros(10))
