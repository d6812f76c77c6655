"""Field construction, kernel, gate, stepping, and evolution behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votfield import experiments
from votfield import (ConfigError, FieldParams, FieldState, GaussianInput,
                      IntegrationDivergedError, build_kernel, compose_inputs,
                      draw_noise, evolve, initial_state, kernel_value,
                      lateral_input, sigmoid_gate)

PARAMS = FieldParams()
NOISELESS = dataclasses.replace(PARAMS, q=0.0)


def target_drive(a_target=6.0, a_mp=0.0, field_size=200):
    inputs = [GaussianInput(a=a_target, p=70.0, w=30.0, label="target"),
              GaussianInput(a=a_mp, p=20.0, w=30.0, label="mp")]
    return compose_inputs(inputs, field_size)


def test_default_parameter_values():
    p = PARAMS
    assert (p.tau, p.h, p.beta) == (20.0, -5.0, 4.0)
    assert (p.c_exc, p.c_inh, p.c_glob) == (15.0, 5.0, 0.9)
    assert (p.sigma_exc, p.sigma_inh, p.q) == (5.0, 12.5, 1.0)
    assert (p.field_size, p.dt, p.n_steps) == (200, 1.0, 120)
    assert p.u_init is None and p.noise_smooth_sigma == 0.0


@pytest.mark.parametrize("bad", [
    dict(tau=0.0), dict(tau=-1.0), dict(dt=0.0), dict(beta=0.0),
    dict(sigma_exc=0.0), dict(sigma_inh=-2.0), dict(field_size=1),
    dict(n_steps=0), dict(q=-0.5), dict(c_exc=-1.0), dict(field_size=2.5),
    dict(tau=float("nan")), dict(h=float("inf")), dict(tau=True),
    dict(tau="20"), dict(u_init=float("nan")),
])
def test_parameter_validation_rejects_and_names_key(bad):
    key = next(iter(bad))
    with pytest.raises(ConfigError, match=key):
        FieldParams(**bad)


def test_integer_like_floats_are_coerced():
    p = FieldParams(field_size=100.0, n_steps=60.0, tau=10)
    assert p.field_size == 100 and isinstance(p.field_size, int)
    assert p.n_steps == 60 and p.tau == 10.0


def test_non_selective_regime_warns_but_constructs(caplog):
    with caplog.at_level("WARNING", logger="votfield.field"):
        p = FieldParams(c_exc=1.0)  # weaker than the surround: outside the regime
    assert p.c_exc == 1.0
    assert "regime" in caplog.text


def test_sigmoid_gate_midpoint_and_frozen_value():
    assert sigmoid_gate(0.0, 4.0) == 0.5
    assert sigmoid_gate(1.0, 4.0) == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), abs=1e-15)
    assert sigmoid_gate(1.0, 4.0) == pytest.approx(0.9820137900379085, abs=1e-15)


def test_sigmoid_gate_saturates_without_overflow():
    arr = sigmoid_gate(np.array([-1e4, -500.0, 0.0, 500.0, 1e4]), 4.0)
    assert np.all(np.isfinite(arr))
    assert arr[0] == 0.0 and arr[2] == 0.5 and arr[-1] == 1.0


def test_sigmoid_gate_requires_positive_beta():
    with pytest.raises(ConfigError, match="beta"):
        sigmoid_gate(0.0, 0.0)


@given(u=st.floats(-1e6, 1e6), beta=st.floats(0.01, 100.0))
def test_sigmoid_gate_bounds_and_symmetry(u, beta):
    g = sigmoid_gate(u, beta)
    assert 0.0 <= g <= 1.0
    assert g + sigmoid_gate(-u, beta) == pytest.approx(1.0, abs=1e-12)


def test_kernel_value_frozen_points():
    # hand-evaluated difference of Gaussians minus the global offset
    s = math.sqrt(2.0 * math.pi)
    k0 = 15.0 / (s * 5.0) - 5.0 / (s * 12.5) - 0.9
    assert kernel_value(0.0, PARAMS) == k0
    assert k0 == pytest.approx(0.13724992904372513, abs=1e-15)
    k5 = (15.0 / (s * 5.0) * math.exp(-25.0 / 50.0)
          - 5.0 / (s * 12.5) * math.exp(-25.0 / 312.5) - 0.9)
    assert kernel_value(5.0, PARAMS) == pytest.approx(k5, abs=1e-15)
    assert k5 == pytest.approx(-0.3213958825638993, abs=1e-15)


def test_kernel_excitatory_center_inhibitory_surround():
    assert kernel_value(0.0, PARAMS) > 0
    assert kernel_value(10.0, PARAMS) < 0
    assert kernel_value(199.0, PARAMS) == pytest.approx(-PARAMS.c_glob, abs=1e-12)


def test_kernel_table_symmetric_and_pointwise_consistent():
    table = build_kernel(PARAMS)
    w = table.weights
    assert w.shape == (399,)
    assert np.array_equal(w, w[::-1])  # exact, not approximate
    d = np.arange(-199, 200, dtype=np.float64)
    assert np.array_equal(w, kernel_value(d, PARAMS))


@given(d=st.floats(0.0, 500.0))
def test_kernel_even_under_reflection(d):
    assert kernel_value(d, PARAMS) == kernel_value(-d, PARAMS)


def test_lateral_input_matches_naive_double_loop():
    params = dataclasses.replace(PARAMS, field_size=64)
    kernel = build_kernel(params)
    rng = np.random.default_rng(42)
    for _ in range(5):
        u = rng.uniform(-8.0, 4.0, size=64)
        lat = lateral_input(FieldState(u), kernel, params.beta)
        g = sigmoid_gate(u, params.beta)
        naive = np.array([
            sum(kernel_value(float(i - j), params) * g[j] for j in range(64))
            for i in range(64)
        ])
        assert np.max(np.abs(lat - naive)) <= 1e-10


def test_lateral_input_rejects_mismatched_kernel():
    small = build_kernel(dataclasses.replace(PARAMS, field_size=50))
    with pytest.raises(ConfigError, match="kernel"):
        lateral_input(FieldState(np.zeros(200)), small, PARAMS.beta)


def test_evolve_raises_on_divergence_in_both_modes():
    params = dataclasses.replace(PARAMS, field_size=8, n_steps=10, q=0.0)
    drive = np.full(8, np.inf)
    for lean in (False, True):
        with pytest.raises(IntegrationDivergedError) as err:
            evolve(None, drive, params, None, keep_states=not lean)
        assert err.value.step == 1
        assert "step 1" in str(err.value)


def test_resting_state_is_fixed_point_without_input_or_noise():
    final = evolve(None, np.zeros(200), NOISELESS, None).final
    assert np.max(np.abs(final.u - NOISELESS.h)) < 1e-6


def test_noiseless_target_forms_single_bump_at_center():
    traj = evolve(None, target_drive(), NOISELESS, None)
    u = traj.final.u
    assert float(np.argmax(u)) == 70.0
    above = np.flatnonzero(u > 0.0)
    assert above.size > 0
    assert np.all(np.diff(above) == 1)  # one contiguous active region
    assert 25 <= traj.first_cross_step <= 55
    assert 60 <= traj.first_cross_pos <= 80


def test_trajectory_indexing_and_lean_mode_agree_bitwise():
    drive = target_drive()
    full = evolve(None, drive, PARAMS, np.random.default_rng(123))
    lean = evolve(None, drive, PARAMS, np.random.default_rng(123), keep_states=False)
    assert len(full) == PARAMS.n_steps + 1 == len(lean)
    assert full.states.shape == (PARAMS.n_steps + 1, PARAMS.field_size)
    assert np.all(full.states[0] == PARAMS.h)
    assert np.array_equal(full.states[-1], full.final.u)
    assert np.array_equal(full.max_u, full.states.max(axis=1))
    assert np.array_equal(full.n_above, np.count_nonzero(full.states > 0, axis=1))
    assert lean.states is None
    assert np.array_equal(full.final.u, lean.final.u)  # identical arithmetic path
    assert np.array_equal(full.max_u, lean.max_u)
    assert np.array_equal(full.n_above, lean.n_above)
    assert full.first_cross_step == lean.first_cross_step
    assert full.first_cross_pos == lean.first_cross_pos


def test_evolve_validates_initial_state():
    with pytest.raises(ConfigError, match="neurons"):
        evolve(FieldState(np.zeros(50)), np.zeros(200), PARAMS, None)
    with pytest.raises(ConfigError, match="inputs"):
        evolve(None, np.zeros(100), PARAMS, None)


def test_u_init_overrides_start_level():
    params = dataclasses.replace(NOISELESS, u_init=-2.0)
    assert np.all(initial_state(params).u == -2.0)
    assert np.all(initial_state(NOISELESS).u == NOISELESS.h)


def test_draw_noise_shapes_and_reproducibility():
    zero = draw_noise(PARAMS, None)
    assert zero.shape == (120, 200) and not zero.any()
    a = draw_noise(PARAMS, np.random.default_rng(9))
    b = draw_noise(PARAMS, np.random.default_rng(9))
    assert np.array_equal(a, b)
    # drawn into a given row of a larger array, with the same bits
    rows = np.full((2, 120, 200), np.nan)
    row = rows[1]
    assert draw_noise(PARAMS, np.random.default_rng(9), out=row) is row
    assert a.tobytes() == row.tobytes() and np.isnan(rows[0]).all()
    assert not draw_noise(PARAMS, None, out=rows[0]).any()


def test_draw_noise_smoothing_matches_scipy_filter():
    # scipy is the oracle; the dense convolution agrees to rounding, within
    # 1e-12 absolute on unit-variance noise. At sigma 60 the kernel's radius
    # (240) reaches past the 200-neuron grid.
    from scipy.ndimage import gaussian_filter1d

    raw = np.random.default_rng(11).standard_normal((120, 200))
    for sigma in (0.3, 2.0, 7.5, 60.0):
        params = dataclasses.replace(PARAMS, noise_smooth_sigma=sigma)
        smooth = draw_noise(params, np.random.default_rng(11))
        into = draw_noise(params, np.random.default_rng(11), out=np.empty((120, 200)))
        assert into.tobytes() == smooth.tobytes()
        ref = gaussian_filter1d(raw, sigma, axis=1, mode="constant", cval=0.0)
        assert np.max(np.abs(smooth - ref)) <= 1e-12
        assert smooth.std() < raw.std()  # smoothing trades variance for correlation



@pytest.mark.parametrize("sigma", [0.0, 2.0])
@pytest.mark.parametrize("n_steps", [1, 21, 120])
def test_noise_drawn_in_blocks_has_the_whole_draws_bits(sigma, n_steps):
    # a trial's noise is drawn one block of steps at a time, as a run's tiles
    # draw it; at 21 steps, blocks of 10 would leave a last block of one row,
    # which the run's even split into blocks of 7 avoids
    params = dataclasses.replace(PARAMS, n_steps=n_steps, noise_smooth_sigma=sigma)
    whole = draw_noise(params, np.random.default_rng(21))
    blocks = experiments._parts(n_steps, experiments._BLOCK)
    assert all(b.stop - b.start >= 2 for b in blocks) or n_steps == 1
    rng, into = np.random.default_rng(21), np.full_like(whole, np.nan)
    for b in blocks:
        draw_noise(params, rng, out=into[b])
    assert into.tobytes() == whole.tobytes()
    if n_steps == 21 and sigma == 0.0:  # i.i.d. rows take any split, one-row blocks too
        rng = np.random.default_rng(21)
        for b in (slice(0, 10), slice(10, 20), slice(20, 21)):
            draw_noise(params, rng, out=into[b])
        assert into.tobytes() == whole.tobytes()

@settings(max_examples=25, deadline=None)
@given(level=st.floats(-10.0, 5.0))
def test_uniform_field_relaxes_to_rest_without_drive(level):
    params = dataclasses.replace(NOISELESS, field_size=60, n_steps=300, u_init=level)
    traj = evolve(None, np.zeros(60), params, None)
    dist = np.abs(traj.states - params.h).max(axis=1)
    assert np.all(dist[1:] <= dist[:-1] + 1e-6)  # contraction toward rest
    assert dist[-1] < 1e-4
