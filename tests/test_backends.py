"""The evolution engine: batch invariance, divergence, and the dense lateral term.

The lateral term is one BLAS matrix product per step, so a row's bits stay
the same across batch sizes, positions and thread counts only because the
BLAS kernel sums each row in a fixed order. These tests pin that on the host
they run on.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import votfield
from votfield import (ConfigError, FieldParams, FieldState, GaussianInput, build_kernel,
                      compose_inputs, initial_state, kernel_value,
                      lateral_input, sigmoid_gate)
from votfield.backends import evolve_batch, gate, toeplitz

PARAMS = FieldParams()
TABLE = toeplitz(build_kernel(PARAMS).weights)
DRIVE = compose_inputs([GaussianInput(6.0, 70.0, 30.0, "target"),
                        GaussianInput(-3.0, 20.0, 30.0, "mp")], 200)


def _run(noise3, u0=None):
    u0 = initial_state(PARAMS).u if u0 is None else u0
    return evolve_batch(PARAMS, u0, DRIVE, TABLE, noise3, keep_states=True)


def _rows(run, rows):
    return [(run.final[k], run.states[k], run.first_step[k], run.first_pos[k],
             run.diverged[k]) for k in rows]


def _assert_rows_equal(a, b):
    for ra, rb in zip(a, b, strict=True):
        for xa, xb in zip(ra, rb, strict=True):
            assert np.array_equal(xa, xb, equal_nan=True)


def test_rows_are_bitwise_equal_across_batch_sizes_and_offsets():
    noise3 = np.random.default_rng(5).standard_normal((129, PARAMS.n_steps, 200))
    noise3[40, 9, 100] = np.inf  # row 40 diverges; the others must not notice
    full = _run(noise3[:128])
    assert full.diverged[40] == 10
    assert np.all(np.delete(full.diverged, 40) == -1)
    assert (full.first_step >= 0).sum() > 64  # crossings are exercised too

    for start in (0, 36, 121):  # B = 7 at different offsets
        part = _run(noise3[start:start + 7])
        _assert_rows_equal(_rows(part, range(7)), _rows(full, range(start, start + 7)))
    for k in (0, 39, 40, 41, 127):  # B = 1
        _assert_rows_equal(_rows(_run(noise3[k:k + 1]), [0]), _rows(full, [k]))
    # a row keeps its bits when its neighbours change
    shifted = _run(noise3[1:129])
    _assert_rows_equal(_rows(shifted, range(127)), _rows(full, range(1, 128)))


def test_row_bits_do_not_depend_on_batch_size_or_position():
    # M = 1 is padded to two rows to keep it off gemv; M >= 2 relies on the
    # matrix-matrix kernel summing every row in the same order
    noise3 = np.random.default_rng(6).standard_normal((257, PARAMS.n_steps, 200))
    r = 128  # the row under test, at position p of a batch of M rows
    ref = _rows(_run(noise3[:129]), [r])
    for m in (1, 2, 7, 128, 129):
        for p in sorted({0, m // 2, m - 1}):
            run = _run(noise3[r - p:r - p + m])
            _assert_rows_equal(_rows(run, [p]), ref)


_THREAD_RUN = """
import sys
import numpy as np
from votfield import FieldParams, GaussianInput, build_kernel, compose_inputs, initial_state
from votfield.backends import evolve_batch, toeplitz

p = FieldParams()
drive = compose_inputs([GaussianInput(6.0, 70.0, 30.0, "target"),
                        GaussianInput(-3.0, 20.0, 30.0, "mp")], 200)
noise3 = np.random.default_rng(12).standard_normal((128, p.n_steps, 200))
run = evolve_batch(p, initial_state(p).u, drive, toeplitz(build_kernel(p).weights), noise3,
                   keep_states=True)
with open(sys.argv[1], "wb") as out:
    for field in (run.final, run.states, run.first_step, run.first_pos):
        out.write(field.tobytes())
"""


def test_batch_bits_do_not_depend_on_blas_thread_count(tmp_path):
    env = dict(os.environ)
    package_root = str(Path(votfield.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.bin"
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_RUN, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert len(outputs[0]) == 128 * (200 + (PARAMS.n_steps + 1) * 200 + 2) * 8
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [8, 63, 64, 200])
def test_lateral_input_matches_direct_convolution(n):
    # a tiny, an odd, a power-of-two and the default grid size
    params = dataclasses.replace(PARAMS, field_size=n)
    kernel = build_kernel(params)
    rng = np.random.default_rng(n)
    for _ in range(5):
        u = rng.uniform(-2.0, 2.0, n)
        g = sigmoid_gate(u, params.beta)
        ref = np.convolve(g, kernel.weights)[n - 1:2 * n - 1]
        fast = lateral_input(FieldState(u), kernel, params.beta)
        assert np.max(np.abs(fast - ref)) <= 1e-12


def test_one_step_matches_hand_computed_update():
    # T = 1 on an 8-neuron grid, written out neuron by neuron; the field
    # starts off rest so that the lateral term is not negligible
    p = dataclasses.replace(PARAMS, field_size=8)
    u0 = np.linspace(-2.0, 1.5, 8)
    drive = np.linspace(0.0, 3.5, 8)
    noise = np.linspace(-1.0, 1.0, 8)
    run = evolve_batch(p, u0, drive, toeplitz(build_kernel(p).weights), noise[None, None])
    g = sigmoid_gate(u0, p.beta)
    for i in range(8):
        lat = sum(kernel_value(float(i - j), p) * g[j] for j in range(8))
        expect = u0[i] + (p.dt / p.tau) * (
            -u0[i] + p.h + drive[i] + lat + p.q * noise[i])
        assert run.final[0, i] == pytest.approx(expect, abs=1e-12)
    assert run.diverged[0] == -1


@pytest.mark.parametrize("q", [1.0, 0.5, 0.0])
def test_engine_matches_the_literal_update_bit_for_bit(q):
    # the update as written, on 128 rows of which three are kicked with inf,
    # -1e308 and nan, is the reference for any rewrite of the engine's step;
    # q = 1 takes the engine's path that skips the product q * xi
    p = dataclasses.replace(PARAMS, q=q)
    noise3 = np.random.default_rng(13).standard_normal((128, p.n_steps, 200))
    noise3[5, 3, 10], noise3[6, 0, 50], noise3[7, 40, 100] = np.inf, -1e308, np.nan
    table = toeplitz(build_kernel(p).weights)
    run = evolve_batch(p, initial_state(p).u, DRIVE, table, noise3, keep_states=True)
    r = p.dt / p.tau
    u = np.broadcast_to(initial_state(p).u, (128, 200))
    states = [u]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(p.n_steps):
            xi = noise3[:, t]
            u = u + r * (-u + p.h + DRIVE + gate(p.beta * u) @ table + p.q * xi)
            states.append(u)
    assert np.stack(states, axis=1).tobytes() == run.states.tobytes()
    assert u.tobytes() == run.final.tobytes()
    assert list(run.diverged[5:8]) == [4, -1, 41]


def test_blocks_of_steps_give_the_one_call_bits():
    # a run carried over blocks of 1, 10, 50 and 59 steps, with crossings,
    # a divergence in the second block and one on the last step of the third
    noise3 = np.random.default_rng(16).standard_normal((9, PARAMS.n_steps, 200))
    noise3[4, 5, 30], noise3[5, 60, 90] = np.inf, np.nan
    whole = _run(noise3)
    run, states = None, [whole.states[:, :1]]
    for t0, t1 in ((0, 1), (1, 11), (11, 61), (61, 120)):
        run = evolve_batch(PARAMS, initial_state(PARAMS).u, DRIVE, TABLE, noise3[:, t0:t1],
                           keep_states=True, carry=run, t0=t0)
        states.append(run.states[:, 1:])
        assert run.states.shape == (9, t1 - t0 + 1, 200)
    assert list(run.diverged[4:6]) == [6, 61] and (run.first_step >= 0).sum() > 4
    for a, b in zip(run[:4], whole[:4], strict=True):
        assert a.tobytes() == b.tobytes()
    assert np.concatenate(states, axis=1).tobytes() == whole.states.tobytes()

def test_cell_tile_rows_equal_flat_runs():
    # a sweep tile: C cells (one drive each) x k trials sharing each trial's
    # noise through a broadcast view, against flat (k,) runs of each cell
    p = PARAMS
    clean = np.random.default_rng(8).standard_normal((7, p.n_steps, 200))
    noise = clean.copy()
    noise[3, 20, 60] = np.inf  # trial 3 diverges in every cell, and alone
    drives = np.array([compose_inputs([GaussianInput(a_t, 70.0, 30.0, "target"),
                                       GaussianInput(a_mp, 20.0, 30.0, "mp")], 200)
                       for a_t, a_mp in ((6.0, -6.0), (6.0, 0.0), (8.0, 3.0))])

    def run(drive, noise3):
        return evolve_batch(p, initial_state(p).u, drive, TABLE, noise3, keep_states=True)

    tile = run(drives[:, None], np.broadcast_to(noise, (3,) + noise.shape))
    assert tile.final.shape == (3, 7, 200) and tile.states.shape == (3, 7, p.n_steps + 1, 200)
    assert np.all(tile.diverged[:, 3] == 21)
    assert np.all(np.delete(tile.diverged, 3, axis=1) == -1)
    assert len({tuple(r) for r in tile.first_step.tolist()}) == 3  # cells do differ
    others = [0, 1, 2, 4, 5, 6]
    for c in range(3):
        cell = type(tile)(*(None if f is None else f[c] for f in tile))
        _assert_rows_equal(_rows(cell, others), _rows(run(drives[c], clean), others))
        _assert_rows_equal(_rows(cell, [3]), _rows(run(drives[c], noise[3:4]), [0]))


def test_row_bits_do_not_depend_on_the_layout_of_u0():
    # a shared (n,) start, a C-ordered and a Fortran-ordered (B, n) copy of it
    # give the same bits, and the engine's state is C-ordered whatever u0 is
    rng = np.random.default_rng(14)
    noise3 = rng.standard_normal((16, PARAMS.n_steps, 200))
    start = PARAMS.h + rng.uniform(-1.0, 1.0, 200)
    c_rows = np.tile(start, (16, 1))
    runs = [_run(noise3, u0) for u0 in (start, c_rows, np.asfortranarray(c_rows))]
    for run in runs:
        assert run.final.flags.c_contiguous
        _assert_rows_equal(_rows(run, range(16)), _rows(runs[0], range(16)))
        assert run.states.tobytes() == runs[0].states.tobytes()


def test_finite_rows_near_the_largest_float_are_not_diverged():
    # rows of +-1e308 overflow the tile-wide sum while every value stays
    # finite; only a row with a nan or inf may be flagged
    noise3 = np.random.default_rng(15).standard_normal((3, PARAMS.n_steps, 200))
    u0 = np.stack([np.full(200, 1e308), np.full(200, -1e308), initial_state(PARAMS).u])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(u0.sum()) and not np.isfinite(u0[:1].sum())
    run = _run(noise3, u0)
    assert np.all(np.isfinite(run.states))
    assert list(run.diverged) == [-1, -1, -1]
    for k in range(3):  # and each row is its own one-row run
        _assert_rows_equal(_rows(_run(noise3[k:k + 1], u0[k]), [0]), _rows(run, [k]))


def test_noise3_without_a_leading_axis_is_rejected_by_name():
    # a (T, n) noise has no row to record a crossing or a divergence in
    with pytest.raises(ConfigError, match="noise3"):
        evolve_batch(PARAMS, initial_state(PARAMS).u, DRIVE, TABLE,
                     np.zeros((PARAMS.n_steps, 200)))


def test_the_noise_free_field_settles_on_a_solution_of_the_model():
    # At q = 0 the field is deterministic, and where it settles it solves
    # u = h + s + K g(beta u). One 5-row run of 4 000 steps on one zero noise
    # matrix: each row's residual is small, and the settled peak moves later
    # as the competitor's amplitude falls (no position is asserted).
    p = dataclasses.replace(PARAMS, q=0.0)
    target, mp = (votfield.default_config().input_by_label(k) for k in ("target", "mp"))
    amps = (0.0, -1.5, -3.0, -4.5, -6.0)
    drives = np.array([compose_inputs([dataclasses.replace(target, a=6.0),
                                       dataclasses.replace(mp, a=a)], 200) for a in amps])
    noise3 = np.broadcast_to(np.zeros((4000, 200)), (len(amps), 4000, 200))
    u = evolve_batch(p, initial_state(p).u, drives, TABLE, noise3).final
    residual = np.abs(p.h + drives + gate(p.beta * u) @ TABLE - u).max(axis=1)
    assert np.all(residual < 1e-5), residual
    assert np.all(np.diff(u.argmax(axis=1)) > 0), u.argmax(axis=1)
