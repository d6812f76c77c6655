"""The field evolution engine: one NumPy loop that advances a batch of trials.

Each Python-level step updates every row of a (..., n) batch at once; a
sweep passes a (cells, trials) tile whose rows share each trial's noise. The
gate and Euler update are elementwise and the lateral term is one dense
product of the rows with a fixed n x n table, so a trial's bits do not depend
on its batch's shape or its place in it as long as the BLAS matrix-matrix
kernel sums each output row in an order that does not depend on the row
count. OpenBLAS's did for every count tried from 2 to 512, at 1 or 2
threads; NumPy sends a single row to the matrix-vector kernel instead, which
rounds differently, so a single row is padded to two. tests/test_backends.py
pins this on every host it runs on.
"""

from typing import NamedTuple

import numpy as np


class Evolution(NamedTuple):
    """Per-row results of `evolve_batch`, with the batch's leading axes (...);
    a step or position is -1 when the row never crossed threshold (first_*)
    or stayed finite (diverged)."""

    final: np.ndarray       # (..., n) last field
    max_u: np.ndarray       # (..., T+1) max activation per step
    n_above: np.ndarray     # (..., T+1) neurons with u > 0 per step
    first_step: np.ndarray  # (...) first step with some u > 0
    first_pos: np.ndarray   # (...) lowest such neuron at that step
    diverged: np.ndarray    # (...) first step whose field is not finite
    states: np.ndarray | None  # (..., T+1, n) every field, if requested


def gate(z):
    """Logistic 1 / (1 + exp(-z)), written as 0.5 * (1 + tanh(z / 2)) so that
    it needs no branch, cannot overflow and saturates at exactly 0 and 1."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


def convolver(weights):
    """Return lat(g): lat(g)[..., i] = sum_j weights[i - j + n - 1] * g[..., j].

    A linear convolution with zero outside the grid, computed as the product
    of the rows of g, reshaped to (-1, n), with the n x n Toeplitz table
    K[j, i] = weights[i - j + n - 1], which is built once here. A one-row
    batch is multiplied as two rows, so that NumPy never hands it to gemv.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = (w.shape[0] + 1) // 2
    idx = np.arange(n)
    table = w[idx[None, :] - idx[:, None] + n - 1]

    def lat(g):
        rows = np.reshape(g, (-1, n))
        if rows.shape[0] == 1:
            return (np.concatenate((rows, rows)) @ table)[:1].reshape(np.shape(g))
        return (rows @ table).reshape(np.shape(g))

    return lat


def evolve_batch(u0, drive, weights, tau, h, beta, dt, q, noise3, keep_states=False):
    """Euler-integrate a batch of independent trials into an `Evolution`.

    `noise3` is (..., T, n) with any leading batch shape; `u0` and `drive`
    broadcast to (..., n). Each row takes T steps of
    u += (dt/tau) * (-u + h + drive + lat(gate(beta*u)) + q*xi); a row that
    stops being finite is flagged in `diverged` while the rest go on.
    """
    noise3 = np.asarray(noise3, dtype=np.float64)
    lead, (n_steps, n) = noise3.shape[:-2], noise3.shape[-2:]
    drive = np.asarray(drive, dtype=np.float64)
    lat = convolver(weights)
    r = dt / tau
    u = np.array(np.broadcast_to(np.asarray(u0, dtype=np.float64), lead + (n,)))
    max_u = np.empty(lead + (n_steps + 1,))
    n_above = np.empty(lead + (n_steps + 1,), np.int64)
    first_step, first_pos, diverged = np.full((3,) + lead, -1, np.int64)
    states = np.empty(lead + (n_steps + 1, n)) if keep_states else None

    def record(t, u):
        max_u[..., t] = u.max(axis=-1)
        above = u > 0.0
        n_above[..., t] = above.sum(axis=-1)
        new = (first_step < 0) & (n_above[..., t] > 0)
        if new.any():
            first_step[new] = t
            first_pos[new] = np.argmax(above[new], axis=-1)
        if t:  # steps count updates, so the first one is 1
            diverged[(diverged < 0) & ~np.isfinite(u).all(axis=-1)] = t
        if states is not None:
            states[..., t, :] = u

    record(0, u)
    # rows that diverged go on as inf/nan without touching the others
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_steps):
            u = u + r * (-u + h + drive + lat(gate(beta * u)) + q * noise3[..., t, :])
            record(t + 1, u)
    return Evolution(u, max_u, n_above, first_step, first_pos, diverged, states)
