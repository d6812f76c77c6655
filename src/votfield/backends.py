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

The step runs in place on C-ordered buffers allocated once per call, in the
literal update's order of operations, so it gives the literal update's bits.
"""

import math
from typing import NamedTuple

import numpy as np


class Evolution(NamedTuple):
    """Per-row results of `evolve_batch`, with the batch's leading axes (...);
    a step or position is -1 when the row never crossed threshold (first_*)
    or stayed finite (diverged). The per-step summaries are read off the
    states, so they are None when the states are not kept."""

    final: np.ndarray       # (..., n) last field, C-ordered
    max_u: np.ndarray | None    # (..., T+1) max activation per step
    n_above: np.ndarray | None  # (..., T+1) neurons with u > 0 per step
    first_step: np.ndarray  # (...) first step with some u > 0
    first_pos: np.ndarray   # (...) lowest such neuron at that step
    diverged: np.ndarray    # (...) first step whose field is not finite
    states: np.ndarray | None  # (..., T+1, n) every field, if requested


def gate(z):
    """Logistic 1 / (1 + exp(-z)), written as 0.5 * (1 + tanh(z / 2)) so that
    it needs no branch, cannot overflow and saturates at exactly 0 and 1."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


def toeplitz(weights):
    """The n x n table K[j, i] = weights[i - j + n - 1] of (2n - 1,) kernel
    weights: g @ K is the linear convolution of g with the weights, with zero
    outside the grid."""
    w = np.asarray(weights, dtype=np.float64)
    n = (w.shape[0] + 1) // 2
    idx = np.arange(n)
    return w[idx[None, :] - idx[:, None] + n - 1]


def convolver(weights):
    """Return lat(g): lat(g)[..., i] = sum_j weights[i - j + n - 1] * g[..., j].

    The product of the rows of g, reshaped to (-1, n), with the `toeplitz`
    table of the weights, which is built once here. A one-row batch is
    multiplied as two rows, so that NumPy never hands it to gemv.
    """
    table = toeplitz(weights)
    n = table.shape[0]

    def lat(g):
        rows = np.reshape(g, (-1, n))
        if rows.shape[0] == 1:
            return (np.concatenate((rows, rows)) @ table)[:1].reshape(np.shape(g))
        return (rows @ table).reshape(np.shape(g))

    return lat


def evolve_batch(u0, drive, weights, tau, h, beta, dt, q, noise3, keep_states=False):
    """Euler-integrate a batch of independent trials into an `Evolution`.

    `noise3` is (..., T, n) with any leading batch shape; `u0` and `drive`
    broadcast to (..., n). `weights` is the (2n - 1,) kernel or its (n, n)
    `toeplitz` table, which a caller that runs many batches builds once.
    Each row takes T steps of
    u += (dt/tau) * (-u + h + drive + lat(gate(beta*u)) + q*xi); a row that
    stops being finite is flagged in `diverged` while the rest go on.
    `max_u` and `n_above` come with the states, under `keep_states`.
    """
    noise3 = np.asarray(noise3, dtype=np.float64)
    lead, (n_steps, n) = noise3.shape[:-2], noise3.shape[-2:]
    shape = lead + (n,)
    drive = np.asarray(drive, dtype=np.float64)
    table = np.asarray(weights, dtype=np.float64)
    if table.ndim == 1:
        table = toeplitz(table)
    r = dt / tau
    rows = math.prod(lead)
    # the gate and its product with the table, with one row padded to two
    gated = np.zeros((max(rows, 2), n))
    lateral = np.empty_like(gated)
    g, lat = gated[:rows].reshape(shape), lateral[:rows].reshape(shape)
    # a C-ordered state: a copy of a broadcast u0 would be Fortran-ordered
    # and every op mixing it with the C-ordered terms would run strided
    u = np.empty(shape)
    u[...] = u0
    bracket = np.empty(shape)
    first_step, first_pos, diverged = np.full((3,) + lead, -1, np.int64)
    states = np.empty(lead + (n_steps + 1, n)) if keep_states else None
    waiting = True  # some row has not crossed yet

    def record(t):
        nonlocal waiting
        if states is not None:
            states[..., t, :] = u
        if waiting:
            above = u > 0.0
            new = (first_step < 0) & above.any(axis=-1)
            if new.any():
                first_step[new] = t
                first_pos[new] = np.argmax(above[new], axis=-1)
                waiting = bool((first_step < 0).any())
        # steps count updates, so the first one is 1; any nan or inf makes
        # the tile's sum non-finite, but so can finite rows near the largest
        # float, so the rows are checked one by one then
        if t and not np.isfinite(u.sum()):
            diverged[(diverged < 0) & ~np.isfinite(u).all(axis=-1)] = t

    record(0)
    # rows that diverged go on as inf/nan without touching the others
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_steps):
            np.multiply(beta, u, out=g)  # gate(beta * u), as `gate` computes it
            np.multiply(0.5, g, out=g)
            np.tanh(g, out=g)
            np.add(1.0, g, out=g)
            np.multiply(0.5, g, out=g)
            np.matmul(gated, table, out=lateral)
            np.negative(u, out=bracket)
            bracket += h
            bracket += drive
            bracket += lat
            if q == 1.0:  # q * xi is xi, bit for bit
                bracket += noise3[..., t, :]
            else:
                np.multiply(q, noise3[..., t, :], out=lat)  # in the spent product's place
                bracket += lat
            np.multiply(r, bracket, out=bracket)
            u += bracket
            record(t + 1)
    max_u = n_above = None
    if states is not None:
        max_u = states.max(axis=-1)
        n_above = np.count_nonzero(states > 0.0, axis=-1)
    return Evolution(u, max_u, n_above, first_step, first_pos, diverged, states)
