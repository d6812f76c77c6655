"""The field evolution engine: one NumPy loop that advances a batch of trials.

`evolve_batch` takes the run's `FieldParams`, the n x n `toeplitz` table of
its kernel and the trials' noise. Each Python-level step updates every row
of a (..., n) batch at once; a sweep passes a (cells, trials) tile whose rows
share each trial's noise. The gate and Euler update are elementwise and the
lateral term is one dense product of the rows with the table, so a trial's
bits do not depend on its batch's shape or its place in it as long as the
BLAS matrix-matrix kernel sums each output row in an order that does not
depend on the row count. OpenBLAS's did for every count tried from 2 to
512, at 1 or 2 threads; NumPy sends a single row to the matrix-vector kernel
instead, which rounds differently, so a single row is padded to two.
tests/test_backends.py pins this on every host it runs on. The noise
smoothing multiplies by a `toeplitz` table too (`field.draw_noise`), but on
each trial's noise alone, so those bits do not depend on the batch either.

The step runs in place on three C-ordered buffers allocated once per call
(the state, the gate, which then takes the bracket, and the lateral product),
in the literal update's order of operations, so it gives the literal update's
bits.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


class Evolution(NamedTuple):
    """Per-row results of `evolve_batch`, with the batch's leading axes (...);
    a step or position is -1 when the row never crossed threshold (first_*)
    or stayed finite (diverged)."""

    final: np.ndarray       # (..., n) last field, C-ordered
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
    return np.lib.stride_tricks.sliding_window_view(w, n)[::-1].copy()


def evolve_batch(params, u0, drive, table, noise3, keep_states=False, carry=None, t0=0):
    """Euler-integrate a batch of independent trials into an `Evolution`.

    `noise3` is (..., T, n) with at least one leading axis; `u0` and `drive`
    broadcast to (..., n); `table` is the (n, n) `toeplitz` table of the
    kernel, which a caller that runs many batches builds once. Each row
    takes T steps of
    u += (dt/tau) * (-u + h + drive + lat(gate(beta*u)) + q*xi), with tau, h,
    beta, dt and q read from the `FieldParams`; a row that stops being finite
    is flagged in `diverged` while the rest go on.

    A run can go block of steps by block: `carry`, the `Evolution` of the
    same rows' steps before `t0`, gives the field to go on from (instead of
    `u0`) and the crossings and divergences found so far; its arrays are
    updated in place. Steps are numbered from `t0`, so the blocks' bits and
    step numbers are those of one call over all the steps. `states` holds
    this call's fields, from the one at step `t0` on.
    """
    noise3 = np.asarray(noise3, dtype=np.float64)
    if noise3.ndim < 3:
        raise ConfigError(f"noise3 must have a leading batch axis, got shape {noise3.shape}")
    lead, (n_steps, n) = noise3.shape[:-2], noise3.shape[-2:]
    shape = lead + (n,)
    drive = np.asarray(drive, dtype=np.float64)
    h, beta, q = params.h, params.beta, params.q
    r = params.dt / params.tau
    rows = math.prod(lead)
    # the gate and its product with the table, with one row padded to two
    gated = np.zeros((max(rows, 2), n))
    lateral = np.empty_like(gated)
    g, lat = gated[:rows].reshape(shape), lateral[:rows].reshape(shape)
    if carry is None:
        # a C-ordered state: a copy of a broadcast u0 would be Fortran-ordered
        # and every op mixing it with the C-ordered terms would run strided
        u = np.empty(shape)
        u[...] = u0
        first_step, first_pos, diverged = np.full((3,) + lead, -1, np.int64)
    else:
        u, first_step, first_pos, diverged = carry[:4]
    states = np.empty(lead + (n_steps + 1, n)) if keep_states else None
    waiting = bool((first_step < 0).any())  # some row has not crossed yet

    def record(t):
        nonlocal waiting
        if states is not None:
            states[..., t - t0, :] = u
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

    # rows that diverged go on as inf/nan without touching the others
    with np.errstate(over="ignore", invalid="ignore"):
        record(t0)
        for k in range(n_steps):
            np.multiply(beta, u, out=g)  # gate(beta * u), as `gate` computes it
            np.multiply(0.5, g, out=g)
            np.tanh(g, out=g)
            np.add(1.0, g, out=g)
            np.multiply(0.5, g, out=g)
            np.matmul(gated, table, out=lateral)
            # the bracket in the gate's place, which the product has read
            np.subtract(h, u, out=g)  # -u + h, bit for bit
            g += drive
            g += lat
            if q == 1.0:  # q * xi is xi, bit for bit
                g += noise3[..., k, :]
            else:
                np.multiply(q, noise3[..., k, :], out=lat)  # in the spent product's place
                g += lat
            np.multiply(r, g, out=g)
            u += g
            record(t0 + k + 1)
    return Evolution(u, first_step, first_pos, diverged, states)
