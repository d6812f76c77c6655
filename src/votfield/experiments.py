"""Batch and sweep runners with deterministic per-trial seeding.

A batch runs n independent trials of one (a_target, a_mp) condition; each
trial's noise stream is seeded by a hash of (master_seed, trial_index) only,
so results are bit-reproducible regardless of process count, tiling, or
execution order, and trial k of a batch is exactly reproducible on its own.
Sweeps share trial streams across cells (common random numbers): each
(cells, trials) tile draws its trials' noise block of steps by block and
runs every cell of the tile on it through the engine. A batch is the
one-cell case of a sweep. Where the host allows, a forked child (`_forked`,
through which the export forks too) runs every second tile and writes its
rows into arrays shared with the calling process (`_run_cells`).
"""

import contextlib
import ctypes
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import backends
from .config import RunConfig, SweepRange, default_config
from .errors import ConfigError, IntegrationDivergedError
from .field import (_finite, _smoother, build_kernel, draw_noise, initial_state,
                    trajectories)
from .readout import readout_rows, row_result
from .stimulus import compose_inputs

# rows per engine tile, and steps per block of a tile's noise (at least 3,
# so that `_parts` never makes a one-row block); results depend on neither
_CHUNK = 128
_BLOCK = 10

# named replication runs: canned amplitude grids and highlighted conditions
CONDITIONS_BBG2009 = {
    "no_competitor": 0.0,
    "pseudoword": -1.5,
    "no_context": -3.0,
    "context": -6.0,
}
_HIGHLIGHTS = {f"amp{a:g}": a for a in (0.0, -3.0, -6.0)}
# name -> (a_target grid, or None for the config's target amplitude; a_mp grid;
#          a_mp of each highlighted condition by tag, run as an example trajectory)
_PRESETS = {
    "fig6": (None, SweepRange(-6.0, 4.0, 0.5).values(), _HIGHLIGHTS),
    "fig7": (None, tuple(sorted(_HIGHLIGHTS.values())), _HIGHLIGHTS),
    "fig12": (SweepRange(5.0, 10.0, 0.5).values(), SweepRange(-6.0, 5.0, 0.5).values(), {}),
    "conditions_bbg2009": (None, tuple(sorted(CONDITIONS_BBG2009.values())),
                           CONDITIONS_BBG2009),
}
REPLICATIONS = tuple(_PRESETS)
REPLICATION_ALIASES = {"conditions": "conditions_bbg2009"}


@dataclass(frozen=True)
class Condition:
    """Amplitudes of the target and competitor inputs; everything else comes
    from the run's base config."""

    a_target: float
    a_mp: float

    def __post_init__(self):
        for key in ("a_target", "a_mp"):
            object.__setattr__(self, key, _finite(key, getattr(self, key)))


@dataclass(frozen=True)
class ConditionStats:
    """Aggregates over one condition's batch.

    Statistics cover the trials whose readout produced a value (under argmax
    that is all of them; under the other methods non-stabilized trials are
    excluded — their share shows up in frac_stabilized). Skewness is the
    adjusted Fisher-Pearson sample coefficient, NaN when undefined.
    ch_ms is mean_vot minus the target-input center.
    """

    condition: Condition
    n_trials: int
    mean_vot: float
    sd_vot: float
    sem_vot: float
    skewness: float
    ch_ms: float
    frac_stabilized: float
    mean_time_to_threshold: float | None


@dataclass(eq=False)
class SweepResult:
    """Grid of ConditionStats (a_target outer, a_mp inner, both ascending)
    plus everything needed to reproduce it."""

    a_target_values: tuple
    a_mp_values: tuple
    cells: tuple
    master_seed: int
    readout_method: str
    p_target: float
    config: RunConfig

    def cell(self, a_target, a_mp):
        for c in self.cells:
            if c.condition.a_target == a_target and c.condition.a_mp == a_mp:
                return c
        raise KeyError(f"no cell at a_target={a_target}, a_mp={a_mp}")


@dataclass(eq=False)
class ReplicationResult:
    """A named canned run: its sweep plus one example trajectory (trial 0)
    per highlighted condition, keyed by a filesystem-safe tag."""

    name: str
    sweep: SweepResult
    trajectories: dict


def trial_seed(master_seed, trial_index):
    """Derive the integer seed of one trial from (master_seed, trial_index).

    The value is a stable 64-bit hash; feeding it to
    numpy.random.default_rng reproduces the trial's noise stream exactly.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(trial_index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _resolved(config, n_trials, master_seed, method):
    """The run's config with the given overrides applied; RunConfig checks
    them as it checks a config file."""
    cfg = default_config() if config is None else config
    overrides = {"n_trials": n_trials, "master_seed": master_seed, "readout": method}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _default_condition(cfg):
    return Condition(cfg.input_by_label("target").a, cfg.input_by_label("mp").a)


def _condition_inputs(cfg, condition):
    """The config's inputs with the condition's amplitudes on "target" and "mp"."""
    target, mp = cfg.input_by_label("target"), cfg.input_by_label("mp")
    return tuple(replace(inp, a=condition.a_target) if inp is target
                 else replace(inp, a=condition.a_mp) if inp is mp else inp
                 for inp in cfg.inputs)


def _can_fork():
    """Whether a run may hand part of its work to one forked child: on Linux
    with two cores this process may run on, and with no other Python thread
    alive, since a fork copies only the calling thread."""
    return (sys.platform == "linux" and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) >= 2)


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheel bundles, or None under another BLAS (the symbols are private to the
    wheel's scipy-openblas build)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _parts(n, size):
    """0..n-1 as ceil(n / size) consecutive slices whose lengths differ by at
    most one; with size >= 3, no part of an n >= 2 is a single index."""
    k = -(-n // size)
    edges = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _tiles(n_cells, n_trials):
    """The (cells, trials) slices of a run's engine tiles, of at most _CHUNK
    rows, in trial order: the cells in groups of at most _CHUNK, and as many
    trials of each group as fit beside the largest, in at least two tiles
    for the two processes."""
    groups = _parts(n_cells, _CHUNK)
    per = min(_CHUNK // max(g.stop - g.start for g in groups), -(-n_trials // 2))
    return [(cells, trials) for trials in _parts(n_trials, per) for cells in groups]


def _shared(shape, dtype):
    """A zeroed array over its own anonymous shared map, which goes with it:
    what a forked child writes to it, this process reads."""
    import mmap  # on first use: nothing needs it at start-up

    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize),
                         dtype).reshape(shape)


@contextlib.contextmanager
def _forked(work):
    """Fork a child that runs `work(report)`: `report` sends each result the
    child finishes, an integer, as 8 bytes through a pipe, and the child
    always exits with status 0, skipping the caller's cleanup. The block
    gets an iterator over the reports up to where the child stopped, or None
    where no pipe or process could be made. Leaving the block kills the
    child if the block raised, reaps it and closes the pipe. The child
    stalls while 8192 reports (64 KiB) lie unread."""
    fds = ()
    try:
        fds = read, write = os.pipe()
        pid = os.fork()
    except OSError:  # no pipe or process to spare
        pid = None
    if pid is None:
        for fd in fds:
            os.close(fd)
        yield None
        return
    if pid == 0:  # never returns
        try:
            os.close(read)
            work(lambda value: os.write(write, value.to_bytes(8, sys.byteorder)))
        finally:  # an error stops the child; the calling process meets it again
            os._exit(0)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:  # a read short of 8 bytes is the end
            yield (int.from_bytes(value, sys.byteorder)
                   for value in iter(functools.partial(pipe.read, 8), b"") if len(value) == 8)
    except BaseException:  # the block raised: stop the child
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def _run_cells(cfg, conditions, keep_final=False):
    """Run trials 0..n_trials-1 of every condition, tile by tile (`_tiles`).

    Each tile seeds its trials' generators and draws their noise one block
    of steps (`_parts(n_steps, _BLOCK)`) at a time, just before the engine
    runs that block on every cell of the tile (common random numbers), so a
    tile holds at most _CHUNK x _BLOCK rows of noise. A group of cells
    redraws its trial's noise. Returns the trial seeds and per-cell (C, n)
    arrays of `readout_rows`, plus (C, n, field_size) final fields when
    `keep_final` is set.

    The tiles write their rows, and each row's divergence step, into shared
    arrays (`_shared`). Where `_can_fork` and `_blas_threads` allow, with the
    BLAS held at one thread, a forked child (`_forked`) runs every second
    tile and reports each one it finishes; this process runs the others and,
    with the BLAS count restored, every tile not reported, so a child that
    dies or raises leaves the serial path's results and errors. A row's bits
    depend on neither its tile nor its process.

    The lowest diverging cell's first diverging trial is raised as an
    IntegrationDivergedError. Each process skips the cells above the lowest
    one that diverged in it.
    """
    params, n, master = cfg.field, cfg.n_trials, cfg.master_seed
    drives = np.array([compose_inputs(_condition_inputs(cfg, c), params.field_size)
                       for c in conditions])
    table = backends.toeplitz(build_kernel(params).weights)  # once per run
    if params.noise_smooth_sigma > 0:  # draw_noise's cached table, built once for both processes
        _smoother(params.noise_smooth_sigma, params.field_size)
    u0 = initial_state(params).u
    blocks = _parts(params.n_steps, _BLOCK)
    n_cells = len(conditions)
    seeds = [trial_seed(master, i) for i in range(n)]
    tiles = _tiles(n_cells, n)
    vot, ttt, diverged, stab = (_shared((n_cells, n), dtype)
                                for dtype in (np.float64, np.int64, np.int64, bool))
    final = _shared((n_cells, n, params.field_size), np.float64) if keep_final else None
    diverged[:] = -1

    def run_tile(cells, trials):
        """Run the tile block by block and write its rows; returns the cell
        after its lowest diverging one, or n_cells."""
        rngs = [np.random.default_rng(seed) for seed in seeds[trials]]
        # Room for _CHUNK trials whatever the tile's count; only its own rows
        # are touched. Freeing the first such buffer lifts glibc's mmap and
        # trim thresholds above the engine's per-call buffers (200 kB at 126
        # rows), which otherwise went back to the system and came back as
        # page faults (the 500-trial fig6 sweep: 15k instead of 7k).
        noise = np.empty((_CHUNK, _BLOCK, params.field_size))
        run = None
        for steps in blocks:
            block = noise[:len(rngs), :steps.stop - steps.start]
            for rng, rows in zip(rngs, block):
                draw_noise(params, rng, out=rows)
            run = backends.evolve_batch(
                params, u0, drives[cells, None], table,
                np.broadcast_to(block, (cells.stop - cells.start,) + block.shape),
                carry=run, t0=steps.start)
        diverged[cells, trials] = run.diverged
        bad = np.flatnonzero((run.diverged >= 0).any(axis=1))
        if bad.size:  # a run with a diverging row raises; it needs no readout
            return cells.start + int(bad[0]) + 1
        vot[cells, trials], ttt[cells, trials], stab[cells, trials] = readout_rows(
            run.final, run.first_step, run.first_pos, cfg.readout)
        if final is not None:
            final[cells, trials] = run.final
        return n_cells

    stop = n_cells  # cells from here on cannot be reported: one below diverged here

    def run_tiles(indices, report=lambda i: None):
        nonlocal stop
        for i in indices:
            cells, trials = tiles[i]
            if cells.start < stop:
                stop = min(stop, run_tile(slice(cells.start, min(cells.stop, stop)), trials))
            report(i)

    blas = _blas_threads() if len(tiles) > 1 and _can_fork() else None
    if blas is not None:
        get, put = blas
        old = get()
        put(1)
    done = set()
    try:
        with (_forked(functools.partial(run_tiles, range(1, len(tiles), 2)))
              if blas is not None else contextlib.nullcontext()) as reports:
            if reports is not None:  # the other tiles here, then the child's reports
                run_tiles(range(0, len(tiles), 2))
                done = {*range(0, len(tiles), 2), *reports}
    finally:
        if blas is not None:
            put(old)
    # every tile not run yet (all of them without a child) at the BLAS's own count
    run_tiles([i for i in range(len(tiles)) if i not in done])
    bad = np.argwhere(diverged >= 0)
    if bad.size:  # the lowest diverging cell's first diverging trial
        cell, trial = bad[0]
        raise IntegrationDivergedError(step=int(diverged[cell, trial]), seed=seeds[trial])
    # copies, so that the maps go with this call
    return seeds, vot.copy(), ttt.copy(), stab.copy(), None if final is None else final.copy()


def run_trials(config=None, condition=None, n_trials=None, master_seed=None, method=None):
    """Run one condition's batch and return every TrialResult, in trial order."""
    cfg = _resolved(config, n_trials, master_seed, method)
    condition = _default_condition(cfg) if condition is None else condition
    seeds, vot, ttt, stab, final = _run_cells(cfg, [condition], keep_final=True)
    return [row_result(vot[0, i], ttt[0, i], stab[0, i], cfg.readout, seed=seeds[i],
                       final_u=final[0, i]) for i in range(cfg.n_trials)]


def _aggregate(condition, vot, ttt, stab, p_target):
    """ConditionStats of one cell from its per-trial readout arrays (vot NaN
    and ttt -1 where absent)."""
    n = len(vot)
    vots = vot[~np.isnan(vot)]
    n_used = vots.size
    mean = float(vots.mean()) if n_used else math.nan
    sd = float(vots.std(ddof=1)) if n_used >= 2 else math.nan
    sem = sd / math.sqrt(n_used) if n_used >= 2 else math.nan
    if n_used >= 3 and vots.std() > 0:
        # adjusted Fisher-Pearson coefficient, in scipy.stats.skew's order of operations
        dev = vots - vots.mean()
        m2, m3 = np.mean(dev * dev), np.mean(dev * dev * dev)
        skew = float(((n_used - 1.0) * n_used) ** 0.5 / (n_used - 2.0) * m3 / m2 ** 1.5)
    else:
        skew = math.nan
    ttts = ttt[ttt >= 0]
    return ConditionStats(
        condition=condition,
        n_trials=n,
        mean_vot=mean,
        sd_vot=sd,
        sem_vot=sem,
        skewness=skew,
        ch_ms=mean - p_target,
        frac_stabilized=int(np.count_nonzero(stab)) / n,
        mean_time_to_threshold=(float(np.mean(ttts)) if ttts.size else None),
    )


def run_batch(config=None, condition=None, n_trials=None, master_seed=None, method=None):
    """Run one condition and aggregate: deterministic for fixed
    (condition, n_trials, master_seed) regardless of execution order."""
    cfg = _resolved(config, n_trials, master_seed, method)
    condition = _default_condition(cfg) if condition is None else condition
    return _sweep(cfg, (condition.a_target,), (condition.a_mp,)).cells[0]


def _as_range(rng):
    return rng if isinstance(rng, SweepRange) else SweepRange(*rng)


def _sweep(cfg, a_target_values, a_mp_values):
    """Run the (a_target x a_mp) grid under a resolved config."""
    conditions = [Condition(a_t, a_mp) for a_t in a_target_values for a_mp in a_mp_values]
    _, vot, ttt, stab, _ = _run_cells(cfg, conditions)
    p_target = cfg.input_by_label("target").p
    return SweepResult(
        a_target_values=tuple(a_target_values),
        a_mp_values=tuple(a_mp_values),
        cells=tuple(_aggregate(c, vot[i], ttt[i], stab[i], p_target)
                    for i, c in enumerate(conditions)),
        master_seed=cfg.master_seed,
        readout_method=cfg.readout,
        p_target=p_target,
        config=cfg,
    )


def sweep_1d(config=None, a_mp_range=None, n_trials=None, master_seed=None, method=None):
    """Sweep the competitor amplitude at the config's target amplitude."""
    cfg = _resolved(config, n_trials, master_seed, method)
    rng = cfg.sweep_a_mp if a_mp_range is None else _as_range(a_mp_range)
    return _sweep(cfg, (cfg.input_by_label("target").a,), rng.values())


def sweep_2d(config=None, a_mp_range=None, a_target_range=None, n_trials=None,
             master_seed=None, method=None):
    """Sweep competitor and target amplitudes jointly."""
    cfg = _resolved(config, n_trials, master_seed, method)
    mp_rng = cfg.sweep_a_mp if a_mp_range is None else _as_range(a_mp_range)
    t_rng = cfg.sweep_a_target if a_target_range is None else _as_range(a_target_range)
    return _sweep(cfg, t_rng.values(), mp_rng.values())


def example_trajectory(config, condition, master_seed, trial_index=0):
    """Full trajectory of one batch trial (by default trial 0), bit-identical
    to that trial inside run_trials."""
    return _example_trajectories(config, [condition], master_seed, trial_index)[0]


def _example_trajectories(config, conditions, master_seed, trial_index=0):
    """`example_trajectory` of each condition, run as one engine batch of a
    row per condition on the trial's noise; the first diverging condition
    raises IntegrationDivergedError (with its step and the trial's seed)."""
    if not conditions:
        return []
    cfg = default_config() if config is None else config
    params = cfg.field
    drives = np.array([compose_inputs(_condition_inputs(cfg, c), params.field_size)
                       for c in conditions])
    seed = trial_seed(master_seed, trial_index)
    noise = draw_noise(params, np.random.default_rng(seed))
    return trajectories(params, initial_state(params).u, drives, noise, seed)


def replicate_named(name, master_seed=None, config=None, n_trials=None, method=None):
    """Run one of the canned experiment campaigns.

    fig6   — 21-point competitor-amplitude sweep (-6 .. 4 by 0.5) plus example
             trajectories at a_mp = 0, -3, -6
    fig7   — just the three highlighted conditions with example trajectories
    fig12  — full 2-D sweep (a_mp -6 .. 5, a_target 5 .. 10, both by 0.5)
    conditions_bbg2009 ("conditions") — the four named competitor conditions
             {no_competitor: 0, pseudoword: -1.5, no_context: -3, context: -6}

    The grids are canned; the config contributes field parameters, trial
    count, seed, and readout defaults. Example trajectories are trial 0 of
    the respective condition's batch.

    Every grid and amplitude here is this repository's choice, the
    CONDITIONS_BBG2009 amplitudes and the highlighted 0, -3 and -6 included.
    The names point at the paper's figures, but no value was checked against
    them: the repository holds only the paper's abstract (PAPER.md).
    """
    canonical = REPLICATION_ALIASES.get(name, name)
    if canonical not in _PRESETS:
        raise ConfigError(f"unknown replication {name!r}; expected one of "
                          f"{', '.join(REPLICATIONS)} "
                          f"(or {', '.join(map(repr, REPLICATION_ALIASES))})")
    cfg = _resolved(config, n_trials, master_seed, method)
    a_target = cfg.input_by_label("target").a
    a_target_values, a_mp_values, highlight = _PRESETS[canonical]
    sweep = _sweep(cfg, a_target_values or (a_target,), a_mp_values)
    examples = _example_trajectories(
        cfg, [Condition(a_target, a_mp) for a_mp in highlight.values()], cfg.master_seed)
    return ReplicationResult(name=canonical, sweep=sweep,
                             trajectories=dict(zip(highlight, examples)))
