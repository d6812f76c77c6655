"""Batch and sweep runners with deterministic per-trial seeding.

A batch runs n independent trials of one (a_target, a_mp) condition; each
trial's noise stream is seeded by a hash of (master_seed, trial_index) only,
so results are bit-reproducible regardless of worker count, chunking, or
execution order, and trial k of a batch is exactly reproducible on its own.
Sweeps run a batch per grid cell and share trial streams across cells (common
random numbers).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import backends
from .config import RunConfig, SweepRange, default_config
from .errors import ConfigError, IntegrationDivergedError
from .field import Trajectory, build_kernel, draw_noise, evolve, initial_state
from .readout import METHODS, TrialResult, readout_argmax, readout_centroid
from .stimulus import compose_inputs

# trials per kernel call; results do not depend on this
_CHUNK = 128

# named replication runs: canned amplitude grids and highlighted conditions
CONDITIONS_BBG2009 = {
    "no_competitor": 0.0,
    "pseudoword": -1.5,
    "no_context": -3.0,
    "context": -6.0,
}
_FIG6_RANGE = SweepRange(-6.0, 4.0, 0.5)
_FIG12_MP_RANGE = SweepRange(-6.0, 5.0, 0.5)
_FIG12_TARGET_RANGE = SweepRange(5.0, 10.0, 0.5)
_HIGHLIGHT_AMPS = (0.0, -3.0, -6.0)
REPLICATIONS = ("fig6", "fig7", "fig12", "conditions_bbg2009")


@dataclass(frozen=True)
class Condition:
    """Amplitudes of the target and competitor inputs; everything else comes
    from the run's base config."""

    a_target: float
    a_mp: float

    def __post_init__(self):
        for key in ("a_target", "a_mp"):
            val = getattr(self, key)
            if isinstance(val, bool) or not np.isfinite(val):
                raise ConfigError(f"{key} must be a finite number, got {val!r}")
            object.__setattr__(self, key, float(val))


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

    def baseline_mean_vot(self, a_target=None):
        """mean_vot of the zero-competitor cell at this a_target, if present
        (an empirical baseline to compare ch_ms against)."""
        if a_target is None:
            a_target = self.a_target_values[0]
        try:
            return self.cell(a_target, 0.0).mean_vot
        except KeyError:
            return None


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


def _resolved(config, condition, n_trials, master_seed, method):
    cfg = default_config() if config is None else config
    if condition is None:
        condition = Condition(a_target=cfg.input_by_label("target").a,
                              a_mp=cfg.input_by_label("mp").a)
    n = cfg.n_trials if n_trials is None else int(n_trials)
    if n < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n}")
    master = cfg.master_seed if master_seed is None else int(master_seed)
    meth = cfg.readout if method is None else method
    if meth not in METHODS:
        raise ConfigError(f"readout method must be one of {METHODS}, got {meth!r}")
    return cfg, condition, n, master, meth


def _condition_inputs(cfg, condition):
    inputs = []
    for inp in cfg.inputs:
        if inp.label == "target":
            inp = replace(inp, a=condition.a_target)
        elif inp.label == "mp":
            inp = replace(inp, a=condition.a_mp)
        inputs.append(inp)
    labels = [i.label for i in inputs]
    if "target" not in labels or "mp" not in labels:
        raise ConfigError("running conditions requires inputs labeled 'target' and 'mp', "
                          f"got {labels}")
    return tuple(inputs)


def run_trials(config=None, condition=None, n_trials=None, master_seed=None, method=None):
    """Run one condition's batch and return every TrialResult, in trial order."""
    cfg, condition, n, master, meth = _resolved(config, condition, n_trials, master_seed, method)
    params = cfg.field
    drive = compose_inputs(_condition_inputs(cfg, condition), params.field_size)
    kern = build_kernel(params)
    u0 = initial_state(params).u
    seeds = [trial_seed(master, i) for i in range(n)]
    results = []
    for start in range(0, n, _CHUNK):
        chunk = seeds[start:start + _CHUNK]
        noise3 = np.empty((len(chunk), params.n_steps, params.field_size))
        for j, seed in enumerate(chunk):
            noise3[j] = draw_noise(params, np.random.default_rng(seed))
        run = backends.evolve_batch(
            u0, drive, kern.weights, params.tau, params.h, params.beta,
            params.dt, params.q, noise3)
        for j, seed in enumerate(chunk):
            if run.diverged[j] >= 0:
                raise IntegrationDivergedError(step=int(run.diverged[j]), seed=seed)
            final = run.final[j]
            crossed = run.first_step[j] >= 0
            if meth == "argmax":
                vot = readout_argmax(final)
            elif meth == "centroid_above_threshold":
                vot = readout_centroid(final)
            else:
                vot = float(run.first_pos[j]) if crossed else None
            results.append(TrialResult(
                vot_target=vot,
                time_to_threshold=(int(run.first_step[j]) if crossed else None),
                stabilized=bool(np.any(final > 0.0)),
                readout_method=meth,
                seed=seed,
                final_u=final,
            ))
    return results


def aggregate_trials(trials, condition, p_target):
    """Reduce a batch's TrialResults to ConditionStats."""
    if not trials:
        raise ConfigError("cannot aggregate an empty batch")
    vots = np.asarray([r.vot_target for r in trials if r.vot_target is not None], dtype=float)
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
    ttts = [r.time_to_threshold for r in trials if r.time_to_threshold is not None]
    return ConditionStats(
        condition=condition,
        n_trials=len(trials),
        mean_vot=mean,
        sd_vot=sd,
        sem_vot=sem,
        skewness=skew,
        ch_ms=mean - p_target,
        frac_stabilized=sum(r.stabilized for r in trials) / len(trials),
        mean_time_to_threshold=(float(np.mean(ttts)) if ttts else None),
    )


def run_batch(config=None, condition=None, n_trials=None, master_seed=None, method=None):
    """Run one condition and aggregate: deterministic for fixed
    (condition, n_trials, master_seed) regardless of execution order."""
    cfg, condition, n, master, meth = _resolved(config, condition, n_trials, master_seed, method)
    trials = run_trials(cfg, condition, n, master, meth)
    return aggregate_trials(trials, condition, cfg.input_by_label("target").p)


def _as_range(rng_like):
    if isinstance(rng_like, SweepRange):
        return rng_like
    lo, hi, step = rng_like
    return SweepRange(lo, hi, step)


def _sweep(cfg, a_target_values, a_mp_values, n, master, meth):
    cells = []
    for a_t in a_target_values:
        for a_mp in a_mp_values:
            cells.append(run_batch(cfg, Condition(a_t, a_mp), n, master, meth))
    return SweepResult(
        a_target_values=tuple(a_target_values),
        a_mp_values=tuple(a_mp_values),
        cells=tuple(cells),
        master_seed=master,
        readout_method=meth,
        p_target=cfg.input_by_label("target").p,
        config=cfg,
    )


def sweep_1d(config=None, a_mp_range=None, n_trials=None, master_seed=None, method=None):
    """Sweep the competitor amplitude at the config's target amplitude."""
    cfg, _, n, master, meth = _resolved(config, Condition(0, 0), n_trials, master_seed, method)
    rng = cfg.sweep_a_mp if a_mp_range is None else _as_range(a_mp_range)
    a_target = cfg.input_by_label("target").a
    return _sweep(cfg, (a_target,), rng.values(), n, master, meth)


def sweep_2d(config=None, a_mp_range=None, a_target_range=None, n_trials=None,
             master_seed=None, method=None):
    """Sweep competitor and target amplitudes jointly."""
    cfg, _, n, master, meth = _resolved(config, Condition(0, 0), n_trials, master_seed, method)
    mp_rng = cfg.sweep_a_mp if a_mp_range is None else _as_range(a_mp_range)
    t_rng = cfg.sweep_a_target if a_target_range is None else _as_range(a_target_range)
    return _sweep(cfg, t_rng.values(), mp_rng.values(), n, master, meth)


def example_trajectory(config, condition, master_seed, trial_index=0):
    """Full trajectory of one batch trial (by default trial 0), bit-identical
    to that trial inside run_trials."""
    cfg = default_config() if config is None else config
    params = cfg.field
    drive = compose_inputs(_condition_inputs(cfg, condition), params.field_size)
    rng = np.random.default_rng(trial_seed(master_seed, trial_index))
    return evolve(initial_state(params), drive, params, rng, keep_states=True)


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
    """
    canonical = {"conditions": "conditions_bbg2009"}.get(name, name)
    if canonical not in REPLICATIONS:
        raise ConfigError(f"unknown replication {name!r}; expected one of "
                          f"{', '.join(REPLICATIONS)} (or 'conditions')")
    cfg, _, n, master, meth = _resolved(config, Condition(0, 0), n_trials, master_seed, method)
    a_target = cfg.input_by_label("target").a

    if canonical == "fig6":
        sweep = _sweep(cfg, (a_target,), _FIG6_RANGE.values(), n, master, meth)
        highlight = {f"amp{a:g}": a for a in _HIGHLIGHT_AMPS}
    elif canonical == "fig7":
        amps = tuple(sorted(_HIGHLIGHT_AMPS))
        sweep = _sweep(cfg, (a_target,), amps, n, master, meth)
        highlight = {f"amp{a:g}": a for a in _HIGHLIGHT_AMPS}
    elif canonical == "fig12":
        sweep = _sweep(cfg, _FIG12_TARGET_RANGE.values(), _FIG12_MP_RANGE.values(),
                       n, master, meth)
        highlight = {}
    else:
        amps = tuple(sorted(set(CONDITIONS_BBG2009.values())))
        sweep = _sweep(cfg, (a_target,), amps, n, master, meth)
        highlight = dict(CONDITIONS_BBG2009)

    trajectories = {}
    for tag, a_mp in highlight.items():
        trajectories[tag] = example_trajectory(cfg, Condition(a_target, a_mp), master)
    return ReplicationResult(name=canonical, sweep=sweep, trajectories=trajectories)
