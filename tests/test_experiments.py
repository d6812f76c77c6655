"""Batches, sweeps, the seeding scheme, and named replication campaigns."""

import dataclasses
import errno
import gc
import math
import os
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats as sp_stats

from votfield import backends, experiments, field
from votfield import (CONDITIONS_BBG2009, Condition, ConfigError,
                      IntegrationDivergedError, default_config, draw_noise,
                      example_trajectory, replicate_named, run_batch,
                      run_trials, sweep_1d, sweep_2d, trial_metrics,
                      trial_seed)


def test_trial_seed_is_a_stable_pure_function():
    assert trial_seed(1, 0) == trial_seed(1, 0)
    assert trial_seed(2, 0) != trial_seed(1, 0)
    assert trial_seed(1, 1) != trial_seed(1, 0)
    seeds = {trial_seed(1, i) for i in range(500)}
    assert len(seeds) == 500  # injective in practice
    assert all(isinstance(s, int) and s >= 0 for s in list(seeds)[:5])


def test_run_trials_deterministic_and_in_trial_order():
    a = run_trials(condition=Condition(6.0, -3.0), n_trials=10, master_seed=7)
    b = run_trials(condition=Condition(6.0, -3.0), n_trials=10, master_seed=7)
    assert [r.seed for r in a] == [trial_seed(7, i) for i in range(10)]
    assert [r.seed for r in a] == [r.seed for r in b]
    assert [r.vot_target for r in a] == [r.vot_target for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.final_u, rb.final_u)
        assert ra.readout_method == "argmax"


def test_trial_prefix_independent_of_batch_size():
    few = run_trials(n_trials=5, master_seed=3)
    many = run_trials(n_trials=9, master_seed=3)
    for rf, rm in zip(few, many):
        assert rf.seed == rm.seed
        assert np.array_equal(rf.final_u, rm.final_u)  # per-trial noise streams


def test_sweep_rows_independent_of_chunk_size(monkeypatch):
    # Every sweep cell equals its own run_batch, whatever the (cells x trials)
    # tiles. 130 trials of the 5 cells run as one trial of one cell per tile
    # at _CHUNK 1, one trial of every cell at 7, or 21-22 trials at 128, and
    # 3 trials at 7 as three tiles of one trial; each reference batch of 130
    # is two tiles of 65 trials.
    amps = (-6.0, -3.5, -1.0, 1.5, 4.0)

    def cells(chunk, n):
        monkeypatch.setattr(experiments, "_CHUNK", chunk)
        res = sweep_1d(a_mp_range=(-6.0, 4.0, 2.5), n_trials=n, master_seed=2)
        assert res.a_mp_values == amps
        return [dataclasses.astuple(c) for c in res.cells]

    for n, chunks in ((130, (1, 7, 128)), (3, (7,))):
        monkeypatch.setattr(experiments, "_CHUNK", 128)
        ref = [dataclasses.astuple(run_batch(condition=Condition(6.0, a), n_trials=n,
                                             master_seed=2)) for a in amps]
        for chunk in chunks:
            np.testing.assert_equal(cells(chunk, n), ref, err_msg=f"_CHUNK={chunk}")


def test_sweep_cells_keep_their_results_when_split_into_groups(monkeypatch):
    # 21 cells at _CHUNK 5, 7 or 20 run one trial of each group of 4-5, 7 or
    # 10-11 cells per tile, each group redrawing the trial's noise
    def cells(chunk):
        monkeypatch.setattr(experiments, "_CHUNK", chunk)
        return [dataclasses.astuple(c) for c in sweep_1d(n_trials=6, master_seed=5).cells]

    ref = cells(128)
    for chunk in (5, 7, 20):
        np.testing.assert_equal(cells(chunk), ref, err_msg=f"_CHUNK={chunk}")


@pytest.mark.parametrize("n_cells", [1, 2, 3, 4, 21, 64, 127, 128, 129, 200, 231, 256, 257,
                                     400])
def test_tiles_are_whole_trials_of_cell_groups_of_at_most_a_chunk(n_cells):
    # the tiles of the rule with a branch for more cells than _CHUNK: one
    # trial of each group of cells there, else some trials of every cell
    chunk = experiments._CHUNK
    for n_trials in (1, 2, 3, 7, 10, 128, 255, 256, 500):
        if n_cells > chunk:
            groups = experiments._parts(n_cells, chunk)
            ref = [(cells, slice(i, i + 1)) for i in range(n_trials) for cells in groups]
        else:
            per = min(chunk // n_cells, -(-n_trials // 2))
            ref = [(slice(0, n_cells), trials)
                   for trials in experiments._parts(n_trials, per)]
        tiles = experiments._tiles(n_cells, n_trials)
        assert tiles == ref, (n_cells, n_trials)
        sizes = [(c.stop - c.start) * (t.stop - t.start) for c, t in tiles]
        assert max(sizes) <= chunk and sum(sizes) == n_cells * n_trials
        assert len(tiles) >= min(n_trials, 2)


def test_recorded_seed_reproduces_trial_standalone():
    trials = run_trials(condition=Condition(6.0, -3.0), n_trials=4, master_seed=11)
    traj = example_trajectory(None, Condition(6.0, -3.0), 11, trial_index=2)
    assert np.array_equal(trials[2].final_u, traj.final.u)
    res = trial_metrics(traj, "argmax", seed=trials[2].seed)
    assert res.vot_target == trials[2].vot_target
    assert res.time_to_threshold == trials[2].time_to_threshold
    assert res.stabilized == trials[2].stabilized


def test_uneven_step_blocks_give_the_standalone_trial():
    # 121 steps run in blocks of 9 and 10 steps, with smoothed noise and
    # q = 0.5; each trial keeps the bits of its whole-matrix draw run in one
    # engine call
    cfg = default_config()
    cfg = dataclasses.replace(cfg, field=dataclasses.replace(
        cfg.field, n_steps=121, noise_smooth_sigma=2.0, q=0.5))
    assert {b.stop - b.start for b in experiments._parts(121, experiments._BLOCK)} == {9, 10}
    trials = run_trials(cfg, Condition(6.0, -3.0), n_trials=3, master_seed=11)
    for i, trial in enumerate(trials):
        traj = example_trajectory(cfg, Condition(6.0, -3.0), 11, trial_index=i)
        assert trial.final_u.tobytes() == traj.final.u.tobytes()


def test_aggregate_statistics_match_numpy_reference():
    trials = run_trials(condition=Condition(6.0, -3.0), n_trials=40, master_seed=5)
    stats = run_batch(condition=Condition(6.0, -3.0), n_trials=40, master_seed=5)
    vots = np.array([t.vot_target for t in trials])
    assert stats.n_trials == 40
    assert stats.mean_vot == pytest.approx(vots.mean(), abs=1e-12)
    assert stats.sd_vot == pytest.approx(vots.std(ddof=1), abs=1e-12)
    assert stats.sem_vot == pytest.approx(vots.std(ddof=1) / np.sqrt(40), abs=1e-12)
    assert stats.skewness == pytest.approx(sp_stats.skew(vots, bias=False), abs=1e-12)
    assert stats.ch_ms == stats.mean_vot - 70.0  # identity, exact
    assert stats.frac_stabilized == sum(t.stabilized for t in trials) / 40
    crossed = [t.time_to_threshold for t in trials if t.time_to_threshold is not None]
    assert stats.mean_time_to_threshold == pytest.approx(np.mean(crossed), abs=1e-12)


def test_aggregate_degenerate_batches():
    (trial,) = run_trials(condition=Condition(6.0, 0.0), n_trials=1, master_seed=1)
    s = run_batch(condition=Condition(6.0, 0.0), n_trials=1, master_seed=1)
    assert s.n_trials == 1
    assert s.mean_vot == trial.vot_target and s.ch_ms == trial.vot_target - 70.0
    assert np.isnan(s.sd_vot) and np.isnan(s.sem_vot) and np.isnan(s.skewness)
    assert s.mean_time_to_threshold == trial.time_to_threshold

    # no drive: the field rests near h = -5 and never crosses, so no trial
    # gives a first_to_threshold readout
    s2 = run_batch(condition=Condition(0.0, 0.0), n_trials=2, master_seed=1,
                   method="first_to_threshold")
    assert np.isnan(s2.mean_vot) and np.isnan(s2.ch_ms)
    assert s2.frac_stabilized == 0.0
    assert s2.mean_time_to_threshold is None


def test_sweep_1d_default_grid_and_metadata():
    cfg = default_config()
    res = sweep_1d(cfg, n_trials=4)
    assert res.a_mp_values == tuple(-6.0 + 0.5 * k for k in range(21))
    assert res.a_target_values == (6.0,)
    assert len(res.cells) == 21
    assert res.master_seed == 1 and res.readout_method == "argmax"
    assert res.p_target == 70.0
    assert res.config == dataclasses.replace(cfg, n_trials=4)


def test_degenerate_sweep_equals_plain_batch():
    single = sweep_1d(a_mp_range=(0.0, 0.0, 1.0), n_trials=6)
    batch = run_batch(condition=Condition(6.0, 0.0), n_trials=6)
    cell = single.cells[0]
    assert cell.mean_vot == batch.mean_vot
    assert cell.sd_vot == batch.sd_vot
    assert cell.mean_time_to_threshold == batch.mean_time_to_threshold
    assert single.cell(6.0, 0.0) is cell
    with pytest.raises(KeyError):
        single.cell(6.0, 2.0)


def test_sweep_2d_row_major_grid():
    res = sweep_2d(n_trials=2, a_mp_range=(-1.0, 0.0, 0.5),
                   a_target_range=(5.0, 6.0, 1.0))
    assert res.a_mp_values == (-1.0, -0.5, 0.0)
    assert res.a_target_values == (5.0, 6.0)
    flat = [(c.condition.a_target, c.condition.a_mp) for c in res.cells]
    assert flat == [(5.0, -1.0), (5.0, -0.5), (5.0, 0.0),
                    (6.0, -1.0), (6.0, -0.5), (6.0, 0.0)]


def test_sweep_cells_share_trial_noise_streams():
    # common random numbers: cell trials reuse the same per-index seeds
    res = sweep_1d(a_mp_range=(-1.0, 0.0, 1.0), n_trials=3, master_seed=9)
    assert res.cells[0].n_trials == res.cells[1].n_trials == 3
    t_a = run_trials(condition=Condition(6.0, -1.0), n_trials=3, master_seed=9)
    t_b = run_trials(condition=Condition(6.0, 0.0), n_trials=3, master_seed=9)
    assert [t.seed for t in t_a] == [t.seed for t in t_b]


def test_replicate_fig6_structure():
    rep = replicate_named("fig6", master_seed=2, n_trials=3)
    assert rep.name == "fig6"
    assert len(rep.sweep.cells) == 21
    assert set(rep.trajectories) == {"amp0", "amp-3", "amp-6"}
    for traj in rep.trajectories.values():
        assert traj.states is not None and len(traj) == 121


def test_replicate_fig7_runs_highlighted_conditions_only():
    rep = replicate_named("fig7", master_seed=2, n_trials=2)
    assert sorted(c.condition.a_mp for c in rep.sweep.cells) == [-6.0, -3.0, 0.0]
    assert set(rep.trajectories) == {"amp0", "amp-3", "amp-6"}


def test_replicate_fig12_full_grid_dimensions():
    rep = replicate_named("fig12", master_seed=2, n_trials=1)
    assert len(rep.sweep.a_mp_values) == 23
    assert len(rep.sweep.a_target_values) == 11
    assert len(rep.sweep.cells) == 253
    assert rep.trajectories == {}


def test_replicate_named_conditions_and_alias():
    rep = replicate_named("conditions", master_seed=2, n_trials=2)
    assert rep.name == "conditions_bbg2009"
    assert CONDITIONS_BBG2009 == {"no_competitor": 0.0, "pseudoword": -1.5,
                                  "no_context": -3.0, "context": -6.0}
    assert set(rep.trajectories) == set(CONDITIONS_BBG2009)
    amps = sorted(c.condition.a_mp for c in rep.sweep.cells)
    assert amps == [-6.0, -3.0, -1.5, 0.0]


def test_replicate_unknown_name_rejected():
    with pytest.raises(ConfigError, match="fig6"):
        replicate_named("fig99")


def test_example_trajectories_match_frozen_single_trial_reads():
    # frozen trial-0 observations at master seed 1: argmax 70 / 75 / 81
    for a_mp, lo, hi in [(0.0, 65.0, 75.0), (-3.0, 70.0, 80.0), (-6.0, 76.0, 86.0)]:
        traj = example_trajectory(None, Condition(6.0, a_mp), 1)
        assert lo <= trial_metrics(traj, "argmax").vot_target <= hi


def test_example_trajectory_crossing_windows():
    t0 = example_trajectory(None, Condition(6.0, 0.0), 1)
    assert 25 <= t0.first_cross_step <= 55  # frozen observation: step 33
    t3 = example_trajectory(None, Condition(6.0, -3.0), 1)
    assert 45 <= t3.first_cross_step <= 85  # frozen observation: step 52
    t6 = example_trajectory(None, Condition(6.0, -6.0), 1)
    assert t6.first_cross_step is None or t6.first_cross_step > 55  # frozen: never


def test_replication_trajectories_equal_single_trial_runs():
    # one engine batch of a row per condition gives each condition's
    # single-row run
    rep = replicate_named("conditions", master_seed=3, n_trials=1)
    assert set(rep.trajectories) == set(CONDITIONS_BBG2009)
    for tag, a_mp in CONDITIONS_BBG2009.items():
        got, single = rep.trajectories[tag], example_trajectory(None, Condition(6.0, a_mp), 3)
        assert got.states.tobytes() == single.states.tobytes()
        assert np.array_equal(got.n_above, single.n_above)
        assert (got.first_cross_step, got.first_cross_pos) == (
            single.first_cross_step, single.first_cross_pos)


def test_replication_trajectory_divergence_raises_like_a_single_run():
    cfg = default_config()
    cfg = dataclasses.replace(cfg, field=dataclasses.replace(cfg.field, tau=0.01))
    with pytest.raises(IntegrationDivergedError) as single:
        example_trajectory(cfg, Condition(6.0, 1e308), 1)
    with pytest.raises(IntegrationDivergedError) as err:
        experiments._example_trajectories(cfg, [Condition(6.0, 0.0), Condition(6.0, 1e308)], 1)
    assert (err.value.step, err.value.seed) == (single.value.step, trial_seed(1, 0))
    assert single.value.seed == trial_seed(1, 0)


class _Tally:
    """A log that this process and a forked child both append to, one line
    of words per `note`, each line in one O_APPEND write so that lines of
    the two processes never mix."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def note(self, *words):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (" ".join(map(str, words)) + "\n").encode())
        finally:
            os.close(fd)

    def lines(self):
        return [tuple(line.split()) for line in self.path.read_text().splitlines()]


@pytest.fixture
def tally(tmp_path):
    return _Tally(tmp_path / "tally")


def _noted(tally, fn, *words):
    """`fn`, noting `words` and the calling process's pid in `tally` at each call."""
    def call(*args, **kwargs):
        tally.note(*words, os.getpid())
        return fn(*args, **kwargs)
    return call


def test_a_run_holds_two_tiles_of_noise_blocks():
    # 256 trials are two tiles of 128, one in each process (both here where
    # the run does not fork); each holds one block of its trials' noise and
    # the engine's four (128, n) buffers at a time, not the trials' whole
    # noise (24.6 MB for 128 trials)
    params = default_config().field
    row_bytes = experiments._CHUNK * params.field_size * 8
    two_tiles = 2 * (experiments._BLOCK + 4) * row_bytes
    tracemalloc.start()
    try:
        run_batch(n_trials=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * two_tiles, f"peak {peak / two_tiles:.2f} times two tiles"


def test_a_sweep_builds_the_lateral_table_once(monkeypatch, tally):
    # 10 trials over 3 cells in tiles of at most 4 rows, all on one table:
    # 10 tiles of one trial of each cell, in one process or two, each run one
    # block of steps per engine call; a child's calls reach the tally file
    for name in ("toeplitz", "evolve_batch"):
        monkeypatch.setattr(backends, name, _noted(tally, getattr(backends, name), name))
    monkeypatch.setattr(experiments, "_CHUNK", 4)
    cfg = dataclasses.replace(default_config(), n_trials=10)
    experiments._sweep(cfg, (6.0,), (-3.0, 0.0, 3.0))
    blocks = len(experiments._parts(cfg.field.n_steps, experiments._BLOCK))
    names = [name for name, _ in tally.lines()]
    assert {k: names.count(k) for k in ("toeplitz", "evolve_batch")} == {
        "toeplitz": 1, "evolve_batch": 10 * blocks}


def test_a_smoothed_run_builds_the_noise_table_once(monkeypatch, tally):
    # 10 smoothed trials in tiles of 4 build two tables, the lateral one and
    # the smoothing one, with the bits of a smoothing table built per draw; a
    # child's builds reach the tally file
    cfg = dataclasses.replace(default_config(), n_trials=10)
    cfg = dataclasses.replace(cfg, field=dataclasses.replace(cfg.field, noise_smooth_sigma=2.0))
    monkeypatch.setattr(backends, "toeplitz", _noted(tally, backends.toeplitz))
    monkeypatch.setattr(experiments, "_CHUNK", 4)
    field._smoother.cache_clear()
    once = run_batch(cfg)
    assert len(tally.lines()) == 2
    trials = run_trials(cfg)
    # the per-draw path: a smoothing table for every block of every trial
    monkeypatch.setattr(field, "_smoother", field._smoother.__wrapped__)
    tally.path.write_text("")
    per_trial = run_batch(cfg)
    assert len(tally.lines()) == 1 + 10 * len(experiments._parts(cfg.field.n_steps,
                                                                 experiments._BLOCK))
    assert repr(once) == repr(per_trial)
    for a, b in zip(trials, run_trials(cfg)):
        assert a.final_u.tobytes() == b.final_u.tobytes()


def test_divergence_carries_the_failing_trial_seed():
    cfg = default_config()
    cfg = dataclasses.replace(cfg, field=dataclasses.replace(cfg.field, tau=0.01))
    with pytest.raises(IntegrationDivergedError) as err:
        run_trials(cfg, Condition(1e308, 0.0), n_trials=2, master_seed=1)
    assert err.value.seed == trial_seed(1, 0)
    assert err.value.step == 1
    assert "seed" in str(err.value)


def _kicked(kicks):
    """`draw_noise`, but with noise[step, neuron] = value in each trial whose
    seed `kicks` maps to (step, neuron, value), in whichever block of the
    trial's steps is being drawn."""
    drawn = {}  # generator -> rows of its stream drawn so far

    def draw(params, rng, out=None):
        noise = draw_noise(params, rng, out=out)
        t0 = drawn.get(rng, 0)
        drawn[rng] = t0 + len(noise)
        kick = kicks.get(rng.bit_generator.seed_seq.entropy)
        if kick is not None and t0 <= kick[0] < t0 + len(noise):
            noise[kick[0] - t0, kick[1]] = kick[2]
        return noise
    return draw


def test_sweep_divergence_matches_cell_by_cell_order(monkeypatch):
    # A 1e308 noise kick at step 0 overflows only where the drive is ~1e308
    # too. In sweep order the cells are (6, 0): never; (6, 1e308): trial 5,
    # in the sixth tile of one trial; (1e308, 0) and (1e308, 1e308): trial 1,
    # in the second. Run cell by cell, the sweep meets cell 1's trial 5 first.
    kicks = {trial_seed(1, 1): (0, 70, 1e308), trial_seed(1, 5): (0, 20, 1e308)}
    monkeypatch.setattr(experiments, "draw_noise", _kicked(kicks))
    monkeypatch.setattr(experiments, "_CHUNK", 4)
    cfg = dataclasses.replace(default_config(), n_trials=10)
    with pytest.raises(IntegrationDivergedError) as err:
        experiments._sweep(cfg, (6.0, 1e308), (0.0, 1e308))
    assert (err.value.step, err.value.seed) == (1, trial_seed(1, 5))
    with pytest.raises(IntegrationDivergedError) as err:  # the first kick alone
        experiments._sweep(cfg, (1e308,), (0.0,))
    assert (err.value.step, err.value.seed) == (1, trial_seed(1, 1))


def _shared_maps():
    """How many anonymous shared maps this process has (`experiments._shared`'s)."""
    with open("/proc/self/maps") as fh:
        return sum(line.rstrip().endswith("/dev/zero (deleted)") for line in fh)


@pytest.fixture
def two_processes(monkeypatch):
    """The sweep's forked path, whatever the host, with a stand-in BLAS
    setter where numpy's OpenBLAS has none; yields the (get, set) pair and
    checks that the test left no child, file descriptor or shared map."""
    count = [3]
    blas = experiments._blas_threads() or (lambda: count[0], lambda k: count.__setitem__(0, k))
    monkeypatch.setattr(experiments, "_blas_threads", lambda: blas)
    monkeypatch.setattr(experiments, "_can_fork", lambda: True)
    gc.collect()  # a caught error's traceback holds its run's frame in a cycle
    before = sorted(os.listdir("/proc/self/fd")), _shared_maps()
    yield blas
    gc.collect()
    assert (sorted(os.listdir("/proc/self/fd")), _shared_maps()) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial(monkeypatch):
    monkeypatch.setattr(experiments, "_blas_threads", lambda: None)  # as with no setter


def _same_trials(a, b):
    assert [(r.seed, r.vot_target, r.time_to_threshold, r.stabilized) for r in a] == \
        [(r.seed, r.vot_target, r.time_to_threshold, r.stabilized) for r in b]
    for ra, rb in zip(a, b):
        assert ra.final_u.tobytes() == rb.final_u.tobytes()


@pytest.mark.parametrize("chunk", [3, 7, 128])
def test_two_processes_give_the_serial_bits(monkeypatch, tally, two_processes, chunk):
    # 15 trials of 5 cells are tiles of one trial of 2 or 3 cells at _CHUNK 3
    # (each trial's noise drawn by both groups), 15 tiles of one trial at 7
    # and two of 8 and 7 trials at 128; the child runs every second tile
    monkeypatch.setattr(experiments, "_CHUNK", chunk)
    cfg = dataclasses.replace(default_config(), n_trials=15, master_seed=4)
    conditions = [Condition(6.0, a) for a in (-6.0, -3.0, 0.0, 2.5, 4.0)]
    monkeypatch.setattr(backends, "evolve_batch", _noted(tally, backends.evolve_batch))
    two = experiments._run_cells(cfg, conditions)
    pids = {pid for pid, in tally.lines()}
    assert len(pids) == 2 and str(os.getpid()) in pids  # a child ran tiles too
    two_trials = run_trials(cfg, Condition(6.0, -3.0))
    _serial(monkeypatch)
    one = experiments._run_cells(cfg, conditions)
    assert two[0] == one[0]  # seeds
    for a, b in zip(two[1:4], one[1:4]):  # vot, ttt, stab
        assert a.tobytes() == b.tobytes()
    _same_trials(two_trials, run_trials(cfg, Condition(6.0, -3.0)))


@pytest.mark.parametrize("finished", [0, 1, 2], ids=["no tile", "one tile", "all its tiles"])
def test_a_child_that_stops_leaves_the_serial_results(finished, monkeypatch, tally,
                                                      two_processes):
    # 15 trials in tiles of 4: the child's share is the second and fourth
    # tile. It leaves through os._exit(3) as it starts the tile after
    # `finished` ones, and this process runs every tile it did not finish.
    monkeypatch.setattr(experiments, "_CHUNK", 4)
    cfg = dataclasses.replace(default_config(), n_trials=15)
    parent = os.getpid()
    started = [0]  # tiles this process has started
    engine = backends.evolve_batch

    def stopping(params, u0, drive, table, noise3, **kwargs):
        if kwargs["t0"] == 0:  # a tile's first block
            if os.getpid() != parent and started[0] == finished:
                os._exit(3)
            started[0] += 1
            tally.note(os.getpid())
        return engine(params, u0, drive, table, noise3, **kwargs)

    monkeypatch.setattr(backends, "evolve_batch", stopping)
    stopped = run_trials(cfg)
    tiles = [pid for pid, in tally.lines()]
    assert tiles.count(str(parent)) == 4 - finished and len(tiles) == 4
    _serial(monkeypatch)
    _same_trials(stopped, run_trials(cfg))


def test_a_child_with_more_tiles_than_its_pipe_holds_reports_is_not_held_up(
        monkeypatch, tally, two_processes):
    # 1 200 one-trial tiles on an 8-neuron, 3-step field, the child's share
    # 600 of them, more than a one-page pipe holds reports of 8 bytes (512).
    # This process starts its first tile only once the child has noted that
    # it finished all 600, so a child that waited for this process to read
    # reports would let the run pass its deadline. The sweep opens no pipe.
    pipes = []
    pipe = os.pipe
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg, n_trials=1200, field=dataclasses.replace(cfg.field, field_size=8, n_steps=3),
        inputs=[dataclasses.replace(inp, p=p, w=2.0) for inp, p in zip(cfg.inputs, (4.0, 1.0))])
    parent = os.getpid()
    engine = backends.evolve_batch
    calls = [0]  # engine calls, one per tile, in the process that makes them
    waited = []  # whether the child was done when this process's first tile began

    def child_first(*args, **kwargs):
        if os.getpid() == parent and not waited:
            while not tally.lines() and time.monotonic() < deadline:
                time.sleep(0.001)
            waited.append(tally.lines() == [("child", "done")])
        run = engine(*args, **kwargs)
        calls[0] += 1
        if os.getpid() != parent and calls[0] == 600:
            tally.note("child", "done")
        return run

    monkeypatch.setattr(os, "pipe", lambda: pipes.append(None) or pipe())
    monkeypatch.setattr(experiments, "_CHUNK", 1)
    monkeypatch.setattr(backends, "evolve_batch", child_first)
    deadline = time.monotonic() + 10
    assert len(experiments._tiles(1, cfg.n_trials)) == 1200
    run_batch(cfg)
    assert time.monotonic() < deadline
    assert waited == [True] and calls == [600] and tally.lines() == [("child", "done")]
    assert pipes == []


def test_a_divergence_in_the_second_tile_reports_its_own_seed(monkeypatch, two_processes):
    # 8 trials of 2 cells run as tiles of trials 0-3, here, and 4-7, in the
    # child. A NaN in a trial's noise at step t diverges every cell at step
    # t + 1; a 1e308 kick at neuron 20 and step 0 only where a_mp is ~1e308
    # too. Each report is the serial path's.
    kicks = {}  # seed -> (step, neuron, value)
    monkeypatch.setattr(experiments, "draw_noise", _kicked(kicks))
    monkeypatch.setattr(experiments, "_CHUNK", 8)
    cfg = dataclasses.replace(default_config(), n_trials=8)

    def first_divergence():
        reports = []
        for blas in (two_processes, None):  # forked, then serial
            monkeypatch.setattr(experiments, "_blas_threads", lambda blas=blas: blas)
            with pytest.raises(IntegrationDivergedError) as err:
                experiments._sweep(cfg, (6.0,), (0.0, 1e308))
            reports.append((err.value.step, err.value.seed))
        assert reports[0] == reports[1]
        return reports[0]

    kicks[trial_seed(1, 6)] = (30, 100, math.nan)
    assert first_divergence() == (31, trial_seed(1, 6))
    # the first tile's trial 1 diverges in the second cell only, so the
    # first cell's trial 6 is still the one reported
    kicks[trial_seed(1, 1)] = (0, 20, 1e308)
    assert first_divergence() == (31, trial_seed(1, 6))
    # a first-tile trial of the first cell is reported before trial 6, though
    # its step is later
    kicks[trial_seed(1, 2)] = (60, 100, math.nan)
    assert first_divergence() == (61, trial_seed(1, 2))


def test_the_reported_divergence_does_not_depend_on_which_process_finishes_first(
        monkeypatch, tally, two_processes):
    # 8 trials of one cell run as tiles of trials 0-3, here, and 4-7, in the
    # child. A NaN kick diverges trial 2 at step 61 and then trial 5 at step
    # 11 too. This process starts its tile only once the child's tile has run
    # all its steps, so trial 5's divergence is found first; trial 2's is
    # reported, as on the serial path.
    kicks = {trial_seed(1, 2): (60, 100, math.nan)}
    monkeypatch.setattr(experiments, "draw_noise", _kicked(kicks))
    monkeypatch.setattr(experiments, "_CHUNK", 8)
    cfg = dataclasses.replace(default_config(), n_trials=8)
    parent = os.getpid()
    engine = backends.evolve_batch

    def child_first(params, u0, drive, table, noise3, **kwargs):
        if os.getpid() == parent and kwargs["t0"] == 0:
            deadline = time.monotonic() + 10
            while ("child", "done") not in tally.lines() and time.monotonic() < deadline:
                time.sleep(0.001)
        run = engine(params, u0, drive, table, noise3, **kwargs)
        if os.getpid() != parent and kwargs["t0"] + noise3.shape[2] == params.n_steps:
            tally.note("child", "done")
        return run

    def first_divergence():
        tally.path.write_text("")
        with pytest.raises(IntegrationDivergedError) as err:
            experiments._sweep(cfg, (6.0,), (0.0,))
        assert tally.lines() == [("child", "done")]
        return err.value.step, err.value.seed

    monkeypatch.setattr(backends, "evolve_batch", child_first)
    assert first_divergence() == (61, trial_seed(1, 2))  # in this process's tile
    kicks[trial_seed(1, 5)] = (10, 100, math.nan)
    assert first_divergence() == (61, trial_seed(1, 2))


@pytest.mark.parametrize("where", ["parent", "child"])
def test_an_exception_in_either_process_is_raised_as_on_the_serial_path(
        where, monkeypatch, two_processes):
    # 8 trials of one cell in tiles of trials 0-3, here, and 4-7, in the
    # child; the draw of trial 1 or 5 raises. A child that raises stops, and
    # this process raises the error again when it runs the child's tile; a
    # raise here kills the child, which would otherwise sleep for 30 s at its
    # first draw.
    monkeypatch.setattr(experiments, "_CHUNK", 8)
    parent = os.getpid()
    failing = trial_seed(1, 1 if where == "parent" else 5)
    slept = []

    def draw(params, rng, out=None):
        if rng.bit_generator.seed_seq.entropy == failing:
            raise RuntimeError(f"draw of seed {failing} failed")
        if where == "parent" and os.getpid() != parent and not slept:
            slept.append(1)
            time.sleep(30)
        return draw_noise(params, rng, out=out)

    monkeypatch.setattr(experiments, "draw_noise", draw)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError) as forked:
        run_batch(n_trials=8)
    assert time.monotonic() - t0 < 10
    _serial(monkeypatch)
    with pytest.raises(RuntimeError) as serial:
        run_batch(n_trials=8)
    assert str(forked.value) == str(serial.value) == f"draw of seed {failing} failed"


def test_a_run_restores_the_blas_thread_count(monkeypatch, tally, two_processes):
    # With the real setter where numpy's OpenBLAS has one, else a stand-in,
    # set to 2 so that a run left at one thread shows: both processes' engine
    # calls run at one BLAS thread, and the 2 comes back after a run that
    # returns, diverges, or raises in either process
    get, put = two_processes
    engine = backends.evolve_batch

    def noted(*args, **kwargs):
        tally.note(get(), os.getpid())
        return engine(*args, **kwargs)

    def failing_at(trial):
        def draw(params, rng, out=None):
            if rng.bit_generator.seed_seq.entropy == trial_seed(1, trial):
                raise RuntimeError("draw failed")
            return draw_noise(params, rng, out=out)
        return draw

    outside = get()
    put(2)
    try:
        monkeypatch.setattr(backends, "evolve_batch", noted)
        run_batch(n_trials=6)
        assert {count for count, _ in tally.lines()} == {"1"}
        assert len({pid for _, pid in tally.lines()}) == 2
        assert get() == 2
        cfg = default_config()
        cfg = dataclasses.replace(cfg, field=dataclasses.replace(cfg.field, tau=0.01))
        with pytest.raises(IntegrationDivergedError):
            run_trials(cfg, Condition(1e308, 0.0), n_trials=4)
        assert get() == 2
        for trial in (1, 4):  # in this process's tile of trials 0-2, in the child's
            monkeypatch.setattr(experiments, "draw_noise", failing_at(trial))
            with pytest.raises(RuntimeError, match="draw failed"):
                run_batch(n_trials=6)
            assert get() == 2
    finally:
        put(outside)


def test_a_failed_fork_runs_every_tile_here(monkeypatch, tally, two_processes):
    # a fork that raises OSError leaves the serial path: every tile here at
    # the BLAS count set before the run (2, so that a tile run at one thread
    # shows on any host), the count restored and no fd left (`two_processes`)
    get, put = two_processes
    engine = backends.evolve_batch

    def fails():  # a new error each time: a kept one would hold its frames and their map
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def noted(*args, **kwargs):
        tally.note(get(), os.getpid())
        return engine(*args, **kwargs)

    outside = get()
    put(2)
    try:
        monkeypatch.setattr(os, "fork", fails)
        monkeypatch.setattr(backends, "evolve_batch", noted)
        cfg = dataclasses.replace(default_config(), n_trials=6)
        here = run_trials(cfg)
        assert get() == 2
        assert set(tally.lines()) == {("2", str(os.getpid()))}
        _serial(monkeypatch)
        _same_trials(here, run_trials(cfg))
    finally:
        put(outside)


def test_a_forked_sweep_opens_no_pipe_and_forks_where_none_can_be_opened(
        monkeypatch, tally, two_processes):
    # two tiles of 3 trials, the second one the child's: the sweep never
    # calls os.pipe, so with os.pipe raising EMFILE the run still forks once
    # and gives the serial path's bits
    pipes, forks = [], []
    fork = os.fork

    def no_pipe():  # a new error each time: a kept one would hold its frames and their map
        pipes.append(None)
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", no_pipe)
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    monkeypatch.setattr(backends, "evolve_batch", _noted(tally, backends.evolve_batch))
    cfg = dataclasses.replace(default_config(), n_trials=6)
    forked = run_batch(cfg)
    assert (pipes, forks) == ([], [None])
    assert len({pid for pid, in tally.lines()}) == 2  # a child ran a tile
    _serial(monkeypatch)
    assert repr(forked) == repr(run_batch(cfg))


def test_a_run_that_does_not_fork_leaves_the_blas_count_alone(monkeypatch):
    # two tiles of 2 trials: with `_can_fork` False both run here and the
    # stand-in setter is never called; with it True the run holds one thread
    # across the fork and restores the count
    sets = []
    monkeypatch.setattr(experiments, "_blas_threads", lambda: (lambda: 3, sets.append))
    monkeypatch.setattr(experiments, "_can_fork", lambda: False)
    run_batch(n_trials=4)
    assert sets == []
    monkeypatch.setattr(experiments, "_can_fork", lambda: True)
    run_batch(n_trials=4)
    assert sets == [1, 3]


def test_two_processes_build_the_smoothing_table_once(monkeypatch, tally, two_processes):
    # the smoothing table is built before the fork, so only the lateral table
    # and one smoothing table are built, not one more in the child
    cfg = dataclasses.replace(default_config(), n_trials=6)
    cfg = dataclasses.replace(cfg, field=dataclasses.replace(cfg.field, noise_smooth_sigma=1.5))
    monkeypatch.setattr(backends, "toeplitz", _noted(tally, backends.toeplitz))
    field._smoother.cache_clear()
    run_batch(cfg)
    assert tally.lines() == [(str(os.getpid()),)] * 2


def test_condition_requires_target_and_mp_labels():
    from votfield import GaussianInput, RunConfig
    cfg = RunConfig(inputs=(GaussianInput(6.0, 70.0, 30.0, "target"),))
    with pytest.raises(ConfigError, match="mp"):
        run_trials(cfg, Condition(6.0, 0.0), n_trials=1)


def test_invalid_run_arguments_rejected():
    with pytest.raises(ConfigError, match="n_trials"):
        run_batch(n_trials=0)
    with pytest.raises(ConfigError, match="readout"):
        run_batch(n_trials=1, method="best")


@pytest.mark.parametrize("runner", [run_batch, sweep_1d, partial(replicate_named, "fig7")],
                         ids=["run_batch", "sweep_1d", "replicate_named"])
@pytest.mark.parametrize("key, value", [("n_trials", 2.5), ("n_trials", "3"),
                                        ("n_trials", True), ("master_seed", 1.5),
                                        ("master_seed", -1)])
def test_run_overrides_are_validated_like_the_config(runner, key, value):
    with pytest.raises(ConfigError, match=key):
        runner(**{key: value})


@pytest.mark.parametrize("args, key", [(("x", 0), "a_target"), ((6.0, "0"), "a_mp"),
                                       ((6.0, float("inf")), "a_mp")])
def test_condition_rejects_non_numbers_by_key(args, key):
    with pytest.raises(ConfigError, match=key):
        Condition(*args)
