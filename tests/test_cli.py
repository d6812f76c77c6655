"""End-to-end command-line behavior."""

import contextlib
import errno
import json
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    import tomli as tomllib

import votfield
from votfield import (REPLICATIONS, SWEEP_COLUMNS, ConfigError, config_from_dict,
                      experiments, load_config, outputs, serialize_config)
from votfield.cli import cli_main


def run_cli(argv, capsys):
    code = cli_main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_simulate_noiseless_prints_target_vot(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"q": 0.0}}))
    out_dir = tmp_path / "o"
    code, out, _ = run_cli(["simulate", "--config", str(cfg),
                            "--out", str(out_dir)], capsys)
    assert code == 0
    assert "vot_target: 70" in out
    assert "stabilized: true" in out
    assert (out_dir / "trajectory.csv").is_file()
    assert (out_dir / "trajectory_summary.csv").is_file()
    assert (out_dir / "trajectory.svg").is_file()


def test_batch_writes_one_row_and_prints_stats(tmp_path, capsys):
    code, out, _ = run_cli(["batch", "--trials", "3", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "a_target=6 a_mp=0" in out
    assert "mean_vot=" in out and "frac_stabilized=" in out
    lines = (tmp_path / "batch.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 2


def test_sweep1d_schema_fixed_regardless_of_trials(tmp_path, capsys):
    code, out, _ = run_cli(["sweep1d", "--trials", "2", "--out", str(tmp_path),
                            "--quiet"], capsys)
    assert code == 0
    assert out == ""  # --quiet silences the per-condition lines
    lines = (tmp_path / "sweep1d.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 22
    assert (tmp_path / "sweep1d.svg").is_file()


def test_sweep2d_writes_surface(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": {"a_mp": {"lo": -1.0, "hi": 0.0, "step": 1.0},
                  "a_target": {"lo": 5.0, "hi": 6.0, "step": 1.0}}}))
    code, _, _ = run_cli(["sweep2d", "--config", str(cfg), "--trials", "2",
                          "--out", str(tmp_path), "--quiet"], capsys)
    assert code == 0
    lines = (tmp_path / "sweep2d.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    assert (tmp_path / "sweep2d.svg").is_file()


def test_replicate_fig6_writes_everything(tmp_path, capsys):
    code, out, _ = run_cli(["replicate", "fig6", "--trials", "2", "--seed", "4",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.count("a_target=") == 21
    lines = (tmp_path / "fig6.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 22
    assert all(line.split(",")[11] == "4" for line in lines[1:])
    assert (tmp_path / "fig6.svg").is_file()
    for tag in ("amp0", "amp-3", "amp-6"):
        assert (tmp_path / f"fig6_traj_{tag}.csv").is_file()
        assert (tmp_path / f"fig6_traj_{tag}_summary.csv").is_file()
        assert (tmp_path / f"fig6_traj_{tag}.svg").is_file()


def test_replicate_conditions_alias(tmp_path, capsys):
    code, out, _ = run_cli(["replicate", "conditions", "--trials", "2",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    csv_path = tmp_path / "conditions_bbg2009.csv"
    assert csv_path.is_file()
    assert len(csv_path.read_text().splitlines()) == 1 + 4


def test_validate_config_prints_canonical_resolved_form(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_trials": 9}))
    code, out, _ = run_cli(["validate-config", "--config", str(cfg)], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["n_trials"] == 9
    assert parsed["field"]["tau"] == 20.0
    assert out == serialize_config(config_from_dict(parsed))  # canonical form


def test_validate_config_applies_cli_overrides(capsys):
    code, out, _ = run_cli(["validate-config", "--seed", "9", "--trials", "3",
                            "--readout", "centroid_above_threshold"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["master_seed"] == 9
    assert parsed["n_trials"] == 3
    assert parsed["readout"] == "centroid_above_threshold"


def test_bad_config_exits_one_with_stderr_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"tau": 0}}')
    code, out, err = run_cli(["batch", "--config", str(bad)], capsys)
    assert code == 1
    assert "tau" in err and out == ""

    # literals Python's json accepts; the error names the range
    for cmd, name, literal in (("sweep1d", "a_mp", "NaN"), ("sweep2d", "a_target", "-Infinity")):
        bad.write_text(f'{{"sweep": {{"{name}": {{"lo": {literal}}}}}}}')
        code, out, err = run_cli([cmd, "--config", str(bad)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: sweep {name} lo must be a finite number")

    code, _, err = run_cli(["batch", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 1 and "not found" in err

    code, _, err = run_cli(["replicate", "fig6", "--config",
                            str(tmp_path / "nope.json")], capsys)
    assert code == 1 and "not found" in err

    bad.write_bytes(b"\xff")  # not UTF-8
    code, out, err = run_cli(["batch", "--config", str(bad)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: config parse error in ") and str(bad) in err

    code, out, err = run_cli(["batch", "--config", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "not found" not in err


@pytest.mark.parametrize("raw, key", [
    ({"inputs": [{"label": "mp", "w": 1e-320}]}, "'mp': w"),
    ({"field": {"noise_smooth_sigma": 1e-300}}, "noise_smooth_sigma"),
    ({"field": {"noise_smooth_sigma": 1e300}}, "noise_smooth_sigma"),
    ({"sweep": {"a_mp": {"lo": 0.0, "hi": 1e300, "step": 1e-300}}}, "sweep a_mp step"),
    ({"field": {"sigma_exc": 1e-320}}, "sigma_exc"),
    ({"field": {"field_size": 10**12}}, "field_size"),
    ({"field": {"n_steps": 10**11}}, "n_steps"),
    ({"field": {"c_exc": 1e300, "sigma_exc": 1e-10}}, "c_exc / (sqrt(2 pi) sigma_exc)"),
    ({"field": {"c_inh": 1e300, "sigma_inh": 1e-10}}, "c_inh / (sqrt(2 pi) sigma_inh)"),
], ids=["w 1e-320", "noise_smooth_sigma 1e-300", "noise_smooth_sigma 1e300",
        "sweep step 1e-300 to hi 1e300", "sigma_exc 1e-320", "field_size 1e12", "n_steps 1e11",
        "excitatory height 1e300 over 1e-10", "inhibitory height 1e300 over 1e-10"])
def test_values_the_run_cannot_compute_are_config_errors(raw, key, tmp_path, capsys):
    # each was accepted and then ended in a ZeroDivisionError, a ValueError
    # from np.arange, an OverflowError, numpy's _ArrayMemoryError, or an
    # infinite or NaN kernel reported as a divergence at step 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    for command in ("validate-config", "simulate", "sweep1d"):
        code, out, err = run_cli([command, "--config", str(cfg), "--trials", "2",
                                  "--out", str(tmp_path / "o")], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and key in err and err.count("\n") == 1


@pytest.mark.parametrize("n_trials", [0, 10**6 + 1, 2**70])
def test_a_trial_count_outside_one_to_a_million_is_a_config_error(n_trials, tmp_path, capsys):
    # 2**70 was accepted, and a run then built its list of trial seeds until
    # memory ran out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_trials": n_trials}))
    out_dir = ["--out", str(tmp_path / "o")]
    for argv in (["validate-config", "--config", str(cfg)], ["batch", "--config", str(cfg)],
                 ["batch", "--trials", str(n_trials)]):
        code, out, err = run_cli(argv + out_dir, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: n_trials must be from 1 to a million, got {n_trials}\n"
    assert not (tmp_path / "o").exists()


def test_a_diverging_simulate_names_its_trial_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"dt": 50, "tau": 1, "n_steps": 300}}))
    seed = experiments.trial_seed(load_config(cfg).master_seed, 0)
    argv = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    code, out, err = run_cli(["simulate"] + argv, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: field integration diverged (non-finite activation) at step 182 "
                   f"(trial seed {seed})\n")
    # the sweep of replicate fig7 names the same trial 0
    code, out, err = run_cli(["replicate", "fig7"] + argv, capsys)
    assert (code, out) == (1, "") and err.endswith(f" (trial seed {seed})\n")


COMMANDS = ([["simulate"], ["batch"], ["sweep1d"], ["sweep2d"]]
            + [["replicate", name] for name in REPLICATIONS + ("conditions",)])


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_report_names_every_written_file_and_one_line_per_cell(command, tmp_path, capsys,
                                                              monkeypatch, forks):
    out_dir = tmp_path / "o"
    argv = command + ["--trials", "1", "--out", str(out_dir)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    # a run that exports a trajectory forks for the export; at one trial,
    # only a sweep of more than _CHUNK cells has two tiles and forks for them
    exports = command[0] == "simulate" or command[0] == "replicate" and command[1] != "fig12"
    assert forks.count("_write_forked") == (FORKS if exports else 0)
    assert forks.count("_run_cells") == (SWEEP_FORKS if command[-1] in ("sweep2d", "fig12")
                                         else 0)
    lines = out.splitlines()
    assert lines[-1].startswith("wrote ")
    assert not any(line.startswith("wrote ") for line in lines[:-1])
    wrote = lines[-1][len("wrote "):].split(", ")
    assert sorted(wrote) == sorted(str(p) for p in out_dir.iterdir())

    # the order the files are opened in, recorded on the in-process path:
    # the forked path opens them here too, at their first byte written or copied
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(outputs, "open", recording_open, raising=False)
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: False)
    shutil.rmtree(out_dir)
    assert run_cli(argv, capsys)[0] == 0
    assert wrote == opened

    stats = [line for line in lines if line.startswith("a_target=")]
    if command[0] == "simulate":
        assert stats == [] and "stabilized: " in out
        return
    rows = Path(opened[0]).read_text().splitlines()[1:]  # the sweep CSV is written first
    assert len(stats) == len(rows) > 0
    for line, row in zip(stats, rows):
        a_target, a_mp = row.split(",")[:2]
        assert line.startswith(f"a_target={float(a_target):g} a_mp={float(a_mp):g} ")


# one tile (serial by rule), one block of one or two steps, and smoothed noise
# over four blocks: the sweep's two processes give the serial path's bits
@pytest.mark.parametrize("command, field", [
    (["batch", "--trials", "1"], {}),
    (["sweep1d", "--trials", "1"], {}),
    (["batch", "--trials", "3"], {"n_steps": 1}),
    (["sweep1d", "--trials", "3"], {"n_steps": 2}),
    (["sweep1d", "--trials", "3"], {"n_steps": 35, "noise_smooth_sigma": 2.0}),
], ids=["batch-1-trial", "sweep1d-1-trial", "batch-1-step", "sweep1d-2-steps",
        "sweep1d-smoothed-4-blocks"])
def test_degenerate_runs_give_the_serial_bits(command, field, tmp_path, capsys, monkeypatch):
    (tmp_path / "config.json").write_text(json.dumps({"field": field}))
    argv = command + ["--seed", "5", "--config", str(tmp_path / "config.json"),
                      "--out", str(tmp_path / "o")]
    forked = run_and_collect(argv, tmp_path / "o", capsys)
    monkeypatch.setattr(experiments, "_blas_threads", lambda: None)  # as with no setter
    assert forked[0] == 0 and run_and_collect(argv, tmp_path / "o", capsys) == forked


# --------------------------------------------------------- the forked export

# a run that exports a trajectory forks one child for half of its files here,
# and a sweep of two or more tiles one child for half of its tiles
FORKS = int(outputs._fork_export({"": None}))
SWEEP_FORKS = int(experiments._can_fork() and experiments._blas_threads() is not None)


@pytest.fixture
def forks(monkeypatch):
    """The name of the function that made each os.fork call: `_write_forked`
    for the export, `_run_cells` for the sweep; each call still forks."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(sys._getframe(1).f_code.co_name)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_and_collect(argv, out_dir, capsys):
    """(exit code, stdout, {name: bytes} of every file written), with the
    output directory removed again."""
    code, out, _ = run_cli(argv, capsys)
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    shutil.rmtree(out_dir)
    return code, out, files


@pytest.mark.parametrize("seed", ["2", "7"])
@pytest.mark.parametrize("command", [["simulate"], ["replicate", "fig6"],
                                     ["replicate", "fig7"], ["replicate", "conditions"]],
                         ids=" ".join)
def test_forked_export_writes_what_one_process_writes(command, seed, tmp_path, capsys,
                                                      monkeypatch, forks):
    out_dir = tmp_path / "o"
    argv = command + ["--trials", "2", "--seed", seed, "--out", str(out_dir)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        forked = run_and_collect(argv, out_dir, capsys)
    sweeps = SWEEP_FORKS if command[0] == "replicate" else 0  # two tiles of one trial
    assert forks == ["_run_cells"] * sweeps + ["_write_forked"] * FORKS
    # Python 3.12 warns when it forks a process with more than one OS thread
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert_no_child_left()
    assert forked[0] == 0 and len(forked[2]) >= 3

    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: False)
    assert run_and_collect(argv, out_dir, capsys) == forked
    assert forks.count("_write_forked") == FORKS


# simulate writes the header and the first three quarters of the step rows of
# trajectory.csv here; the child formats the last quarter, the summary and
# trajectory.svg into a memfd and sends where each ends, and this process
# copies each into its file in write order, so it stops at the first error as
# one process does
@pytest.mark.parametrize("blocked", [["trajectory.csv"], ["trajectory_summary.csv"],
                                     ["trajectory.svg"], ["trajectory.svg", "trajectory.csv"]],
                         ids="+".join)
def test_forked_export_reports_an_error_as_one_process_does(blocked, tmp_path, capfd,
                                                            monkeypatch, forks):
    out_dir = tmp_path / "o"
    argv = ["simulate", "--out", str(out_dir)]

    def failed_run():
        """The run's error lines and {name: bytes} of the files it left."""
        shutil.rmtree(out_dir, ignore_errors=True)
        for name in blocked:  # a directory where the file should go
            (out_dir / name).mkdir(parents=True)
        code, out, err = run_cli(argv, capfd)  # capfd: the child's stderr too
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        files = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        return [line for line in err.splitlines() if line.startswith("error: ")], files

    forked = failed_run()
    assert len(forks) == FORKS
    assert_no_child_left()
    assert len(forked[0]) == 1 and "Is a directory" in forked[0][0]
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: False)
    assert failed_run() == forked
    assert len(forks) == FORKS


def test_forked_export_raises_a_formatting_error_in_write_order(tmp_path, capfd,
                                                                monkeypatch, forks):
    # the child's heatmap fails: this process still writes the CSV and its
    # summary, as one process does, and then reports the child's error
    def no_heatmap(traj):
        raise ConfigError("cannot plot the heatmap")

    out_dir = tmp_path / "o"

    def failed_run():
        code, out, err = run_cli(["simulate", "--out", str(out_dir)], capfd)
        assert (code, out) == (1, "")
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)
        return err, files

    monkeypatch.setattr(outputs, "_plot_heatmap", no_heatmap)
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: True)
    forked = failed_run()
    assert len(forks) == 1
    assert_no_child_left()
    assert forked[0] == "error: cannot plot the heatmap\n"
    assert sorted(forked[1]) == ["trajectory.csv", "trajectory_summary.csv"]
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: False)
    assert failed_run() == forked


def forked_and_in_process(argv, out_dir, capsys, monkeypatch):
    """run_and_collect of `argv` on the forked path (forced, whatever the
    cores) and then in one process, with the `_split` of the forked run as
    (index of the child's first piece, its file name, the first step row it
    writes, or None where it is no step rows)."""
    splits = []
    split = outputs._split

    def recorded(pieces):
        k = split(pieces)
        _, path, write, *args = pieces[k]
        splits.append((k, path.name, args[1] if write is outputs._write_trajectory_rows else None))
        return k

    monkeypatch.setattr(outputs, "_split", recorded)
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: True)
    forked = run_and_collect(argv, out_dir, capsys)
    assert_no_child_left()
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: False)
    return forked, run_and_collect(argv, out_dir, capsys), splits


# a field of two positions, where one row of the engine is padded to two
FIELD_SIZE_2 = {"field": {"field_size": 2, "n_steps": 1},
                "inputs": [{"label": "target", "p": 1}, {"label": "mp", "p": 0}]}


@pytest.mark.parametrize("command, config, split", [
    # 2 and 3 rows: the child formats the summary and the heatmap
    (["simulate"], {"field": {"n_steps": 1}}, (2, "trajectory_summary.csv", None)),
    (["simulate"], {"field": {"n_steps": 2}}, (3, "trajectory_summary.csv", None)),
    (["simulate"], {"field": {"n_steps": 3}}, (3, "trajectory.csv", 3)),  # 4 rows: the last
    (["simulate"], None, (3, "trajectory.csv", 90)),  # 121 rows: the last 31 rows on
    # the middle trajectory's last 31 rows on, after the sweep's two files
    (["replicate", "fig6"], None, (11, "fig6_traj_amp-6.csv", 90)),
    # 2 of 4 trajectories: the third trajectory's file from its header on
    (["replicate", "conditions"], None, (14, "conditions_bbg2009_traj_no_context.csv", 0)),
    (["simulate"], FIELD_SIZE_2, (2, "trajectory_summary.csv", None)),
    (["replicate", "fig7", "--trials", "1"], FIELD_SIZE_2,
     (8, "fig7_traj_amp-6_summary.csv", None)),
], ids=["simulate-2-rows", "simulate-3-rows", "simulate-4-rows", "simulate", "fig6", "conditions",
        "simulate-field-size-2", "fig7-field-size-2"])
def test_forked_export_cut_at_a_step_row_writes_what_one_process_writes(
        command, config, split, tmp_path, capsys, monkeypatch):
    argv = command + ["--seed", "5", "--out", str(tmp_path / "o")]
    if "--trials" not in command:
        argv += ["--trials", "2"]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    forked, in_process, splits = forked_and_in_process(argv, tmp_path / "o", capsys,
                                                       monkeypatch)
    assert splits == [split]
    assert forked == in_process and forked[0] == 0


@pytest.mark.parametrize("trajectories", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 121])
@pytest.mark.parametrize("sweep", [False, True])
def test_no_cut_leaves_an_empty_side(trajectories, rows, sweep):
    traj = np.zeros((rows, 2))  # the pieces read only len() of a trajectory
    pieces = outputs._pieces(Path("o"), "s", object() if sweep else None,
                         "sweep_line" if sweep else None,
                         {str(t): traj for t in range(trajectories)})
    k = outputs._split(pieces)
    assert 0 < k < len(pieces)  # this process and the child each get a piece
    assert sum(piece[0] for piece in pieces[k:]) <= sum(piece[0] for piece in pieces) / 2 + 1e-9


# simulate's child formats the last 31 of its 121 step rows (its first piece),
# the summary and the heatmap; where it stops, this process formats the
# pieces it did not finish
@pytest.mark.parametrize("stop", ["first piece", "inside the rows", "heatmap"])
def test_export_child_that_stops_early_leaves_the_files_of_one_process(stop, tmp_path, capsys,
                                                                       monkeypatch, forks):
    parent = os.getpid()
    write_rows, write_plot = outputs._write_trajectory_rows, outputs._write_plot

    def rows(fh, traj, start, end):
        if os.getpid() != parent and stop != "heatmap":
            if stop == "inside the rows":  # five of its rows reach the memfd
                write_rows(fh, traj, start, start + 5)
                fh.flush()
            os._exit(3)
        write_rows(fh, traj, start, end)

    def plot(fh, data, kind):
        if os.getpid() != parent and stop == "heatmap":
            os._exit(3)
        write_plot(fh, data, kind)

    copies = []
    copy = outputs._File.copy

    def counted(fh, *args):
        copies.append(fh.path.name)
        return copy(fh, *args)

    monkeypatch.setattr(outputs, "_write_trajectory_rows", rows)
    monkeypatch.setattr(outputs, "_write_plot", plot)
    monkeypatch.setattr(outputs._File, "copy", counted)
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: True)
    argv = ["simulate", "--out", str(tmp_path / "o")]
    before = sorted(os.listdir("/proc/self/fd"))
    stopped = run_and_collect(argv, tmp_path / "o", capsys)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 1
    # the pieces it finished are copied from the memfd
    assert copies == (["trajectory.csv", "trajectory_summary.csv"] if stop == "heatmap" else [])
    assert_no_child_left()
    assert stopped[0] == 0 and len(stopped[2]) == 3
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: False)
    assert run_and_collect(argv, tmp_path / "o", capsys) == stopped


@pytest.mark.parametrize("call, error", [
    ("memfd_create", OSError(errno.ENOSYS, "Function not implemented")),
    ("pipe", OSError(errno.EMFILE, "Too many open files")),
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
], ids=["memfd_create", "pipe", "fork"])
def test_export_writes_every_file_here_when_its_set_up_fails(call, error, tmp_path, capsys,
                                                             monkeypatch, forks):
    def fails(*args):
        raise error

    argv = ["replicate", "fig6", "--trials", "2", "--out", str(tmp_path / "o")]
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: True)
    monkeypatch.setattr(os, call, fails)
    before = sorted(os.listdir("/proc/self/fd"))
    failed = run_and_collect(argv, tmp_path / "o", capsys)
    assert sorted(os.listdir("/proc/self/fd")) == before  # what was opened is closed
    assert "_write_forked" not in forks
    assert_no_child_left()
    assert failed[0] == 0
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: False)
    assert run_and_collect(argv, tmp_path / "o", capsys) == failed


@pytest.mark.parametrize("blocked", [None, "trajectory.csv", "trajectory.svg"])
def test_forked_export_leaves_no_file_descriptor_open(blocked, tmp_path, capfd, monkeypatch,
                                                      forks):
    out_dir = tmp_path / "o"
    if blocked:  # a directory where the file should go
        (out_dir / blocked).mkdir(parents=True)
    monkeypatch.setattr(outputs, "_fork_export", lambda trajectories: True)
    before = sorted(os.listdir("/proc/self/fd"))
    code, _, _ = run_cli(["simulate", "--out", str(out_dir)], capfd)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert code == (1 if blocked else 0) and len(forks) == 1
    assert_no_child_left()


@contextlib.contextmanager
def a_second_thread():
    """A second live Python thread for the length of the block."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_second_python_thread_keeps_the_export_in_process(tmp_path, capsys, forks):
    with a_second_thread():
        code, _, _ = run_cli(["simulate", "--out", str(tmp_path), "--quiet"], capsys)
    assert code == 0 and forks == []
    assert len(list(tmp_path.iterdir())) == 3


def test_a_second_python_thread_keeps_the_sweep_in_process(tmp_path, capsys, forks,
                                                           monkeypatch):
    argv = ["batch", "--trials", "4", "--out", str(tmp_path / "o")]
    with a_second_thread():
        beside_a_thread = run_and_collect(argv, tmp_path / "o", capsys)
    assert beside_a_thread[0] == 0 and forks == []
    monkeypatch.setattr(experiments, "_blas_threads", lambda: None)  # as with no setter
    assert run_and_collect(argv, tmp_path / "o", capsys) == beside_a_thread


def test_usage_errors_exit_two(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 2
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["replicate"], capsys)[0] == 2  # name is required
    assert run_cli(["--help"], capsys)[0] == 0


def test_out_dir_precedence(tmp_path, capsys, monkeypatch):
    # env var is the fallback...
    monkeypatch.setenv("VOTFIELD_OUT", str(tmp_path / "envout"))
    code, _, _ = run_cli(["batch", "--trials", "2", "--quiet"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "batch.csv").is_file()
    # ...config out_dir beats it...
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "cfgout")}))
    code, _, _ = run_cli(["batch", "--trials", "2", "--config", str(cfg),
                          "--quiet"], capsys)
    assert code == 0
    assert (tmp_path / "cfgout" / "batch.csv").is_file()
    # ...and --out beats both
    code, _, _ = run_cli(["batch", "--trials", "2", "--config", str(cfg),
                          "--out", str(tmp_path / "flag"), "--quiet"], capsys)
    assert code == 0
    assert (tmp_path / "flag" / "batch.csv").is_file()


def assert_help_output(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: votfield")
    assert "simulate" in proc.stdout and "replicate" in proc.stdout


def run_fresh(*args):
    """Run a fresh interpreter that imports the same votfield as this test."""
    env = dict(os.environ)
    package_root = str(Path(votfield.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_console_script_entry_point():
    # The declared console script, run in a fresh interpreter the way the
    # wrapper that pip generates for it runs it; no install step needed.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"votfield": "votfield.cli:main"}
    module, _, attr = scripts["votfield"].partition(":")
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv = ['votfield', '--help']; sys.exit({attr}())")
    assert_help_output(run_fresh("-c", code))


def test_python_dash_m_runs_the_cli():
    assert_help_output(run_fresh("-m", "votfield", "--help"))


def test_cli_import_does_not_load_scipy():
    # scipy costs about a second of start-up and is not a runtime dependency,
    # not even of the noise smoothing
    proc = run_fresh("-c", "import sys, numpy, votfield.cli; "
                           "from votfield import FieldParams, draw_noise; "
                           "draw_noise(FieldParams(noise_smooth_sigma=2.0), "
                           "numpy.random.default_rng(0)); "
                           "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("votfield") is None,
                    reason="votfield executable not on PATH (package not installed)")
def test_installed_console_script():
    assert_help_output(subprocess.run(["votfield", "--help"],
                                      capture_output=True, text=True))


def test_cli_runs_are_reproducible(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run_cli(["replicate", "fig7", "--trials", "2", "--seed", "6",
                              "--out", str(tmp_path / sub), "--quiet"], capsys)
        assert code == 0
    a = (tmp_path / "a" / "fig7.csv").read_bytes()
    b = (tmp_path / "b" / "fig7.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "fig7.svg").read_bytes() == (tmp_path / "b" / "fig7.svg").read_bytes()
