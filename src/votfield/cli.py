"""Command-line front end.

Subcommands map onto the library entry points: simulate (one trial, full
trajectory), batch (one condition), sweep1d / sweep2d (amplitude grids),
replicate (canned named campaigns), validate-config (resolve and print a
config). Every run is fully determined by the config plus --seed, so
repeating a command reproduces its outputs byte for byte. A run prints one
stats line per sweep cell (simulate: its trial's readout), then one `wrote`
line naming the files it wrote, in write order.
"""

import argparse
import logging
import os
import pickle
import sys
import threading
from pathlib import Path

from .config import load_config, serialize_config
from .errors import ConfigError, IntegrationDivergedError
from .experiments import (REPLICATION_ALIASES, REPLICATIONS, _default_condition, _resolved,
                          _sweep, _usable_cores, example_trajectory, replicate_named, sweep_1d,
                          sweep_2d)
from .outputs import (_emit_trajectory_rows, _summary_path, _write_heatmap,
                      _write_trajectory_rows, _write_trajectory_summary, emit_sweep_csv,
                      emit_trajectory_csv, render_plots)
from .readout import METHODS, trial_metrics

ENV_OUT = "VOTFIELD_OUT"  # default output directory when --out / out_dir are unset


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, metavar="N", help="override master_seed")
    common.add_argument("--out", metavar="DIR",
                        help=f"output directory (default: config out_dir, then "
                             f"${ENV_OUT}, then ./results)")
    common.add_argument("--trials", type=int, metavar="N", help="override n_trials")
    common.add_argument("--readout", choices=METHODS, help="override readout method")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational stdout and warnings")

    parser = argparse.ArgumentParser(
        prog="votfield",
        description="Stochastic neural-field simulator of voice onset time "
                    "planning under competitor input.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("simulate", parents=[common],
                   help="run one trial and export its full trajectory")
    sub.add_parser("batch", parents=[common],
                   help="run one condition's batch of trials")
    sub.add_parser("sweep1d", parents=[common],
                   help="sweep the competitor amplitude")
    sub.add_parser("sweep2d", parents=[common],
                   help="sweep competitor and target amplitudes jointly")
    rep = sub.add_parser("replicate", parents=[common],
                         help="run a canned campaign by name")
    rep.add_argument("name", choices=REPLICATIONS + tuple(REPLICATION_ALIASES),
                     help="campaign to run")
    sub.add_parser("validate-config", parents=[common],
                   help="resolve a config and print its canonical JSON")
    return parser


def _out_dir(args, cfg):
    out = args.out or cfg.out_dir or os.environ.get(ENV_OUT) or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stats_line(stats):
    c = stats.condition
    line = (f"a_target={c.a_target:g} a_mp={c.a_mp:g} n={stats.n_trials} "
            f"mean_vot={stats.mean_vot:.2f} sd={stats.sd_vot:.2f} "
            f"ch_ms={stats.ch_ms:+.2f} frac_stabilized={stats.frac_stabilized:.3f}")
    if stats.mean_time_to_threshold is not None:
        line += f" mean_ttt={stats.mean_time_to_threshold:.1f}"
    return line


def _readout_lines(result):
    def opt(v):
        return "none" if v is None else f"{v:g}"
    return [f"vot_target: {opt(result.vot_target)}",
            f"time_to_threshold: {opt(result.time_to_threshold)}",
            f"stabilized: {str(result.stabilized).lower()}",
            f"readout_method: {result.readout_method}"]


def _run(args, cfg):
    """Run the command. Returns (file stem, sweep or None, plot kind of the
    sweep or None, {tag: Trajectory}); simulate's one trajectory has tag ""."""
    if args.command == "simulate":
        traj = example_trajectory(cfg, _default_condition(cfg), cfg.master_seed)
        return "trajectory", None, None, {"": traj}
    if args.command == "batch":
        cond = _default_condition(cfg)
        return "batch", _sweep(cfg, (cond.a_target,), (cond.a_mp,)), None, {}
    if args.command == "sweep1d":
        return "sweep1d", sweep_1d(cfg), "sweep_line", {}
    if args.command == "sweep2d":
        return "sweep2d", sweep_2d(cfg), "surface_2d", {}
    rep = replicate_named(args.name, config=cfg)
    kind = "surface_2d" if rep.name == "fig12" else "sweep_line"
    return rep.name, rep.sweep, kind, rep.trajectories


def _fork_export(trajectories):
    """Whether `_write` shares the export with a forked child: where a run
    exports a trajectory (its CSV and heatmap are most of the export's cost),
    on Linux with two usable cores and memfds, and with no other Python thread
    alive, since a fork copies only the calling thread."""
    return (bool(trajectories) and sys.platform == "linux" and hasattr(os, "memfd_create")
            and threading.active_count() == 1 and _usable_cores() >= 2)


def _emit(jobs):
    """Run (cost, emitter, *args) jobs in order; returns the paths they wrote."""
    written = []
    for _, emit, *args in jobs:
        paths = emit(*args)
        written += paths if isinstance(paths, tuple) else (paths,)
    return written


def _split(jobs):
    """Where the child's share of the jobs starts: (k, cut), the child taking
    the step rows from `cut` of jobs[k] and every job after it. The share is
    the tail of the jobs up to half their total cost; a trajectory CSV that
    the half falls inside is cut at a step row, one row at least to each side."""
    left = sum(job[0] for job in jobs) / 2
    k = len(jobs)
    while jobs[k - 1][0] <= left:
        k -= 1
        left -= jobs[k][0]
    cost, emit, traj, *_ = jobs[k - 1]
    if left > 0 and emit is emit_trajectory_csv and len(traj) >= 2:
        rows = len(traj)
        return k - 1, rows - min(max(round(rows * left / cost), 1), rows - 1)
    return k, 0


def _child_files(jobs, cut):
    """The files of the child's share (trajectory jobs, the first from step row
    `cut`), as (path, whether it continues a file this process began, text
    writer and its arguments), in write order."""
    files = []
    for _, emit, traj, *_, path in jobs:
        if emit is emit_trajectory_csv:
            files.append((path, cut > 0, (_write_trajectory_rows, traj, cut, len(traj))))
            files.append((_summary_path(path), False, (_write_trajectory_summary, traj)))
        else:  # its heatmap
            files.append((path, False, (_write_heatmap, traj)))
        cut = 0
    return files


def _format(memfd, files):
    """Format `files` one after another into `memfd`; returns the offset each
    ends at, and the exception that stopped them or None."""
    ends = []
    with os.fdopen(memfd, "w", encoding="utf-8", newline="", closefd=False) as fh:
        try:
            for _, _, (write, *args) in files:
                write(fh, *args)
                ends.append(fh.tell())
        except Exception as exc:  # raised by this process, in write order
            return ends, exc
    return ends, None


def _copy(memfd, start, end, path, append):
    """Write bytes start..end of `memfd` to `path`, after what it holds if
    `append`, else in place of it (sendfile takes no O_APPEND file)."""
    flags = os.O_WRONLY if append else os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fd = os.open(path, flags, 0o666)
    try:
        if append:
            os.lseek(fd, 0, os.SEEK_END)
        while start < end:
            start += os.sendfile(fd, memfd, start, end - start)
    finally:
        os.close(fd)


def _emit_forked(jobs):
    """`_emit` with a forked child that formats the tail of the jobs (`_split`)
    into a memfd and sends back where each file ends, pickled through a pipe.
    This process writes its own share as it formats it, reaps the child, also
    when it raises, and then copies the child's bytes into their files."""
    k, cut = _split(jobs)
    own, files = jobs[:k], _child_files(jobs[k:], cut)
    if cut:
        own.append((0, _emit_trajectory_rows, jobs[k][2], jobs[k][3], cut))
    try:
        memfd = os.memfd_create("votfield-export", os.MFD_CLOEXEC)
    except OSError:  # no memfd here: write every file in this process
        return _emit(jobs)
    try:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: write every file here
            os.close(read)
            os.close(write)
            return _emit(jobs)
        if pid == 0:  # never returns: os._exit skips the caller's cleanup
            status = 1
            try:
                os.close(read)
                data = pickle.dumps(_format(memfd, files))
                with os.fdopen(write, "wb") as fh:
                    fh.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        try:
            written = _emit(own)
        finally:
            try:
                with os.fdopen(read, "rb") as fh:
                    data = fh.read()
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise ChildProcessError(f"the export's child process ended with status {status}")
        ends, error = pickle.loads(data)
        start = 0
        for (path, append, _), end in zip(files, ends):
            _copy(memfd, start, end, path, append)
            if not append:
                written.append(path)
            start = end
        if error is not None:
            raise error
        return written
    finally:
        os.close(memfd)


def _write(out, stem, sweep, kind, trajectories):
    """Write a run's CSV and SVG files; returns their paths in write order.
    Where `_fork_export` allows, a forked child formats about half of them."""
    # costs: a trajectory's CSV (with its summary) takes about twice as long
    # as its heatmap, and the sweep's own files are small
    jobs = []
    if sweep is not None:
        jobs.append((0, emit_sweep_csv, sweep, out / f"{stem}.csv"))
    if kind is not None:
        jobs.append((0, render_plots, sweep, kind, out / f"{stem}.svg"))
    for tag in sorted(trajectories):
        name = f"{stem}_traj_{tag}" if tag else stem
        jobs.append((2, emit_trajectory_csv, trajectories[tag], out / f"{name}.csv"))
        jobs.append((1, render_plots, trajectories[tag], "field_evolution_heatmap",
                     out / f"{name}.svg"))
    return _emit_forked(jobs) if _fork_export(trajectories) else _emit(jobs)


def cli_main(argv=None):
    """Parse arguments, run the requested command, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help / usage errors itself
        return int(exc.code or 0)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.ERROR if args.quiet else logging.WARNING)
    try:
        cfg = _resolved(load_config(args.config) if args.config else None,
                        args.trials, args.seed, args.readout)
        if args.command == "validate-config":
            print(serialize_config(cfg), end="")
            return 0
        out = _out_dir(args, cfg)
        stem, sweep, kind, trajectories = _run(args, cfg)
        written = _write(out, stem, sweep, kind, trajectories)
        lines = [_stats_line(stats) for stats in sweep.cells] if sweep is not None else []
        if args.command == "simulate":
            lines += _readout_lines(trial_metrics(trajectories[""], cfg.readout))
        lines.append("wrote " + ", ".join(str(p) for p in written))
        if not args.quiet:
            print("\n".join(lines))
        return 0
    except (ConfigError, IntegrationDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
