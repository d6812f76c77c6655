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
import sys
import threading
from itertools import chain, groupby
from pathlib import Path

from .config import load_config, serialize_config
from .errors import ConfigError, IntegrationDivergedError
from .experiments import (REPLICATION_ALIASES, REPLICATIONS, _default_condition, _parts,
                          _resolved, _sweep, _usable_cores, example_trajectory, replicate_named,
                          sweep_1d, sweep_2d)
from .outputs import (_File, _summary_path, _write_file, _write_plot, _write_sweep,
                      _write_trajectory_rows, _write_trajectory_summary)
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


def _pieces(out, stem, sweep, kind, trajectories):
    """A run's export as (cost, path, text writer, *its arguments) pieces in
    write order: the sweep's CSV and plot, then for each trajectory its step
    rows in up to four row ranges (the first with the header), its summary
    and its heatmap. The costs: a trajectory's rows take about twice as long
    as its heatmap, and the sweep's files and a summary are small."""
    pieces = []
    if sweep is not None:
        pieces.append((0, out / f"{stem}.csv", _write_sweep, sweep))
    if kind is not None:
        pieces.append((0, out / f"{stem}.svg", _write_plot, sweep, kind))
    for tag, traj in sorted(trajectories.items()):
        path = out / (f"{stem}_traj_{tag}.csv" if tag else f"{stem}.csv")
        rows = _parts(len(traj), -(-len(traj) // 4))
        pieces += [(2 / len(rows), path, _write_trajectory_rows, traj, r.start, r.stop)
                   for r in rows]
        pieces += [(0, _summary_path(path), _write_trajectory_summary, traj),
                   (1, path.with_suffix(".svg"), _write_plot, traj, "field_evolution_heatmap")]
    return pieces


def _write_pieces(fh, pieces):
    for _, _, write, *args in pieces:
        write(fh, *args)


def _write_here(pieces):
    """Write `pieces` in this process, each path opened once and its pieces
    written as they come; returns the paths in write order."""
    return [_write_file(path, _write_pieces, same)
            for path, same in groupby(pieces, key=lambda piece: piece[1])]


def _split(pieces):
    """Where the child's share of the pieces starts: the tail of the pieces
    up to half their total cost."""
    left = sum(piece[0] for piece in pieces) / 2
    k = len(pieces)
    while pieces[k - 1][0] <= left:
        k -= 1
        left -= pieces[k][0]
    return k


def _handed_back(pieces, memfd, ends):
    """The child's share `pieces` for `_write_here`: each one the child
    finished as a copy of its bytes in `memfd`, and from the first one it did
    not finish on, each as it is, to be formatted here. `ends` is the pipe
    that gives where each finished piece ends in `memfd`."""
    start = 0
    for piece in pieces:
        end = ends.read(8)
        if len(end) < 8:  # the child stopped
            yield piece
        else:
            end = int.from_bytes(end, sys.byteorder)
            yield (*piece[:2], _File.copy, memfd, start, end)
            start = end


def _write_forked(pieces):
    """`_write_here` with a forked child that formats the tail of the pieces
    (`_split`) into a memfd and sends through a pipe the offset where each
    piece ends, 8 bytes as each is done. This process writes every file in
    one pass over its own pieces and then the child's (`_handed_back`): a
    piece the child finished is copied from the memfd, any other is
    formatted here, so the files, their bytes and any error are those of one
    process, also where the child stops early."""
    k = _split(pieces)
    opened = []
    try:
        opened.append(os.memfd_create("votfield-export", os.MFD_CLOEXEC))
        opened += os.pipe()
        pid = os.fork()
    except OSError:  # no memfd, pipe or process to spare: write every file here
        for fd in opened:
            os.close(fd)
        return _write_here(pieces)
    memfd, read, write = opened
    if pid == 0:  # never returns: os._exit skips the caller's cleanup
        try:
            os.close(read)
            with os.fdopen(memfd, "w", encoding="utf-8", newline="", closefd=False) as fh:
                for _, _, format_piece, *args in pieces[k:]:
                    format_piece(fh, *args)
                    os.write(write, fh.tell().to_bytes(8, sys.byteorder))
        finally:  # an error stops the child; the calling process raises it again
            os._exit(0)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as ends:
            return _write_here(chain(pieces[:k], _handed_back(pieces[k:], memfd, ends)))
    finally:
        os.waitpid(pid, 0)
        os.close(memfd)


def _write(out, stem, sweep, kind, trajectories):
    """Write a run's CSV and SVG files; returns their paths in write order.
    Where `_fork_export` allows, a forked child formats about half of them."""
    pieces = _pieces(out, stem, sweep, kind, trajectories)
    return _write_forked(pieces) if _fork_export(trajectories) else _write_here(pieces)


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
