"""Command-line front end.

Subcommands map onto the library entry points: simulate (one trial, full
trajectory), batch (one condition), sweep1d / sweep2d (amplitude grids),
replicate (canned named campaigns), validate-config (resolve and print a
config). Every run is fully determined by the config plus --seed, so
repeating a command reproduces its outputs byte for byte. A run prints one
stats line per sweep cell (simulate: its trial's readout), then one `wrote`
line naming the files it wrote, in write order. Which files a run writes,
and how, is `outputs.write_run`'s decision.
"""

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

from .config import load_config, serialize_config
from .errors import ConfigError, IntegrationDivergedError
from .experiments import (REPLICATION_ALIASES, REPLICATIONS, _default_condition, _resolved,
                          _sweep, example_trajectory, replicate_named, sweep_1d, sweep_2d)
from .outputs import write_run
from .readout import METHODS, trial_metrics

ENV_OUT = "VOTFIELD_OUT"  # default output directory when --out / out_dir are unset


@functools.cache  # parse_args keeps no state, so one parser serves every run
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
        written = write_run(out, stem, sweep, kind, trajectories)
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
