"""Command-line front end.

Subcommands map onto the library entry points: simulate (one trial, full
trajectory), batch (one condition), sweep1d / sweep2d (amplitude grids),
replicate (canned named campaigns), validate-config (resolve and print a
config). Every run is fully determined by the config plus --seed, so
repeating a command reproduces its outputs byte for byte.
"""

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .config import default_config, load_config, serialize_config
from .errors import ConfigError, IntegrationDivergedError
from .experiments import (_default_condition, _sweep, example_trajectory,
                          replicate_named, sweep_1d, sweep_2d, trial_seed)
from .outputs import emit_sweep_csv, emit_trajectory_csv, render_plots
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
    rep.add_argument("name", choices=("fig6", "fig7", "fig12",
                                      "conditions", "conditions_bbg2009"),
                     help="campaign to run")
    sub.add_parser("validate-config", parents=[common],
                   help="resolve a config and print its canonical JSON")
    return parser


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    updates = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.trials is not None:
        updates["n_trials"] = args.trials
    if args.readout is not None:
        updates["readout"] = args.readout
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _out_dir(args, cfg):
    out = args.out or cfg.out_dir or os.environ.get(ENV_OUT) or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _say(quiet, msg):
    if not quiet:
        print(msg)


def _fmt_opt(v, spec="{:.2f}"):
    return "none" if v is None else spec.format(v)


def _print_stats(quiet, stats):
    c = stats.condition
    line = (f"a_target={c.a_target:g} a_mp={c.a_mp:g} n={stats.n_trials} "
            f"mean_vot={stats.mean_vot:.2f} sd={stats.sd_vot:.2f} "
            f"ch_ms={stats.ch_ms:+.2f} frac_stabilized={stats.frac_stabilized:.3f}")
    if stats.mean_time_to_threshold is not None:
        line += f" mean_ttt={stats.mean_time_to_threshold:.1f}"
    _say(quiet, line)


def _cmd_simulate(args, cfg, out):
    traj = example_trajectory(cfg, _default_condition(cfg), cfg.master_seed, trial_index=0)
    result = trial_metrics(traj, cfg.readout, seed=trial_seed(cfg.master_seed, 0))
    csv_path, summary_path = emit_trajectory_csv(traj, out / "trajectory.csv")
    svg_path = render_plots(traj, "field_evolution_heatmap", out / "trajectory.svg")
    _say(args.quiet, f"vot_target: {_fmt_opt(result.vot_target, '{:g}')}")
    _say(args.quiet, f"time_to_threshold: {_fmt_opt(result.time_to_threshold, '{:g}')}")
    _say(args.quiet, f"stabilized: {str(result.stabilized).lower()}")
    _say(args.quiet, f"readout_method: {result.readout_method}")
    _say(args.quiet, f"wrote {csv_path}, {summary_path}, {svg_path}")
    return 0


def _cmd_batch(args, cfg, out):
    cond = _default_condition(cfg)
    result = _sweep(cfg, (cond.a_target,), (cond.a_mp,))
    _print_stats(args.quiet, result.cells[0])
    path = emit_sweep_csv(result, out / "batch.csv")
    _say(args.quiet, f"wrote {path}")
    return 0


def _cmd_sweep(args, cfg, out, two_d):
    result = sweep_2d(cfg) if two_d else sweep_1d(cfg)
    for stats in result.cells:
        _print_stats(args.quiet, stats)
    stem = "sweep2d" if two_d else "sweep1d"
    csv_path = emit_sweep_csv(result, out / f"{stem}.csv")
    kind = "surface_2d" if two_d else "sweep_line"
    svg_path = render_plots(result, kind, out / f"{stem}.svg")
    _say(args.quiet, f"wrote {csv_path}, {svg_path}")
    return 0


def _cmd_replicate(args, cfg, out):
    rep = replicate_named(args.name, config=cfg)
    for stats in rep.sweep.cells:
        _print_stats(args.quiet, stats)
    written = [emit_sweep_csv(rep.sweep, out / f"{rep.name}.csv")]
    kind = "surface_2d" if rep.name == "fig12" else "sweep_line"
    written.append(render_plots(rep.sweep, kind, out / f"{rep.name}.svg"))
    for tag in sorted(rep.trajectories):
        traj = rep.trajectories[tag]
        csv_path, summary_path = emit_trajectory_csv(
            traj, out / f"{rep.name}_traj_{tag}.csv")
        written += [csv_path, summary_path,
                    render_plots(traj, "field_evolution_heatmap",
                                 out / f"{rep.name}_traj_{tag}.svg")]
    _say(args.quiet, "wrote " + ", ".join(str(p) for p in written))
    return 0


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
        cfg = _resolve_config(args)
        if args.command == "validate-config":
            print(serialize_config(cfg), end="")
            return 0
        out = _out_dir(args, cfg)
        if args.command == "simulate":
            return _cmd_simulate(args, cfg, out)
        if args.command == "batch":
            return _cmd_batch(args, cfg, out)
        if args.command == "sweep1d":
            return _cmd_sweep(args, cfg, out, two_d=False)
        if args.command == "sweep2d":
            return _cmd_sweep(args, cfg, out, two_d=True)
        return _cmd_replicate(args, cfg, out)
    except (ConfigError, IntegrationDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
