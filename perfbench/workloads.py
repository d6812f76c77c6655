"""Workload definitions, input generation and output checks.

A workload is a sequence of figure runs: in-process calls of the votfield CLI
(``votfield.cli.cli_main``) with ``--quiet``, each with its own ``--seed``.
The master seeds come from a fixed pool whose expected outputs are stored in
``refs.json``; the benchmark's ``--seed`` only fixes the order in which the
pool is visited, so every run is checkable against stored references.

An *operation* is one sweep cell or one exported trajectory. ``check`` turns
the files a figure run wrote into a list of (operation name, error or None).
"""

import csv
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
BATCH_CONFIG = HERE / "batch.json"

# master seeds whose outputs refs.json stores
POOL = tuple(range(1, 9))

FIELD_SIZE = 200
N_STEPS = 120

# Tolerances. The CLI writes every float with repr, so the seed commit
# reproduces refs.json bit for bit. A change that only reorders float64
# arithmetic (a batched or tanh-gated engine) moves final fields by ~1e-14
# and leaves every argmax readout unchanged, so it stays well inside these.
# A change to any single trial's readout moves mean_vot by at least 1/n_trials
# (>= 4e-3 for batch, 0.1 for fig6) and any real change to the dynamics moves the final field
# by far more than 1e-9, so both are caught.
FIELD_ABS_TOL = 1e-9
STAT_REL_TOL = 1e-9
STAT_ABS_TOL = 1e-12

STAT_COLUMNS = ("n_trials", "mean_vot", "sd_vot", "sem_vot", "skewness", "ch_ms",
                "frac_stabilized", "mean_time_to_threshold")

FIG6_TRIALS = 10
FIG6_TAGS = ("amp0", "amp-3", "amp-6")
BATCH_TRIALS = 256


class Workload:
    """One workload: how to call the CLI for a master seed, and what the call
    must have written."""

    def __init__(self, name, command, cells, trials_per_cell, trajectories, config=None,
                 sweep_csv=None, sweep_svg=None):
        self.name = name
        self.command = command                # CLI subcommand and its arguments
        self.cells = cells                    # sweep cells per figure run
        self.trials_per_cell = trials_per_cell
        self.trajectories = trajectories      # exported trajectory tag -> file stem
        self.config = config
        self.sweep_csv = sweep_csv            # per-cell statistics
        self.sweep_svg = sweep_svg            # plot of the sweep

    @property
    def ops_per_run(self):
        return self.cells + len(self.trajectories)

    @property
    def trials_per_run(self):
        """Trials integrated per figure run, each (trial x cell) pair once."""
        return self.cells * self.trials_per_cell + len(self.trajectories)

    def cli_args(self, master_seed, out_dir):
        argv = list(self.command)
        if self.config is not None:
            argv += ["--config", str(self.config)]
        if self.cells:
            argv += ["--trials", str(self.trials_per_cell)]
        return argv + ["--quiet", "--seed", str(master_seed), "--out", str(out_dir)]


WORKLOADS = {
    # one cell, many trials: integration and noise dominate; no cross-cell reuse
    "batch": Workload("batch", ["batch"], cells=1, trials_per_cell=BATCH_TRIALS,
                      trajectories={}, config=BATCH_CONFIG, sweep_csv="batch.csv"),
    # the paper's headline figure: 21 cells sharing trial seeds, 3 trajectories
    "fig6": Workload("fig6", ["replicate", "fig6"], cells=21, trials_per_cell=FIG6_TRIALS,
                     trajectories={tag: f"fig6_traj_{tag}" for tag in FIG6_TAGS},
                     sweep_csv="fig6.csv", sweep_svg="fig6.svg"),
    # batch-size-1 path that keeps every state; CSV/SVG export dominates
    "trajectories": Workload("trajectories", ["simulate"], cells=0, trials_per_cell=0,
                             trajectories={"traj": "trajectory"}),
}

def schedule(seed, n_children):
    """Master seeds for each child, in visiting order, from the workload seed."""
    order = random.Random(seed).sample(POOL, len(POOL))
    return [order[k::n_children] or order for k in range(n_children)]


def load_refs():
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def _num(text):
    return math.nan if text == "" else float(text)


def read_outputs(workload, out_dir):
    """Extract what the checks compare: per-cell statistics from the sweep CSV
    and the final field of each exported trajectory."""
    out_dir = Path(out_dir)
    found = {"cells": [], "fields": {}}
    if workload.sweep_csv:
        with (out_dir / workload.sweep_csv).open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                cell = {"a_target": float(row["a_target"]), "a_mp": float(row["a_mp"])}
                cell.update((k, _num(row[k])) for k in STAT_COLUMNS)
                found["cells"].append(cell)
    if workload.sweep_svg:
        _check_svg(out_dir / workload.sweep_svg)
    for tag, stem in workload.trajectories.items():
        found["fields"][tag] = _read_final_field(out_dir / f"{stem}.csv")
        summary = (out_dir / f"{stem}_summary.csv").read_text(encoding="utf-8")
        if summary.count("\n") != N_STEPS + 2:
            raise ValueError(f"{stem}_summary.csv has {summary.count(chr(10))} lines, "
                             f"want {N_STEPS + 2}")
        _check_svg(out_dir / f"{stem}.svg")
    return found


def _read_final_field(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != 1 + (N_STEPS + 1) * FIELD_SIZE:
        raise ValueError(f"{path.name} has {len(lines)} lines")
    field = []
    for x, line in enumerate(lines[-FIELD_SIZE:]):
        step, pos, u = line.split(",")
        if int(step) != N_STEPS or int(pos) != x:
            raise ValueError(f"{path.name}: unexpected row {line!r}")
        field.append(float(u))
    return field


def _check_svg(path):
    text = path.read_text(encoding="utf-8")
    if not (text.startswith("<?xml") and text.endswith("</svg>\n") and "<rect" in text):
        raise ValueError(f"{path.name} is not a complete SVG")


def _stat_ok(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= max(STAT_ABS_TOL, STAT_REL_TOL * abs(want))


def check(workload, found, ref):
    """Compare one figure run's outputs with its stored reference.

    Returns [(operation, error or None)], one entry per sweep cell and per
    exported trajectory.
    """
    results = []
    ref_cells = ref.get("cells", [])
    cells = found["cells"]
    for i, want in enumerate(ref_cells):
        name = f"cell a_target={want['a_target']:g} a_mp={want['a_mp']:g}"
        if i >= len(cells):
            results.append((name, "missing from the sweep CSV"))
            continue
        got = cells[i]
        bad = [k for k in ("a_target", "a_mp") + STAT_COLUMNS if not _stat_ok(got[k], want[k])]
        err = None
        if bad:
            err = "; ".join(f"{k}={got[k]!r} want {want[k]!r}" for k in bad)
        elif workload.name == "fig6":
            # the paper's qualitative pattern: hyperarticulation below zero
            # competitor amplitude, trace effects above it
            a_mp, ch = got["a_mp"], got["ch_ms"]
            if (a_mp < 0 and not ch > 0) or (a_mp > 0 and not ch < 0):
                err = f"ch_ms={ch:+.3f} has the wrong sign at a_mp={a_mp:g}"
        results.append((name, err))
    if len(cells) > len(ref_cells):
        results.append(("extra cells", f"{len(cells) - len(ref_cells)} unexpected rows"))
    for tag, want in ref.get("fields", {}).items():
        got = found["fields"].get(tag)
        if got is None:
            results.append((f"trajectory {tag}", "not exported"))
            continue
        dev = max(abs(g - w) for g, w in zip(got, want))
        err = None if dev <= FIELD_ABS_TOL else f"final field deviates by {dev:.3g}"
        results.append((f"trajectory {tag}", err))
    return results
