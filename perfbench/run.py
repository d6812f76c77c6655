"""votfield benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {batch,fig6,trajectories} --seed N \
        --seconds S --trace {0,1}

The run starts CHILDREN fresh interpreters one after another. Each sets up
(interpreter start, ``import votfield``, config resolution, kernel build) and
then runs figure runs of the workload, one after another from one caller (a
closed loop), for S / CHILDREN seconds; see child.py and workloads.py.

End-to-end metrics (``--trace 0``, every child untraced):

    setup_s       child start to first trial ready; median over the children
    wall_s        one figure run, first trial to last output file written;
                  median over the figure runs
    trials_per_s  (trial x cell) pairs integrated per second of wall_s, at
                  200 neurons x 120 steps
    peak_rss_mb   peak resident memory of a child (os.wait4); median

The host this was built on runs at two speeds that alternate every few
seconds and differ by up to 1.9x, with the mix drifting over minutes. So every
time is scaled to a reference host speed: child.calibrate() times a fixed
kernel of the benchmark's own right after set-up and between figure runs, and
a time t becomes t * CAL_REF_S / (calibration time around it). A change to
votfield cannot move the kernel, so a real speed-up shows in full. The
unscaled medians are printed too.

With ``--trace 1`` the first child runs untraced and the others traced; the
result carries the per-layer metrics of tracing.PER_LAYER, per figure run,
and trace.overhead_frac compares traced with untraced wall_s.

Human-readable lines (starting with "#") come first, among them the machine
facts, error_rate (failed / attempted operations), cpu_util and, on
trajectories, traj_p50_ms / traj_p90_ms. The last line of standard output is
the JSON result. The exit code is 0 whenever a result is printed, also when
an output check failed (then "correct" is false).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
CHILDREN = 3
CAL_REF_S = 0.008  # calibration kernel time at the reference host speed
DEADLINE_S = 170.0  # the whole run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_child(argv, env, deadline, log):
    """Start a child, wait for it with os.wait4, and return (spawn time,
    exit code, rusage). Kills the child if the run's deadline passes."""
    with open(log, "w", encoding="utf-8") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return t_spawn, proc.returncode, usage
                if time.monotonic() > deadline:
                    raise BenchError(f"child {argv[1:4]} exceeded the run deadline")
                time.sleep(0.01)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()


def run(args):
    if not (ROOT / "src" / "votfield" / "__init__.py").is_file():
        raise BenchError(f"no votfield source tree at {ROOT / 'src'}")
    wl = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        children = []
        for k, seeds in enumerate(workloads.schedule(args.seed, CHILDREN)):
            traced = bool(args.trace) and k > 0
            result_path = work / f"child{k}.json"
            argv = [sys.executable, str(HERE / "child.py"), "--workload", wl.name,
                    "--seeds", ",".join(map(str, seeds)),
                    "--seconds", repr(args.seconds / CHILDREN),
                    "--trace", str(int(traced)), "--work", str(work / f"out{k}"),
                    "--result", str(result_path)]
            t_spawn, code, usage = run_child(argv, env, deadline, work / f"child{k}.log")
            if code != 0:
                raise BenchError(f"child {k} exited with {code}:\n"
                                 + (work / f"child{k}.log").read_text())
            res = json.loads(result_path.read_text(encoding="utf-8"))
            res.update(traced=traced, setup_s=res["t_ready"] - t_spawn,
                       peak_rss_mb=usage.ru_maxrss / 1024.0,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       life_s=time.monotonic() - t_spawn)
            children.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    return wl, children


def summarize(wl, children, trace):
    runs = [r for c in children for r in c["runs"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    untraced = [r for c in children if not c["traced"] for r in c["runs"]]
    ok = [r for r in untraced if r["ok"]] or untraced  # all failed: report anyway
    wall = statistics.median(r["wall_s"] * CAL_REF_S / r["cal_s"] for r in ok)
    raw_wall = statistics.median(r["wall_s"] for r in ok)
    cpu_util = statistics.median(c["cpu_s"] / c["life_s"] for c in children)
    facts = dict(children[0]["facts"], nproc=os.cpu_count(), git_sha=git_sha())
    lines = [f"# machine: {json.dumps(facts)}"]
    lines += [f"# FAILED seed {r['seed']}: {err}" for r in runs for err in r["errors"]]
    lines.append(f"# workload {wl.name}: {len(runs)} figure runs in {len(children)} children, "
                 f"{attempted} operations, {failed} failed, "
                 f"error_rate {failed / attempted:.4g}")
    if not trace:
        metrics = {
            "setup_s": statistics.median(
                c["setup_s"] * CAL_REF_S / statistics.median(c["cal_s"]) for c in children),
            "wall_s": wall,
            "trials_per_s": wl.trials_per_run / wall,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        }
        units = END_TO_END
        lines.append(f"# wall_s is the median of {len(ok)} figure runs; trials_per_s counts "
                     f"{wl.trials_per_run} trials (200 neurons x 120 steps) per figure run")
        raw_setup = statistics.median(c["setup_s"] for c in children)
        cal = statistics.median(x for c in children for x in c["cal_s"])
        lines.append(f"# unscaled medians: setup {raw_setup:.4g} s, wall {raw_wall:.4g} s; "
                     f"calibration kernel median {cal * 1e3:.3g} ms "
                     f"(reference {CAL_REF_S * 1e3:g} ms)")
        if wl.name == "trajectories" and len(ok) >= 2:
            p90 = statistics.quantiles([r["wall_s"] * CAL_REF_S / r["cal_s"] for r in ok], n=10)[8]
            lines.append(f"# traj_p50_ms {wall * 1e3:.2f} ms, traj_p90_ms {p90 * 1e3:.2f} ms "
                         f"over {len(ok)} exported trajectories")
        lines.append(f"# error_rate {failed / attempted:.4g} (failed/attempted operations), "
                     f"cpu_util {cpu_util:.3f} (diagnostic: CPU s per wall s, median child)")
    else:
        traced = [r["wall_s"] * CAL_REF_S / r["cal_s"]
                  for c in children if c["traced"] for r in c["runs"] if r["ok"]]
        installed = set().union(*(c.get("installed", ()) for c in children))
        metrics = tracing.layer_metrics([c["spans"] for c in children if c["traced"]],
                                        installed)
        metrics["import.s"] = statistics.median(c["import_s"] for c in children)
        metrics["trace.overhead_frac"] = (statistics.median(traced) / wall - 1.0
                                          if traced else None)
        metrics["proc.cpu_util"] = cpu_util
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        absent = sorted(set().union(*(c.get("absent", ()) for c in children)))
        if absent:
            lines.append(f"# absent layers (reported as 0): {', '.join(absent)}")
        lines.append(f"# per-layer values are per figure run over {len(traced)} traced runs")
    for name, unit in units.items():
        value = metrics[name]
        lines.append(f"# {name} = {'absent' if value is None else f'{value:.6g}'} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0.0 if metrics[name] is None else metrics[name],
                           "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        wl, children = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    lines, result = summarize(wl, children, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
