"""Run the benchmark several times per workload and report the spread.

Usage (from the repository root):

    python3 perfbench/repeat.py [--workloads batch,fig6] [--seeds 1-10]
        [--seconds S] [--trace 0|1] [--json FILE]

For every workload and metric it prints the unit, the median of the runs,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json; ``--seeds 1`` gives every metric of every workload from one
run each. With --json it also writes the summary and every run's result;
baseline.json was assembled from two such files and --trace 1 runs. Runs go
seed by seed, each seed through every workload, so slow drift on the host
spreads over all workloads alike.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a list a,b,c")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE", help="write every run's result here")
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    results = {name: [] for name in names}
    machine = None
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", f"{args.seconds:g}",
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results[name].append(res)
            machine = machine or next((json.loads(line[len("# machine: "):])
                                       for line in proc.stdout.splitlines()
                                       if line.startswith("# machine: ")), None)
            values = ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                               if bounds.get(k) is not None)
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} {values}", flush=True)

    summary = {}
    print(f"\n{'workload':<14}{'metric':<30}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for name in names:
        runs = results[name]
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            unit = runs[0]["metrics"][metric]["unit"]
            summary.setdefault(name, {})[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "unit": unit}
            print(f"{name:<14}{metric:<30}{unit:<7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
                  f"{'' if bound is None else f'{bound:>7.2f}'}")
    if args.json:
        out = {"machine": machine, "run_seconds": args.seconds, "summary": summary,
               "runs": results}
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
