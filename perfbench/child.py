"""One benchmark child: set up votfield, run figure runs for a time budget.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH. It
records when set-up ended (interpreter start, ``import votfield``, config
resolution and the kernel build), then calls the CLI in-process one figure
run after another (a closed loop with one caller) until the budget is spent,
checking each run's files against the stored references. It times the
calibration kernel after set-up and after every figure run, for run.py's
host-speed scaling. With ``--trace 1`` it records layer spans. Everything is
written to one JSON file at the end.
"""

import argparse
import importlib.util
import json
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads


def machine_facts():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def calibrate():
    """Time a fixed kernel that mixes what the workloads do: a small-array
    NumPy field loop (gate, convolution, Euler step) and float formatting.

    The host's speed drifts by tens of percent over minutes, and the program
    slows down with it. This kernel is the benchmark's own code, so a change
    to votfield cannot speed it up; timing it next to every figure run
    measures the drift so that run.py can divide it out.
    """
    import numpy  # not at module level: import.s must include numpy's import

    n = 200
    rng = numpy.random.default_rng(0)
    d = numpy.abs(numpy.arange(-(n - 1), n, dtype=float))
    w = 2.0 * numpy.exp(-d * d / 50.0) - 0.9
    u = numpy.full(n, -5.0)
    t0 = time.perf_counter()
    noise = rng.standard_normal((80, n))
    for t in range(80):
        z = 4.0 * u
        g = numpy.empty(n)
        pos = z >= 0
        g[pos] = 1.0 / (1.0 + numpy.exp(-z[pos]))
        ez = numpy.exp(z[~pos])
        g[~pos] = ez / (1.0 + ez)
        u = u + 0.05 * (-u - 5.0 + numpy.convolve(g, w)[n - 1:2 * n - 1] + noise[t])
    vals = u.tolist() * 8
    "\n".join(f"{x},{v!r}" for x, v in enumerate(vals))
    "".join(f'<rect x="{x:.2f}" y="{v:.2f}"/>' for x, v in enumerate(vals))
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma-separated master seeds")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="output directory for figure runs")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import votfield.cli
    import_s = time.perf_counter() - t0
    from votfield import build_kernel, default_config, load_config

    cfg = default_config() if wl.config is None else load_config(wl.config)
    build_kernel(cfg.field)
    t_ready = time.monotonic()
    cals = [calibrate() for _ in range(5)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    refs = workloads.load_refs()[wl.name]
    seeds = [int(s) for s in args.seeds.split(",")]
    out = Path(args.work)

    runs = []
    t_begin = time.monotonic()
    while True:
        master = seeds[len(runs) % len(seeds)]
        shutil.rmtree(out, ignore_errors=True)
        argv = wl.cli_args(master, out)
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = votfield.cli.cli_main(argv)
            else:
                code = tracer.run_op(len(runs), votfield.cli.cli_main, argv)
        except Exception:  # a failed figure run is counted, not fatal
            code, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        cals.append(calibrate())
        if code != 0 and error is None:
            error = f"cli_main returned {code}"
        if error is None:
            try:
                found = workloads.read_outputs(wl, out)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable outputs: {exc}"
        if error is None:
            ops = workloads.check(wl, found, refs[str(master)])
        else:
            ops = [("figure run", error)] * wl.ops_per_run
        errors = [f"{name}: {err}" for name, err in ops if err]
        runs.append({"seed": master, "wall_s": wall, "cal_s": (cals[-2] + cals[-1]) / 2,
                     "ok": error is None,
                     "attempted": len(ops), "failed": len(errors), "errors": errors[:5]})
        # stop where the budget is met best: a run that would end past the
        # budget by more than half its length is not started
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.monotonic() - t_begin + typical / 2 >= args.seconds:
            break
    shutil.rmtree(out, ignore_errors=True)

    result = {"import_s": import_s, "t_ready": t_ready, "cal_s": cals,
              "runs": runs,
              "facts": machine_facts()}
    if tracer is not None:
        result.update(spans=tracer.spans, installed=sorted(tracer.installed),
                      absent=tracer.absent)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
