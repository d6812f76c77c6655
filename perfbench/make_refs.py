"""Regenerate refs.json: the expected outputs of every pool master seed.

Run from the repository root with the package importable, for example
``PYTHONPATH=src python3 perfbench/make_refs.py``. Only regenerate on a
commit whose simulation results are known to be right; the benchmark's
output checks compare against what this writes.
"""

import json
import shutil
import sys
from pathlib import Path

import workloads
from votfield.cli import cli_main


def main():
    out = Path(".perfbench_work") / "refs"
    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        refs[name] = {}
        for master in workloads.POOL:
            shutil.rmtree(out, ignore_errors=True)
            if cli_main(wl.cli_args(master, out)) != 0:
                sys.exit(f"{name} seed {master}: the CLI failed")
            refs[name][str(master)] = workloads.read_outputs(wl, out)
            print(f"{name} seed {master}: done", flush=True)
    shutil.rmtree(out, ignore_errors=True)
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")


if __name__ == "__main__":
    main()
