"""Check that the CLI's runs give the bytes recorded in tools/bytecheck.json.

Usage (from anywhere; the CLI is imported from the repository's src/):

    python3 tools/bytecheck.py --write [--one-process]
    python3 tools/bytecheck.py --check [--one-process]

It runs 57 CLI runs: simulate, batch --trials 300, sweep2d --trials 2,
replicate fig6|fig7|conditions --trials 10 and replicate fig12 --trials 2
at seeds 1-8, plus replicate fig6 --trials 500 --seed 1. Each runs in a
fresh temporary directory with the relative --out `out`, so the `wrote`
line is the same from run to run, and the sha256 of every output file, of
stdout and of stderr, and the exit code, are recorded per run. --write
stores them in the JSON file; --check compares with it, prints each entry
that differs and exits 1 if any does. --one-process runs the CLI with
`experiments._can_fork` (and the name `outputs` imports from it) forced
False, so that the sweep and the export stay in one process; its bytes
must equal the forked runs'.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_suffix(".json")

COMMANDS = (["simulate"], ["batch", "--trials", "300"], ["sweep2d", "--trials", "2"],
            ["replicate", "fig6", "--trials", "10"], ["replicate", "fig7", "--trials", "10"],
            ["replicate", "conditions", "--trials", "10"],
            ["replicate", "fig12", "--trials", "2"])
RUNS = [cmd + ["--seed", str(seed)] for cmd in COMMANDS for seed in range(1, 9)]
RUNS.append(["replicate", "fig6", "--trials", "500", "--seed", "1"])

CLI = """import sys
from votfield import cli, experiments, outputs
if sys.argv[1] == "one-process":
    experiments._can_fork = outputs._can_fork = lambda: False
sys.exit(cli.cli_main(sys.argv[2:]))
"""


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run(argv, one_process):
    """{entry: hash or exit code} of one CLI run in a fresh directory."""
    name = " ".join(argv)
    mode = "one-process" if one_process else "forked"
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", CLI, mode] + argv + ["--out", "out"], cwd=tmp,
            capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=False)
        entries = {f"{name} :: exit": proc.returncode, f"{name} :: stdout": _sha(proc.stdout),
                   f"{name} :: stderr": _sha(proc.stderr)}
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                entries[f"{name} :: {path.relative_to(tmp).as_posix()}"] = _sha(path.read_bytes())
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help=f"record the hashes in {RECORD.name}")
    action.add_argument("--check", action="store_true", help=f"compare with {RECORD.name}")
    parser.add_argument("--one-process", action="store_true",
                        help="keep the sweep and the export in one process")
    args = parser.parse_args()
    got = {}
    for argv in RUNS:
        got.update(run(argv, args.one_process))
    if args.write:
        RECORD.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} entries of {len(RUNS)} runs to {RECORD}")
        return 0
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    differ = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    for key in differ:
        print(f"differs: {key}: recorded {want.get(key)}, got {got.get(key)}")
    print(f"{len(RUNS)} runs, {len(got)} entries, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
