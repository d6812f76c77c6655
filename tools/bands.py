"""Check the frozen acceptance bands at master seeds 1-8.

Usage (from anywhere; the package is imported from the repository's src/):

    python3 tools/bands.py --write
    python3 tools/bands.py --check

It runs tests/test_acceptance.py under `pytest -s` once per master seed 1-8,
with the module's SEED set to that seed once the file is collected, so the
frozen file and its bands stay as they are. Each criterion prints one line,
`criterion N: <measured values and band> -> PASS|FAIL`. --write stores every
seed's lines in tools/bands.json. --check names each criterion and seed whose
line says FAIL, and each seed whose run failed without such a line, and exits
1 if there is any; it also prints each line that differs from the recorded one.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_suffix(".json")
SEEDS = range(1, 9)
LINE = re.compile(r"^[.FEsx]*(criterion (\w+): .* -> (PASS|FAIL))$")

PYTEST = """import sys
import pytest

def pytest_collection_finish(session):  # the frozen module's SEED, once collected
    for module in {item.module for item in session.items}:
        module.SEED = int(sys.argv[1])

sys.exit(pytest.main(sys.argv[2:], plugins=[sys.modules[__name__]]))
"""


def run(seed):
    """(pytest's exit code, the criterion lines) of the acceptance file at `seed`."""
    proc = subprocess.run(
        [sys.executable, "-c", PYTEST, str(seed), "-q", "-s", "--tb=no", "-rN",
         "-p", "no:cacheprovider", "tests/test_acceptance.py"],
        cwd=ROOT, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return proc.returncode, [m[1] for m in map(LINE.match, proc.stdout.splitlines()) if m]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help=f"record the lines in {RECORD.name}")
    action.add_argument("--check", action="store_true", help="fail on a band that fails")
    args = parser.parse_args()
    got, failed = {}, []
    for seed in SEEDS:
        code, lines = run(seed)
        got[str(seed)] = lines
        fails = [LINE.match(line)[2] for line in lines if line.endswith("-> FAIL")]
        failed += [f"criterion {num} at seed {seed}" for num in fails]
        if code and not fails:
            failed.append(f"seed {seed}: pytest exited with {code} and no criterion failed")
        print(f"seed {seed}: {len(lines)} criteria, {len(fails)} failed", flush=True)
    if args.write:
        RECORD.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote the lines of {len(got)} seeds to {RECORD}")
    else:
        want = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
        for seed, lines in got.items():
            for line in sorted(set(lines) - set(want.get(seed, ()))):
                print(f"changed at seed {seed}: {line}")
    for failure in failed:
        print(f"fails: {failure}")
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
