"""Golden CLI transcripts, run through an installed command.

Every case of ``tests/data/cli/cases.json``, and ``moduli kernel-table``
against ``tests/data/kernel_table.txt``, is run as a child process of the
given command with BURAU_LAB_SEED unset. Its stdout must equal the
recorded bytes and its exit code the recorded code. The test suite checks
the same transcripts in-process; this script checks the console script
that an install builds, and uses only the standard library, so it runs
where nothing but the package is installed:

    python tests/golden_cli.py burau-lab
    python tests/golden_cli.py python -m burau_lab.cli

The command is first run once with ``--help``; if that fails, its
stderr is printed once and the script exits 2 without running the cases
(a command that cannot import the package, such as ``python -m
burau_lab.cli`` from a checkout without ``PYTHONPATH=src``). Otherwise it
exits 0 when every case matches and 1 otherwise; pytest does not collect
this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def cases() -> list[tuple[list[str], Path, int]]:
    recorded = json.loads((DATA / "cli" / "cases.json").read_text())
    return [
        (case["argv"], DATA / "cli" / case["stdout"], case["exit_code"])
        for case in recorded
    ] + [(["moduli", "kernel-table"], DATA / "kernel_table.txt", 0)]


def main(command: list[str]) -> int:
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    env = {key: value for key, value in os.environ.items() if key != "BURAU_LAB_SEED"}
    probe = subprocess.run([*command, "--help"], env=env, capture_output=True)
    if probe.returncode != 0:
        sys.stderr.write(probe.stderr.decode(errors="replace"))
        print(
            f"{' '.join(command)} --help exited {probe.returncode}; no transcript was run. "
            "From a checkout, run it with PYTHONPATH=src or install the package.",
            file=sys.stderr,
        )
        return 2
    bad = 0
    every = cases()
    for argv, stdout, exit_code in every:
        done = subprocess.run([*command, *argv], env=env, capture_output=True)
        if done.stdout != stdout.read_bytes() or done.returncode != exit_code:
            bad += 1
            print(f"MISMATCH {stdout.name}: exit {done.returncode}, expected {exit_code}")
            sys.stdout.write(done.stderr.decode(errors="replace"))
    print(f"{len(every) - bad} of {len(every)} transcripts match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
