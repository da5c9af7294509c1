"""List the package code that no program path reaches.

Every line of ``src/burau_lab`` that runs is recorded with
``sys.settrace`` while two kinds of program path run in this process:

- every golden CLI case of ``tests/data/cli/cases.json``, and ``moduli
  kernel-table``, through ``burau_lab.cli.main`` with BURAU_LAB_SEED
  unset and the output discarded;
- each workload of ``bench/workloads.py`` (closure, diagram and certify):
  its warm-up, then its op stream at seed 7 for 3 seconds, each op run as
  the benchmark runs it at ``--trace 0``, but untimed and unchecked.

Then, per module, it prints the functions that never ran and, inside the
functions that did, the lines that never ran. A line counts when the
compiler gives it an instruction, so a line that only cleans up after an
exception can show as never run. Run from anywhere:

    python tests/reach_audit.py

``bench/`` is imported, never written. Only the standard library is used.
The list is a figure to read, not a check: the script always exits 0, and
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "burau_lab"
CASES = ROOT / "tests" / "data" / "cli" / "cases.json"
SECONDS = 3.0  # per workload
SEED = 7


def function_lines(path: Path) -> dict[tuple[int, str], set[int]]:
    """For each function of a module, keyed by (first line, name): the
    lines the compiler gives an instruction, less the ``def`` line itself. Module and class bodies, which run on import,
    are left out; a function nested in another is listed on its own."""
    found = {}
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if not code.co_flags & inspect.CO_NEWLOCALS:
            continue
        lines = {line for _, _, line in code.co_lines() if line is not None}
        found[code.co_firstlineno, code.co_name] = lines - {code.co_firstlineno}
    return found


class Recorder:
    """The ``sys.settrace`` hook: the functions entered and the lines run
    in the package's files, and nothing anywhere else."""

    def __init__(self, files: set[str]):
        self.files = files
        self.calls: set[tuple[str, int, str]] = set()
        self.lines: set[tuple[str, int]] = set()

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        self.calls.add((code.co_filename, code.co_firstlineno, code.co_name))
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line


def run_cli_cases() -> int:
    """Run every golden case and ``moduli kernel-table``; the count run."""
    from burau_lab import cli

    argvs = [case["argv"] for case in json.loads(CASES.read_text())]
    argvs.append(["moduli", "kernel-table"])
    seed = os.environ.pop("BURAU_LAB_SEED", None)
    try:
        for argv in argvs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(list(argv))
    finally:
        if seed is not None:
            os.environ["BURAU_LAB_SEED"] = seed
    return len(argvs)


def run_workload(name: str, seed: int, seconds: float) -> int:
    """Warm one workload up and run its ops for ``seconds``; the op count."""
    from workloads import WORKLOADS, fill_generators

    workload = WORKLOADS[name]
    fill_generators(workload.strand_counts)
    stream = workload.groups(workload.fill_roots(), seed)
    ops, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in next(stream):
            try:
                op.run(lambda _name, fn, *args: fn(*args))
            except Exception:  # a wrong answer or a raise is the benchmark's to report
                pass
            ops += 1
    return ops


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "a-b" runs: 3, 4, 5, 9 -> "3-5, 9"."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # nothing is written under bench/ or src/

    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    recorder = Recorder(set(modules))
    sys.settrace(recorder)
    try:
        cases = run_cli_cases()
        ops = {name: run_workload(name, SEED, SECONDS)
               for name in ("closure", "diagram", "certify")}
    finally:
        sys.settrace(None)

    print(f"traced: {cases} CLI runs, then "
          + ", ".join(f"{name} {count} ops" for name, count in ops.items())
          + f" ({SECONDS:g} s each, seed {SEED})")
    for filename, path in modules.items():
        functions = function_lines(path)
        never = []
        partly = []
        for (first, name), lines in sorted(functions.items()):
            if (filename, first, name) not in recorder.calls:
                never.append(f"{name} ({first})")
                continue
            missed = sorted(line for line in lines if (filename, line) not in recorder.lines)
            if missed:
                partly.append(f"{name} ({first}): {ranges(missed)}")
        print(f"{path.name}: {len(never)} of {len(functions)} functions never ran, "
              f"{len(partly)} ran in part")
        for text in never:
            print(f"  never ran: {text}")
        for text in partly:
            print(f"  lines never run in {text}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
