"""Benchmark for burau-lab: one closed-loop client in one process.

    python3 bench/run.py --workload closure --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each op starts when the previous one returns; there are no threads and no
worker pool. Every op is one verdict, checked against an answer known
independently of the code under test (see workloads.py). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every op traced and,
for the tracing overhead, once more untraced, and reports the per-layer
metrics. The metric names and units are those of ``BENCHMARK.json``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results and spans go to
``.bench_out/`` at the root of the checkout.

The package is imported from ``src/`` of the checkout that holds this
file; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, WorkCounts, untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Each run sets up fresh interpreters this many times before the timed phase
# and this many times after it, and reports the median: set-up time follows
# the machine's state over seconds, so the probes are spread over the run.
SETUP_PROBES = (2, 3)
# On a shared VM the machine's speed can drift by 20% and more over minutes.
# A fixed pure-Python loop measures that speed next to each quantity: before
# every op group of the timed phase, and around the set-up in each set-up
# probe's own interpreter. End-to-end times are reported at the speed where
# the loop takes REFERENCE_S: each is scaled by REFERENCE_S over the median
# loop time timed next to it. Raw figures are printed and kept in the record.
REFERENCE_ITERS = 20_000
REFERENCE_S = 0.0013
PROBE_LOOPS = 20
# p90 needs at least 10 ops beyond it, so a run makes at least 100 ops,
# even when that takes longer than --seconds (but never longer than this).
MIN_OPS = 100
MAX_SECONDS = 120.0

CACHES = (
    ("burau", "burau_generator"),
    ("burau", "_letter_action"),
    ("burau", "_specialized_letter_action"),
    ("monodromy", "_rho_letter"),
    ("cyclotomic", "_field"),
    ("cyclotomic", "cyclotomic_polynomial"),
)


def declared_units(trace: bool) -> dict[str, str]:
    """The metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def reference_loop_s() -> float:
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i * i
    return perf_counter() - start


def import_package():
    sys.path.insert(0, str(SRC))
    import burau_lab

    if Path(burau_lab.__file__).resolve().parent != SRC / "burau_lab":
        raise ImportError(f"burau_lab imported from {burau_lab.__file__}, not {SRC}")
    return burau_lab


# -- set-up ----------------------------------------------------------------------


def setup_probe(workload_name: str) -> dict[str, float]:
    """Set up in this (fresh) interpreter: import the package, invert the
    generator images, fill the roots' tables. The reference loop is timed
    before and after, in this interpreter, to scale ``setup_s``."""
    loops = [reference_loop_s() for _ in range(PROBE_LOOPS)]
    t0 = perf_counter()
    import_package()
    t1 = perf_counter()
    from workloads import WORKLOADS, fill_generators

    workload = WORKLOADS[workload_name]
    t2 = perf_counter()
    fill_generators(workload.strand_counts)
    t3 = perf_counter()
    workload.fill_roots()
    t4 = perf_counter()
    loops += [reference_loop_s() for _ in range(PROBE_LOOPS)]
    return {
        "setup.import_s": t1 - t0,
        "setup.generator_inverse_s": t3 - t2,
        "setup.root_fill_s": t4 - t3,
        "setup_s": (t1 - t0) + (t4 - t2),
        "reference_loop_s": statistics.median(loops),
    }


def setup_probes(workload_name: str, count: int) -> list[dict[str, float]]:
    probes = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload_name],
            capture_output=True, text=True, timeout=150, check=True,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# -- timed phase -------------------------------------------------------------------


def cache_snapshot(package) -> dict[str, tuple[int, int] | None]:
    snap = {}
    for module, name in CACHES:
        fn = getattr(getattr(package, module), name, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        snap[name] = None if info is None else (info.hits, info.misses)
    return snap


def nearest_rank(sorted_values: list[float], fraction: float) -> tuple[float, int]:
    """The nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * fraction))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_op(op, call) -> tuple[object, dict | None, float]:
    """Run one op: (verdict, outputs, seconds). An op that raises gets the
    exception as its verdict, which never equals an expected answer."""
    t0 = perf_counter()
    try:
        verdict, outputs = op.run(call)
    except Exception as exc:
        verdict, outputs = f"raised {type(exc).__name__}: {exc}", None
    return verdict, outputs, perf_counter() - t0


def tally(table: dict, op, verdict) -> None:
    key = (op.kind, op.label, repr(op.expected), repr(verdict))
    table[key] = table.get(key, 0) + 1


def listed(table: dict) -> list[dict]:
    return [
        {"kind": k, "input": label, "expected": exp, "got": got, "count": c}
        for (k, label, exp, got), c in sorted(table.items())
    ]


def measure(package, workload, context, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    counts = WorkCounts(package.free_reduce)
    stream = workload.groups(context, seed)
    latencies: list[float] = []
    references: list[float] = []
    overhead_ratios: list[float] = []
    failures: dict[tuple, int] = {}
    known: dict[tuple, int] = {}
    attempted = failed = runs = 0
    before = cache_snapshot(package)
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and attempted >= MIN_OPS) or elapsed >= MAX_SECONDS:
            break
        references.append(reference_loop_s())
        for op in next(stream):
            if op.known_defect:
                tally(known, op, run_op(op, untraced)[0])
                runs += 1
                continue
            if trace:
                # The op runs traced and once more untraced, in alternating
                # order, so the overhead is measured on identical work.
                untraced_first = attempted % 2 == 0
                if untraced_first:
                    plain = run_op(op, untraced)
                tracer.begin(attempted)
                t0 = perf_counter()
                verdict, outputs, duration = run_op(op, tracer.call)
                tracer.end(f"op.{op.kind}", t0, t0 + duration)
                if not untraced_first:
                    plain = run_op(op, untraced)
                counts.add(outputs)
                overhead_ratios.append(plain[2] / duration)
                verdicts = (verdict, plain[0])
                runs += 2
            else:
                verdict, _, duration = run_op(op, untraced)
                latencies.append(duration)
                verdicts = (verdict,)
                runs += 1
            attempted += 1
            wrong = [v for v in verdicts if v != op.expected]
            if wrong:
                failed += 1
                tally(failures, op, wrong[0])
    elapsed = perf_counter() - start
    after = cache_snapshot(package)

    reference = statistics.median(references)
    result = {
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": elapsed,
        "reference_loop_s": reference,
        "failures": listed(failures),
        "known_defects": listed(known),
    }
    if not trace:
        lat = sorted(latencies)
        p50, _ = nearest_rank(lat, 0.5)
        p90, result["ops_beyond_p90"] = nearest_rank(lat, 0.9)
        result["raw"] = {
            "ops_per_s": attempted / sum(lat),
            "op_ms_p50": 1000 * p50,
            "op_ms_p90": 1000 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result

    layers = tracer.layer_metrics()
    layers.update(counts.metrics())
    for name, was in before.items():
        now = after[name]
        hits, misses = (0, 0) if was is None else (now[0] - was[0], now[1] - was[1])
        lookups = hits + misses
        layers[f"cache.{name}.hit_ratio"] = hits / lookups if lookups else 0.0
        layers[f"cache.{name}.lookups_per_op"] = lookups / runs
    layers["trace.overhead_frac"] = 1 - statistics.median(overhead_ratios)
    layers["machine.reference_loop_ms"] = 1000 * reference
    result["per_layer"] = layers
    result["caches_absent"] = [name for name, snap in before.items() if snap is None]
    result["tracer"] = tracer
    return result


# -- provenance ---------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree. Git
    does not look above the checkout for a repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "burau_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
    }


# -- one workload ------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    units = declared_units(trace)
    probes = setup_probes(name, SETUP_PROBES[0])
    package = import_package()
    from workloads import WORKLOADS, fill_generators

    workload = WORKLOADS[name]
    fill_generators(workload.strand_counts)
    context = workload.fill_roots()
    result = measure(package, workload, context, seed, seconds, trace)
    probes += setup_probes(name, SETUP_PROBES[1])
    setup = {key: statistics.median(p[key] for p in probes) for key in probes[0]}

    if trace:
        metrics = dict(result.pop("per_layer"))
        metrics.update({k: v for k, v in setup.items() if k.startswith("setup.")})
    else:
        raw = result["raw"]
        raw["setup_s"] = setup["setup_s"]
        scale = REFERENCE_S / result["reference_loop_s"]
        metrics = {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_ms_p50": raw["op_ms_p50"] * scale,
            "op_ms_p90": raw["op_ms_p90"] * scale,
            # Each probe's set-up is scaled by the loop timed in its own interpreter.
            "setup_s": statistics.median(
                p["setup_s"] * REFERENCE_S / p["reference_loop_s"] for p in probes
            ),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}"
        )
    attempted, failed = result["attempted"], result["failed"]
    info = machine(seed)

    print(f"burau-lab benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"ops: {attempted} attempted in {result['elapsed_s']:.2f} s, {failed} failed, "
          f"fail_ratio {failed / attempted:.6f}")
    print(f"reference loop: {1000 * result['reference_loop_s']:.4f} ms in the timed phase, "
          f"{1000 * setup['reference_loop_s']:.4f} ms in the set-up probes "
          f"(end-to-end times below are scaled to {1000 * REFERENCE_S:g} ms)")
    if not trace:
        print(f"ops beyond p90: {result['ops_beyond_p90']}")
        print("raw: " + ", ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    for failure in result["failures"]:
        print(f"  FAILED {failure['kind']} {failure['input']}: expected "
              f"{failure['expected']}, got {failure['got']} (x{failure['count']})")
    for defect in result["known_defects"]:
        status = "now passes" if defect["got"] == defect["expected"] else "still fails"
        print(f"  KNOWN DEFECT, not gated ({status}) {defect['kind']} {defect['input']}: "
              f"expected {defect['expected']}, got {defect['got']} (x{defect['count']})")
    for key in units:
        print(f"  {key:<48} {metrics[key]:.6g} {units[key]}")
    print(f"  {'fail_ratio':<48} {failed / attempted:.6g} ratio")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        result.pop("tracer").write(stem.with_suffix(".spans.jsonl"))
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace), "machine": info,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "fail_ratio": failed / attempted, "setup_probes": probes, **result,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    names = ("closure", "diagram", "certify")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "burau_lab" / "__init__.py").is_file():
        print(f"error: no burau_lab package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in names:
        done = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = max(status, done.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
