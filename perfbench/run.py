"""Benchmark harness for fadenet.

Runs one workload through ``fadenet.cli.main`` in-process (stdout and stderr
captured), checks every output, and prints each metric by name with its
unit.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones; see spans.py.  The program is imported from the ``src``
directory beside this one, and the metric names and units come from the
``BENCHMARK.json`` there.  NOTES.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the workloads, metrics and units this harness must produce
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one BLAS thread per process, so 2 sweep workers mean 2 busy threads
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one small sweep touches every lazy set-up the workloads need: scipy's
# special functions, the first LAPACK call, the bounds and the estimator
WARMUP = [
    "sweep", "--gen", "diagonal:2", "--grid", "8,16,3",
    "--outer", "100", "--inner", "100", "--seed", "0",
]
SETUP_SAMPLES = 3  # one in this process, the rest in fresh interpreters
# A fixed calibration sample, timed just before and just after each timed op
# of a workload with calibration_repeats > 0 (chain and bounds).
# The op's time over the sample's time stays put while the shared machine's
# speed drifts from run to run; see NOTES.md.
CALIBRATION_LOOP = 10_000
CALIBRATION_MEMO = 20_000
CALIBRATION_NOMINAL_S = 0.007  # the sample's time at the nominal machine speed
SETUP_CALIBRATION_REPEATS = 10
SE_TARGET = 0.01  # nats, for time_to_se01_s

def call(argv: list[str]) -> tuple[float, object, str, str]:
    """(seconds, exit code, stdout, stderr) of one ``fadenet.cli.main`` call."""
    from fadenet import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # each op starts, as a fresh CLI process would, without garbage
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


@functools.cache
def calibration_array():
    import numpy as np

    return np.random.default_rng(0).standard_normal(100_000)


def calibration_seconds() -> float:
    """Seconds of one fixed sample of the four kinds of work the program
    does: interpreted Python, vectorised numpy, scalar scipy calls and
    filling a memo table."""
    import numpy as np
    from scipy import special

    array = calibration_array()
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    for _ in range(3):
        np.exp(array) * np.abs(array)
    for i in range(300):
        special.gammaln(1.5 + i)
        np.log1p(0.1 * i)
        float(np.sum(array[:50]))
    memo = {}
    for i in range(CALIBRATION_MEMO):
        memo[i * 2654435761 & 0xFFFFF] = i
    return time.perf_counter() - start


def calibration_median(repeats: int) -> float:
    """Median seconds of ``repeats`` calibration samples.

    Called only between ops, when no thread of the program is running, so
    the program cannot move it.
    """
    return statistics.median(calibration_seconds() for _ in range(repeats))


def scaled(seconds: float, *calibrations: float) -> float:
    """``seconds`` at the nominal machine speed, given calibrations around them."""
    return seconds * CALIBRATION_NOMINAL_S / statistics.fmean(calibrations)


def scaled_call(argv: list[str], repeats: int) -> tuple[float, object, str, str]:
    """``call`` with its seconds scaled to the nominal machine speed."""
    before = calibration_median(repeats)
    seconds, code, out, err = call(argv)
    return scaled(seconds, before, calibration_median(repeats)), code, out, err


def setup() -> float:
    """Seconds to import the program and run the warm-up op, at nominal speed.

    The calibration runs only after them: it needs numpy and scipy, whose
    import is part of what is timed.
    """
    start = time.perf_counter()
    import fadenet.cli  # noqa: F401

    _, code, _, err = call(WARMUP)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"warm-up op failed with {code}: {err.strip()}")
    return scaled(seconds, calibration_median(SETUP_CALIBRATION_REPEATS))


def setup_in_fresh_interpreter() -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe"],
        capture_output=True, text=True, timeout=60, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Tally:
    """Ops attempted and failed, with the reasons, and the MC errors seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stderrs: list[float] = []
        self.first_output: dict[str, str] = {}

    def record(self, case, result) -> None:
        _, code, out, err = result
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()[-300:]}")
        else:
            found, stderrs = case.check(out, err)
            problems += found
            self.stderrs += stderrs
            # every workload is deterministic for its seed: any later output,
            # whatever --workers produced it, must repeat the first byte for byte
            first = self.first_output.setdefault(case.label, out)
            if out != first:
                problems.append("output differs from the first run of the same seed")
        if problems:
            self.failed += 1
            self.problems += [f"{case.label}: {p}" for p in problems]


def run_pass(cases, tally: Tally, timer=call, tracer=None) -> list[float]:
    """Run every case once; returns each case's time, without the harness's
    own work between ops."""
    results = []
    for case in cases:
        if tracer is None:
            results.append(timer(case.argv))
        else:
            with tracer.op():
                results.append(timer(case.argv))
    for case, result in zip(cases, results):
        tally.record(case, result)
    return [result[0] for result in results]


def reference_pass(workload, tally: Tally) -> None:
    """Runs each sweep once, untimed, with --workers 1.

    Its output is the bytes every later run of that sweep must repeat, so
    each --workers 2 run is compared with it.  The other invocations need
    no such run: their first timed output is the one later outputs repeat.
    """
    for case in workload.cases:
        if case.is_sweep:
            argv = list(case.argv)
            argv[argv.index("--workers") + 1] = "1"
            tally.record(case, call(argv))


def end_to_end(workload, tally: Tally, seconds: float) -> dict:
    repeats = workload.calibration_repeats
    timer = functools.partial(scaled_call, repeats=repeats) if repeats else call
    times: list[list[float]] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(run_pass(workload.cases, tally, timer=timer))
    wall = sum(statistics.median(column) for column in zip(*times))
    if workload.exact:
        time_to_se = wall  # exact results: one pass reaches any error target
    else:
        rms = math.sqrt(statistics.fmean(se * se for se in tally.stderrs))
        time_to_se = wall * (rms / SE_TARGET) ** 2
    passes = sorted(sum(t) for t in times)
    print(f"{len(passes)} timed passes, seconds: min {passes[0]:.3f} "
          f"median {statistics.median(passes):.3f} max {passes[-1]:.3f}", file=sys.stderr)
    return {
        "wall_s": wall,
        "points_per_s": workload.points / wall,
        "time_to_se01_s": time_to_se,
    }


def per_layer(workload, tally: Tally, seconds: float) -> tuple[dict, object]:
    from fadenet import bounds, cli, fading, powerchain, simulate, topology

    modules = [topology, powerchain, fading, bounds, simulate, cli]
    foreign = {(simulate, "logsumexp"): "simulate.logsumexp"}
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(run_pass(workload.cases, tally)))
        with tracer.installed(modules, foreign):
            traced.append(sum(run_pass(workload.cases, tally, tracer=tracer)))
    metrics = summarise(tracer.spans, len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    cli_main = sum(s.duration for s in tracer.spans if s.name == "cli.main")
    metrics["trace.cli_cover_frac"] = cli_main / sum(traced)
    print(f"traced passes {len(traced)}, spans {len(tracer.spans)}", file=sys.stderr)
    return metrics, tracer


def manifest(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "calibration": {
            "loop": CALIBRATION_LOOP,
            "memo": CALIBRATION_MEMO,
            "nominal_s": CALIBRATION_NOMINAL_S,
            "repeats": workload.calibration_repeats,
            "setup_repeats": SETUP_CALIBRATION_REPEATS,
        },
        "invocations": [case.argv for case in workload.cases],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "fadenet" / "__init__.py").is_file():
        print(f"error: no fadenet sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS, here and in set-up probes
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup())
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    setup_samples = [setup()]
    if not args.trace:
        setup_samples += [setup_in_fresh_interpreter() for _ in range(SETUP_SAMPLES - 1)]
    print("setup samples " + " ".join(f"{t:.3f}" for t in setup_samples), file=sys.stderr)

    import workloads

    workload = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.manifest.json").write_text(
        json.dumps(manifest(args, workload), indent=2) + "\n"
    )
    tally = Tally()
    reference_pass(workload, tally)
    if args.trace:
        metrics, tracer = per_layer(workload, tally, args.seconds)
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
    else:
        metrics = end_to_end(workload, tally, args.seconds)
        metrics["setup_s"] = statistics.median(setup_samples)
        # after the timed passes, so memory two workers hold at once counts
        metrics["peak_rss_mib"] = peak_rss_mib()
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    for problem in tally.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_frac {tally.failed / tally.attempted:.6g} frac "
          f"({tally.failed} of {tally.attempted} ops)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
