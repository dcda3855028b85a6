"""Benchmark of the mdfgan package: training workloads timed end to end, and a
traced run that times the calls into each module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, and scratch files go to ./.bench_work and are removed at exit.
Lines before the last describe the host and the samples behind each metric;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. perfbench/README.md
describes the workloads and the metrics.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process, set before numpy is first imported (by the
# set-up), so the --jobs 2 workload runs exactly two compute threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 8  # fresh interpreters that each time the set-up
CALIBRATION_ROUNDS = 15000
CALIBRATION_NOMINAL_S = 0.5  # calibration time on the 2-core host the bounds were set on, when quiet

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={values[0]!r}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={median!r} q1={q1!r} q3={q3!r}"


def host_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def set_up(name: str, seed: int, workdir: Path):
    """Import mdfgan and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    if name not in workloads.WORKLOADS:
        usage_error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    elapsed = time.perf_counter() - start
    import mdfgan

    if not Path(mdfgan.__file__).resolve().is_relative_to(SRC.resolve()):
        usage_error(f"mdfgan was imported from {mdfgan.__file__}, not from {SRC}")
    return workload, elapsed


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter, as a user pays it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def calibration_s() -> float:
    """Seconds taken by a fixed mix of pure-Python arithmetic and numpy calls
    on 32x32 arrays, the two kinds of work the nn kernels do."""
    import numpy as np

    w = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
    x = np.linspace(-0.5, 0.5, 32 * 32).reshape(32, 32)
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ROUNDS * 200):
        total += i * i
    for _ in range(CALIBRATION_ROUNDS):
        z = x @ w.T + 0.1
        a = 1.0 / (1.0 + np.exp(-z))
        g = (a * (1.0 - a)) @ w
        np.sqrt(0.9 * g * g + 0.1 * z * z + 1e-8)
    return time.perf_counter() - start


class Clock:
    """Times work in seconds of the reference host speed.

    The speed of a shared host drifts by a fifth over minutes, and wall and
    CPU time both follow it, so raw times from two runs are not comparable.
    Each timed piece of work is therefore bracketed by the calibration loop,
    and its times are scaled by CALIBRATION_NOMINAL_S over the mean of the
    two calibration times around it. The calibration is the benchmark's own
    code, so a change to mdfgan cannot move it.
    """

    def __init__(self) -> None:
        self.calibrations = [calibration_s()]

    def run(self, fn):
        """Call fn; returns its result, its wall and CPU seconds, and the
        factor that scales them to the reference host speed."""
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        result = fn()
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        self.calibrations.append(calibration_s())
        return result, wall, cpu, CALIBRATION_NOMINAL_S / statistics.fmean(self.calibrations[-2:])


class Checker:
    """Output checks over every run of every unit."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: dict[tuple[str, int], float] = {}

    def unit(self, result) -> list:
        runs, problems = self.workload.check(result)
        self.problems.extend(problems)
        for run in runs:
            self.attempted += 1
            self.failed += run.failed
            if run.failed:
                continue
            name = f"{run.variant} run at seed {run.seed}"
            if not math.isfinite(run.nrmse):
                self.problems.append(f"{name}: NRMSE {run.nrmse!r} is not finite")
            if not run.lf_frozen_ok:
                self.problems.append(f"{name}: the LF block was not frozen or changed")
            previous = self.seen.setdefault((run.variant, run.seed), run.nrmse)
            if previous != run.nrmse:
                self.problems.append(f"{name}: NRMSE {run.nrmse!r} on rerun, {previous!r} before")
        return runs


def measure(workload, checker: Checker, clock: Clock, args) -> dict[str, float]:
    """Untraced units until the next one would overrun ``seconds``, then the
    set-up probes.

    The mean NRMSE printed is over the fused model's (gan) runs in the first
    ``min_units`` units, which always run, so it depends on the seed alone.
    It is not a metric: the NRMSE of one forrester1d model varies so much
    with the seed that a mean over the few runs that fit in a run would
    spread wider than any useful bound. The ablations are left out too:
    without its supervised stages, pgan on separable20d lands near 0.17 or
    near 1.7 by the luck of the seed.
    """
    raw, walls, cpus, scored = [], [], [], []
    start = time.perf_counter()
    k = 0
    while k < workload.min_units or time.perf_counter() - start + statistics.median(raw) <= args.seconds:
        result, wall, cpu, scale = clock.run(lambda: workload.run(k, "u"))
        runs = checker.unit(result)
        raw.append(wall)
        walls.append(wall * scale)
        cpus.append(cpu * scale)
        if k < workload.min_units:
            scored.extend(r.nrmse for r in runs if r.variant == "gan" and not r.failed)
        k += 1
    peak = peak_rss_mb()
    print(f"units: {k} in {time.perf_counter() - start:.2f} s")
    mean = repr(statistics.fmean(scored)) if scored else "none succeeded"
    print(f"nrmse_mean of the gan runs in the first {workload.min_units} units: {mean}")
    print(f"raw wall s per unit: {spread(raw)}")
    print(f"wall_s per unit: {spread(walls)}")
    print(f"cpu_s per unit: {spread(cpus)}")
    setups, _, _, scale = clock.run(lambda: [probe_setup(args) for _ in range(SETUP_PROBES)])
    print(f"raw setup s: {spread(setups)}")
    print(f"calibration s: {spread(clock.calibrations)}")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": peak,
    }


def measure_traced(workload, checker: Checker, clock: Clock, seconds: float, workdir: Path) -> dict[str, float]:
    """Pairs of one untraced and one traced unit on the same inputs, until
    the next pair would overrun ``seconds``; at least one pair."""
    import tracer

    tr = tracer.Tracer(workdir / "trace")
    pairs, plain, traced, units = [], [], [], []
    start = time.perf_counter()
    k = 0
    while k < 1 or time.perf_counter() - start + statistics.median(pairs) <= seconds:
        pair_start = time.perf_counter()
        result, wall, _, scale = clock.run(lambda: workload.run(k, "u"))
        checker.unit(result)
        plain.append(wall * scale)
        with tr.traced() as unit:
            result, wall, _, scale = clock.run(lambda: workload.run(k, "t"))
        checker.unit(result)
        traced.append(wall * scale)
        checker.problems.extend(unit["violations"])
        checker.problems.extend(tracer.missing_calls(unit, workload.must_call))
        units.append(unit)
        pairs.append(time.perf_counter() - pair_start)
        k += 1
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    print(f"unit pairs: {k} in {time.perf_counter() - start:.2f} s")
    print(f"untraced wall_s per unit: {spread(plain)}")
    print(f"traced wall_s per unit: {spread(traced)}")
    print(f"trace.overhead: {overhead!r}")
    return tracer.layer_metrics(units, overhead)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdfgan" / "__init__.py").is_file():
        usage_error(f"no mdfgan package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("host " + json.dumps(host_info()))
        print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print(f"own set-up s: {setup_s!r}")
        checker = Checker(workload)
        clock = Clock()
        if args.trace:
            import tracer

            metrics = measure_traced(workload, checker, clock, args.seconds, workdir)
            units = dict(tracer.LAYER_METRICS)
        else:
            metrics = measure(workload, checker, clock, args)
            units = END_TO_END
        print(f"runs: {checker.attempted} attempted, {checker.failed} failed")
        for problem in checker.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        correct = not checker.problems
        print(json.dumps({
            "correct": correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
