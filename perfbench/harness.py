"""Closed-loop runner: one `cospec.cli.main(argv)` call at a time in this
process, stdout captured in memory, each unit's output checked against the
reference digests before the next unit starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"
SETUP_SAMPLES = 5


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, no references)."""


def import_cli():
    """Import `cospec.cli` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "cospec" / "__init__.py").is_file():
        raise SetupError(f"no cospec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cospec.cli

    if not Path(cospec.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"cospec imported from {cospec.cli.__file__}, not {SRC}")
    return cospec.cli


def load_refs(path=REFS) -> dict:
    if not path.is_file():
        raise SetupError(f"missing reference digests {path}")
    with open(path) as fh:
        return json.load(fh)


def setup(workload_name, seed):
    """Everything before the first timed call: import, references, first unit."""
    if workload_name not in WORKLOADS:
        raise SetupError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    cli = import_cli()
    refs = load_refs()
    workload = WORKLOADS[workload_name]
    units = workload.units(seed, refs)
    return cli, refs, workload, units


def measure_setup(workload_name, seed, clock, samples=SETUP_SAMPLES):
    """Median seconds from spawning a fresh interpreter to its setup being done,
    as (reference seconds, wall seconds)."""
    scaled, walls = [], []
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload_name, "--seed", str(seed)]
    for _ in range(samples):
        before = clock.calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise SetupError("setup probe failed")
        walls.append(t1 - t0)
        scaled.append(walls[-1] * CAL_REF / ((before + clock.calibrate()) / 2))
    return statistics.median(scaled), statistics.median(walls)


def run_context(cli) -> dict:
    """What a later run must match before its numbers are compared with this one."""
    import numpy

    from cospec.rationals import Rat

    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "rat_backend": f"{Rat.__module__}.{Rat.__name__}",
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "machine": platform.machine(),
    }


def call(cli, argv):
    """One CLI invocation with stdout and stderr captured; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed instance, not a crashed run
            rc = None
    return rc, out.getvalue()


# -- machine-speed calibration ---------------------------------------------
#
# The machine's speed drifts by tens of percent within seconds when its
# cores are shared, and all exact-arithmetic code drifts together.  So the
# runner times a fixed piece of the benchmark's own exact arithmetic (not
# cospec's) between calls, at most every CAL_EVERY seconds, and reports
# each call's time scaled to a machine on which that piece takes CAL_REF
# seconds.  A change to cospec moves the call, not the calibration.

CAL_REF = 0.010
CAL_EVERY = 0.3


def _calibration_work():
    """Exact Gaussian elimination of a fixed 9x9 rational matrix."""
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


class Clock:
    """Latest reading of how long the calibration work takes right now."""

    def __init__(self):
        self.readings = []
        self.last = None
        self._at = None

    def calibrate(self) -> float:
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(4):
                _calibration_work()
            samples.append(time.perf_counter() - t0)
        self.last = statistics.median(samples)
        self._at = time.perf_counter()
        self.readings.append(self.last)
        return self.last

    def current(self) -> float:
        if self._at is None or time.perf_counter() - self._at >= CAL_EVERY:
            return self.calibrate()
        return self.last


class Record:
    """What the runs of one phase measured and which instances failed.

    Every time is kept twice: as wall seconds, and as reference seconds
    (see `Clock`).  Lists ending in `_raw` hold wall seconds.
    """

    def __init__(self, clock=None):
        self.clock = clock or Clock()
        self.unit_walls_raw = []
        self.unit_rates, self.unit_rates_raw = [], []
        self.instance_times, self.instance_times_raw = [], []
        self.attempted = 0
        self.failed = 0
        self.max_coeff_bits = 0

    def run_unit(self, cli, workload, unit, refs, tracer=None):
        walls, readings, results = [], [], []
        clock = self.clock
        for argv in unit.calls:
            if tracer is not None:
                tracer.instance = _instance_label(argv)
            readings.append(clock.current())
            c0 = time.perf_counter()
            results.append(call(cli, argv))
            walls.append(time.perf_counter() - c0)
        clock.calibrate()
        # each call is scaled by the mean of the latest readings before and after it
        after = readings[1:] + [clock.last]
        scaled = [w * CAL_REF / ((b + a) / 2) for w, b, a in zip(walls, readings, after)]

        n = len(unit.instances)
        for times, out in ((scaled, self.instance_times), (walls, self.instance_times_raw)):
            per = len(unit.calls) // n
            if per and per * n == len(unit.calls):
                out.extend(sum(times[i * per:(i + 1) * per]) for i in range(n))
            else:
                out.extend([sum(times) / n] * n)
        self.unit_walls_raw.append(sum(walls))
        self.unit_rates.append(n / sum(scaled))
        self.unit_rates_raw.append(n / sum(walls))

        try:
            checked = workload.check(unit, results, refs)
            failed = len(checked.failed)
            self.max_coeff_bits = max(self.max_coeff_bits, checked.max_coeff_bits)
        except (KeyError, TypeError, ValueError, AttributeError):  # malformed output
            failed = n
        self.attempted += n
        self.failed += failed


def _instance_label(argv):
    if "--word" in argv:
        return (argv[argv.index("--word") + 1], argv[argv.index("--k") + 1])
    return None


def run_timed(cli, workload, units, refs, seconds, clock=None) -> Record:
    """Closed loop: whole units until `seconds` have passed (at least one unit)."""
    rec = Record(clock)
    start = time.perf_counter()
    for unit in units:
        rec.run_unit(cli, workload, unit, refs)
        if time.perf_counter() - start >= seconds:
            break
    return rec


def end_to_end(rec: Record, setup_s: float) -> dict:
    return {
        "instances_per_s": statistics.median(rec.unit_rates),
        "instance_p50_s": statistics.median(rec.instance_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def wall_clock(rec: Record, setup_wall_s: float) -> dict:
    """The same times unscaled, for the detail line."""
    return {
        "instances_per_s": statistics.median(rec.unit_rates_raw),
        "instance_p50_s": statistics.median(rec.instance_times_raw),
        "setup_s": setup_wall_s,
        "calibration_s": statistics.median(rec.clock.readings),
    }


def traced(cli, workload, units, refs, spans_path):
    """Run the workload's fixed unit list untraced, then again traced.

    Returns the two records and the per-layer metrics.  The unit list is the
    same for a given seed, so the counts reproduce exactly.
    """
    unit_list = [next(units) for _ in range(workload.trace_units)]
    plain = Record()
    for unit in unit_list:
        plain.run_unit(cli, workload, unit, refs)
    rec = Record(plain.clock)
    with Tracer() as tracer:
        for unit in unit_list:
            rec.run_unit(cli, workload, unit, refs, tracer)
    tracer.write_spans(spans_path)
    layers = tracer.layer_metrics()
    layers["rationals.max_coeff_bits"] = rec.max_coeff_bits
    layers["trace.overhead_s"] = sum(rec.unit_walls_raw) - sum(plain.unit_walls_raw)
    layers["trace.instances"] = rec.attempted
    return plain, rec, layers, tracer.missing


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })


def metric_specs(bench_json=ROOT / "BENCHMARK.json") -> dict:
    """The metric names and units that BENCHMARK.json promises."""
    if not bench_json.is_file():
        raise SetupError(f"missing {bench_json}")
    with open(bench_json) as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}
