"""lossfish benchmark: seeded workloads, checked results, end-to-end metrics.

Run from the repository root:

    python3 perfbench/run.py --workload twomode_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1              # every workload, one process

Each workload is a closed loop with one client in this process: the next op
starts when the previous one has returned and been checked.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
traces every other op (see ``tracing.py``) and prints the per-layer metrics,
with the tracing overhead as the difference from the untraced ops.  Times
are process CPU time scaled to a reference machine speed (REFERENCE_MS
below), because the host of a shared VM changes the speed by up to 30%.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance and the failure breakdown.

An op fails when it raises (a typed ``LossfishError`` or anything else) or
when its result fails the workload's check.  Failures are counted, never
retried or skipped: ``correct`` is false only when the benchmark could not
check an op or no op passed.  ``ok_frac`` and ``failed`` carry the failures.
``attempted`` and ``failed`` count distinct inputs: a workload that cycles
through a fixed panel of inputs checks every op, and an input fails when
any op on it failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# tail percentile: the highest of these with at least 10 samples beyond it.
# The ladder stops at p99: the p99.9 of scalar_routes ops (even in CPU time)
# moved by 25% from run to run with the host.  Samples are inputs, each at
# its median latency (OpLog.input_latencies).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Speed calibration.  The host of a shared VM changes the machine's speed by
# up to 30% for minutes at a time, alike for this benchmark's ops and for a
# fixed reference kernel run between them.  Every time the benchmark reports
# is scaled by REFERENCE_MS / (the run's median kernel time): it reads in
# milliseconds of a machine on which the kernel takes exactly REFERENCE_MS.
REFERENCE_MS = 10.0
CALIBRATE_EVERY_S = 0.5  # op CPU time between two kernel samples

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("points_per_s", "1/s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

# traced function groups: metric prefix -> the suffixes reported for it
PER_LAYER_CALLS = {
    "linalg.lstsq": ("calls", "ms"),
    "linalg.solve": ("calls", "ms", "raised"),
    "linalg.eigvalsh": ("calls", "ms"),
    "linalg.eigh": ("calls",),
    "linalg.inv": ("calls",),
    "linalg.det": ("calls",),
    "states.make_state": ("calls", "self_ms"),
    "probes.build": ("calls", "self_ms"),
    "channel.apply_channel": ("calls", "self_ms"),
    "channel.channel_derivative": ("calls",),
    "fidelity.gaussian_fidelity": ("calls", "self_ms"),
    "qfi.qfi_sld": ("calls", "self_ms"),
    "qfi.qfi_fidelity_fd": ("calls", "self_ms"),
    "qfi.qfi_single_mode_form": ("calls", "self_ms"),
    "qfi.closed": ("calls", "self_ms"),
    "optimize.optimize_two_mode": ("calls", "self_ms"),
    "optimize.optimize_xi": ("calls", "self_ms"),
    "optimize.optimize_bandwidth": ("calls", "self_ms"),
    "hypotest.fidelity_error_bound": ("calls", "self_ms"),
    "cli.main": ("calls", "self_ms"),
}
SUFFIX_UNITS = {"calls": "count/op", "ms": "ms/op", "self_ms": "ms/op",
                "raised": "count/op"}
WARNING_CATEGORIES = ("UserWarning", "RuntimeWarning")
PER_LAYER = (
    tuple((f"{prefix}.{suffix}", SUFFIX_UNITS[suffix])
          for prefix, suffixes in PER_LAYER_CALLS.items() for suffix in suffixes)
    + (("linalg.lstsq.per_point", "count/point"),
       ("errors.typed.count", "count"),
       ("errors.untyped.count", "count"),
       ("errors.check.count", "count"))
    + tuple((f"warnings.{c}.count", "count") for c in WARNING_CATEGORIES)
    + (("warnings.other.count", "count"),
       ("trace.spans", "count/op"),
       ("trace.overhead_ms", "ms/op"))
)


def cap_blas_threads() -> int:
    """Cap this process's BLAS pool before numpy loads; children inherit it.

    Every matrix the library factors is at most 10x10, below OpenBLAS's
    threading threshold, so one thread does the same work with no idle
    spinning threads on a small shared machine.
    """
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() else 1
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(threads, 1))
    return nproc


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class OpLog:
    """Outcome of every timed op of one run."""

    def __init__(self):
        self.latencies = []      # seconds, untraced ops
        self.traced_latencies = []
        self.by_input = {}       # input -> seconds of its untraced ops
        self.points = 0          # QFI values from untraced ops that returned
        self.traced_points = 0
        self.attempted = 0       # distinct inputs
        self.failed_inputs = set()
        self.unchecked = 0       # ops whose checker raised
        self.errors = Counter()  # "typed" / "untyped" / "check" -> inputs
        self.reasons = Counter()  # exception type or check reason -> inputs
        self.warnings = Counter()  # category name -> count
        self.reference = []      # reference kernel samples, seconds

    @property
    def failed(self) -> int:
        return len(self.failed_inputs)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def input_latencies(self) -> list:
        """Each input's median latency over its untraced ops, ascending.

        On a panel workload an input is run several times a run; its median
        keeps a stall of the host out of the tail, while an input that is
        slow every time stays in it.  Elsewhere an input is one op.
        """
        return sorted(statistics.median(v) for v in self.by_input.values())

    @property
    def speed(self) -> float:
        """Factor that turns this run's CPU seconds into reference seconds."""
        return REFERENCE_MS / 1e3 / statistics.median(self.reference)


def reference_sample() -> float:
    """CPU seconds of the fixed reference kernel.

    It mixes the kinds of work the library does, in about these shares:
    10x10 least-squares solves called from Python (60%), batched 10x10
    matrix products over 3 MB of operands (30%) and interpreted float
    arithmetic (10%).  The products' 6.4 MB of operands and results sit
    above the library's own peak on scalar_routes, so they set that
    workload's peak_rss_mb; with 0.8 MB operands instead, the kernel
    tracked twomode_grid half as well.
    """
    import numpy as np

    a = 4.0 * np.eye(10) + np.arange(100.0).reshape(10, 10) / 100.0
    b = np.arange(10.0)
    stack = np.broadcast_to(a, (4096, 10, 10)).copy()
    start = time.process_time()
    acc = 0.0
    for _ in range(150):
        acc += float(np.linalg.lstsq(a, b, rcond=None)[0][0])
    for _ in range(3):
        acc += float((stack @ stack).sum())
    for i in range(15000):
        acc += i * 1e-9
    return time.process_time() - start


def _call(workload, spec):
    """Run one op; return (result, error kind, reason, seconds, warnings).

    An op's latency is the CPU time the process spent on it.  The library
    computes on one thread and does no I/O, so this is its wall time less the
    time the OS or the host hypervisor took the CPU away.  On a shared VM
    those stalls reach 5-15 ms and would make the latency tail a measure of
    the neighbours.  Work moved to other threads still counts, in full.
    """
    from lossfish import LossfishError

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.process_time()
        try:
            result, kind, reason = workload.run(spec), None, None
        except LossfishError as exc:
            result, kind, reason = None, "typed", type(exc).__name__
        except Exception as exc:
            result, kind, reason = None, "untyped", type(exc).__name__
        elapsed = time.process_time() - start
    return result, kind, reason, elapsed, [w.category.__name__ for w in caught]


def run_ops(workload, seed: int, seconds: float, tracer=None, max_ops=None) -> OpLog:
    """Warm up with the first op, then run ops for `seconds`.

    With a tracer, odd-numbered ops run traced and even ones untraced, so
    both see the same mix of inputs and the same machine state.  The
    reference kernel runs before the first op, after the last, and whenever
    CALIBRATE_EVERY_S of op time has passed since its last sample.  A
    workload with a panel of inputs runs the whole panel at least once,
    past the deadline if need be, so that every run attempts all of it.
    """
    _call(workload, next(workload.specs(seed)))  # warm-up, not recorded
    log = OpLog()
    log.reference.append(reference_sample())
    since_reference = 0.0
    panel = workload.panel_size
    min_ops = max(2 if tracer else 1, panel or 0)
    deadline = time.perf_counter() + seconds
    for index, spec in enumerate(workload.specs(seed)):
        if max_ops is not None and index >= max_ops:
            break
        if index >= min_ops and time.perf_counter() >= deadline:
            break
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
        try:
            result, kind, reason, elapsed, caught = _call(workload, spec)
        finally:
            if traced:
                tracer.uninstall()
        since_reference += elapsed
        if since_reference >= CALIBRATE_EVERY_S:
            log.reference.append(reference_sample())
            since_reference = 0.0
        key = index % panel if panel else index
        if key == index:
            log.attempted += 1
        log.warnings.update(caught)
        if traced:
            log.traced_latencies.append(elapsed)
        else:
            log.latencies.append(elapsed)
            log.by_input.setdefault(key, []).append(elapsed)
        if kind is None:
            points = workload.points(spec, result)
            if traced:
                log.traced_points += points
            else:
                log.points += points
            try:
                reason = workload.check(spec, result)
            except Exception as exc:
                log.unchecked += 1
                reason = f"checker raised {type(exc).__name__}: {exc}"
            kind = "check" if reason else None
        if kind is not None and key not in log.failed_inputs:
            log.failed_inputs.add(key)
            log.errors[kind] += 1
            log.reasons[reason.split(":")[0] if kind == "check" else reason] += 1
    log.reference.append(reference_sample())
    return log


def measure_setup(name: str, seed: int, repeats: int) -> list:
    """Wall time of fresh interpreters importing lossfish and running one op,
    each in reference seconds by the kernel samples taken just before and
    just after it."""
    times = []
    for _ in range(repeats):
        before = reference_sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        speed = REFERENCE_MS / 1e3 / (0.5 * (before + reference_sample()))
        times.append(elapsed * speed)
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(ordered, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(pct * len(ordered) / 100.0)) - 1]


def tail(latencies):
    """(percentile, value, samples beyond) for the highest TAIL_LADDER step
    with at least TAIL_BEYOND samples beyond it; the median otherwise."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct * n / 100.0))
        if beyond >= TAIL_BEYOND or pct == 50.0:
            return pct, percentile(ordered, pct), beyond
    raise AssertionError("TAIL_LADDER must end at 50")


def end_to_end(log: OpLog, setup_times) -> dict:
    latencies = log.input_latencies()
    _, tail_s, _ = tail(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed = log.speed
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": percentile(latencies, 50.0) * 1e3 * speed,
        "op_tail_ms": tail_s * 1e3 * speed,
        "points_per_s": log.points / (sum(log.latencies) * speed),
        "ok_frac": log.passed / log.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(log: OpLog, tracer) -> dict:
    traced_ops = len(log.traced_latencies)
    stats = tracer.grouped()
    ms = 1e3 * log.speed
    values = {}
    for prefix, suffixes in PER_LAYER_CALLS.items():
        calls, total_s, self_s, raised = stats.get(prefix, (0, 0.0, 0.0, 0))
        per_suffix = {"calls": calls, "ms": total_s * ms, "self_ms": self_s * ms,
                      "raised": raised}
        for suffix in suffixes:
            values[f"{prefix}.{suffix}"] = per_suffix[suffix] / traced_ops
    lstsq_calls = stats.get("linalg.lstsq", (0,))[0]
    values["linalg.lstsq.per_point"] = (lstsq_calls / log.traced_points
                                        if log.traced_points else 0.0)
    for kind in ("typed", "untyped", "check"):
        values[f"errors.{kind}.count"] = log.errors[kind]
    for category in WARNING_CATEGORIES:
        values[f"warnings.{category}.count"] = log.warnings[category]
    values["warnings.other.count"] = sum(
        n for c, n in log.warnings.items() if c not in WARNING_CATEGORIES)
    values["trace.spans"] = sum(s[0] for s in stats.values()) / traced_ops
    values["trace.overhead_ms"] = (statistics.median(log.traced_latencies)
                                   - statistics.median(log.latencies)) * ms
    return values


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "lossfish").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas():
    """(name and version, thread count) of numpy's BLAS."""
    import ctypes
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return f"{info.get('name')} {info.get('version')}", threads


def provenance(args, nproc) -> dict:
    import numpy as np
    import platform

    blas, threads = _blas()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS, max_ops=None):
    """One workload run; returns (metrics {name: (value, unit)}, log, notes)."""
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]
    notes = {}
    if trace:
        tracer = Tracer()
        log = run_ops(workload, seed, seconds, tracer, max_ops)
        values = per_layer(log, tracer)
        units = dict(PER_LAYER)
        spans_path = OUT / f"spans-{name}.jsonl.gz"
        tracer.write(spans_path)
        notes.update(spans_file=str(spans_path.relative_to(ROOT)),
                     spans_kept=len(tracer.spans), spans_dropped=tracer.dropped,
                     traced_ops=len(log.traced_latencies),
                     untraced_ops=len(log.latencies),
                     rebound=len(tracer.patches))
    else:
        setup_times = measure_setup(name, seed, setup_repeats)
        log = run_ops(workload, seed, seconds, None, max_ops)
        values = end_to_end(log, setup_times)
        units = dict(END_TO_END)
        latencies = log.input_latencies()
        pct, _, beyond = tail(latencies)
        notes.update(setup_samples=setup_times, op_samples=len(log.latencies),
                     input_samples=len(latencies),
                     tail_percentile=pct, tail_samples_beyond=beyond,
                     raw_op_p50_ms=percentile(latencies, 50.0) * 1e3,
                     fail_frac=log.failed / log.attempted)
    notes.update(speed=log.speed, reference_samples=len(log.reference),
                 ops=len(log.latencies) + len(log.traced_latencies),
                 attempted=log.attempted, failed=log.failed,
                 errors=dict(log.errors), reasons=dict(log.reasons),
                 warnings=dict(log.warnings))
    metrics = {key: (values[key], units[key]) for key in units}
    return metrics, log, notes


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    if not (SRC / "lossfish" / "__init__.py").is_file():
        print(f"error: no lossfish sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("# provenance " + json.dumps(provenance(args, nproc)))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, log, notes = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace))
        print(f"# {name} " + json.dumps(notes))
        for key, (value, unit) in metrics.items():
            print(f"# {name:14s} {key:34s} {value:>16.6g} {unit}")
            label = key if len(names) == 1 else f"{name}.{key}"
            result["metrics"][label] = {"value": value, "unit": unit}
        result["correct"] &= log.unchecked == 0 and log.passed > 0
        result["attempted"] += log.attempted
        result["failed"] += log.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
