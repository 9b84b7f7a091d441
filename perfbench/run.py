#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload locate-bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` spends half the time untraced and half with the layer spans
of :mod:`tracing` installed, and prints the per-layer metrics plus the
tracing overhead (the traced against the untraced median operation time).

Set-up runs :data:`SETUPS` times and ``setup_s`` is the median.  Every
timed phase starts after a warm-up and a ``gc.collect()``.  The line
before the result carries the run fingerprint (git sha, source digest,
Python and numpy versions, CPU count and model, seed, the host's steal
share over the timed phase from ``/proc/stat``, and a CPU-speed probe
before and after) and workload-specific detail.  The exit code is 0 only
when every answer matched its oracle; it is 2 when the checkout has no
``src/repro``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: A timed phase is cut into this many equal windows.  Other tenants of the
#: host slow its vCPUs by up to 40% for seconds at a time, so the median
#: latency and the throughput are taken per window and the quieter quartile
#: of windows is reported: the lower quartile of the window medians and the
#: upper quartile of the window rates.  Across runs this spread a third
#: less than the median window did.  A phase with fewer than
#: :data:`MIN_WINDOW_OPS` operations in some window is summarised whole.
WINDOWS = 10
MIN_WINDOW_OPS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "rss_peak_mb": "MB",
}


def _read_steal() -> Optional[List[int]]:
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal (guest is inside user)
    return [int(value) for value in fields[1:9]]


def _steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    if before is None or after is None:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total > 0 else 0.0


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def cpu_probe_ms() -> float:
    """Best of three fixed pure-Python loops, in ms.

    Other tenants slowed this host's vCPUs by up to 40% for seconds to
    minutes without any steal showing in ``/proc/stat``; a slow probe
    marks such a run.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(500_000):
            total += value
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best


def fingerprint(seed: int, steal: Optional[float], probes: List[float]) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "steal_share": steal,
        "cpu_probe_ms": probes,
    }


def rss_peak_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def summarize(phase: Dict[str, Any]) -> Dict[str, float]:
    """``op_p50_ms`` and ``ops_per_s`` of the quieter windows of a phase."""
    import numpy

    latencies = numpy.array(phase["latencies"])
    width = phase["elapsed"] / WINDOWS
    slots = numpy.minimum((numpy.array(phase["ends"]) / width).astype(int), WINDOWS - 1)
    windows = [latencies[slots == k] for k in range(WINDOWS)]
    if min(len(window) for window in windows) < MIN_WINDOW_OPS:
        return {
            "op_p50_ms": 1000.0 * float(numpy.median(latencies)),
            "ops_per_s": len(latencies) / phase["elapsed"],
        }
    medians = [1000.0 * float(numpy.median(window)) for window in windows]
    rates = [len(window) / width for window in windows]
    return {
        "op_p50_ms": statistics.quantiles(medians, n=4)[0],
        "ops_per_s": statistics.quantiles(rates, n=4)[2],
    }


def tails(phase: Dict[str, Any]) -> Dict[str, float]:
    """Whole-phase latency percentiles, for the detail line."""
    import numpy

    return {
        f"p{q}_ms": 1000.0 * float(numpy.percentile(phase["latencies"], q))
        for q in (50, 90, 99)
    }


def timed_phase(workload: Any, seconds: float, op: Callable[[int], Any]) -> Dict[str, Any]:
    """Closed loop of ``op`` for ``seconds``; latencies of answered operations."""
    gc.collect()
    latencies: List[float] = []
    ends: List[float] = []
    failed = wrong = 0
    workload.begin_phase()
    steal_before = _read_steal()
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        t0 = time.perf_counter()
        try:
            output = op(index)
        except workload.transport_errors:
            failed += 1
            output = None
        t1 = time.perf_counter()
        if output is not None:
            latencies.append(t1 - t0)
            ends.append(t1 - start)
            if not workload.check(index, output):
                wrong += 1
        index += 1
        if t1 >= deadline:
            break
    elapsed = time.perf_counter() - start
    steal = _steal_share(steal_before, _read_steal())
    extra = workload.end_phase(len(latencies), failed)
    return {
        "latencies": latencies,
        "ends": ends,
        "elapsed": elapsed,
        "attempted": index + extra.get("attempted", 0),
        "failed": failed + extra.get("failed", 0),
        "wrong": wrong + extra.get("wrong", 0),
        "steal": steal,
    }


def _child_pids() -> List[int]:
    """Processes whose parent is this one, running or not yet reaped."""
    pids = []
    for stat_path in Path("/proc").glob("[0-9]*/stat"):
        try:
            stat = stat_path.read_text(encoding="ascii", errors="replace")
        except OSError:
            continue  # it ended while we looked
        # pid (comm) state ppid ...; comm may itself hold spaces or ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(stat_path.parent.name))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Shared-memory segments start ``multiprocessing``'s resource tracker,
    which outlives this process unless it is stopped here: orphaned, it
    lingers after the run.  Workers the serving code failed to stop are
    terminated, and anything else still a child is killed and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Closes the tracker's pipe and waits for it; it has nothing left to
    # clean, since every segment was unlinked at teardown.
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, Scratch, layer_units

    scratch = Scratch(ROOT)
    workload = WORKLOADS[args.workload](args.seed, args.size, scratch.path)
    setup_times: List[float] = []
    phases: List[Dict[str, Any]] = []
    layers: Dict[str, float] = {}
    probes = [cpu_probe_ms()]
    try:
        for attempt in range(SETUPS):
            if attempt:
                workload.teardown()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        try:
            if not args.trace:
                phases.append(timed_phase(workload, args.seconds, workload.op))
            else:
                phases.append(timed_phase(workload, args.seconds / 2, workload.op))
                tracer = Tracer()
                workload.tracer = tracer
                workload.install_tracing(tracer)
                with tracer.patched():
                    traced = timed_phase(
                        workload, args.seconds / 2, tracer.wrap("bench.op", workload.op)
                    )
                workload.tracer = None
                phases.append(traced)
                n_ops = len(traced["latencies"])
                layers = workload.layer_metrics(tracer, n_ops)
                plain_ms = statistics.median(phases[0]["latencies"])
                traced_ms = statistics.median(traced["latencies"])
                layers["bench.op_ms"] = 1000.0 * tracer.busy["bench.op"] / max(n_ops, 1)
                layers["bench.unaccounted_ms"] = (
                    1000.0 * tracer.self_time["bench.op"] / max(n_ops, 1)
                )
                layers["bench.trace_overhead_pct"] = 100.0 * (traced_ms / plain_ms - 1.0)
        finally:
            workload.teardown()
    finally:
        scratch.close()
    probes.append(cpu_probe_ms())

    latencies = [value for phase in phases for value in phase["latencies"]]
    attempted = sum(phase["attempted"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    wrong = sum(phase["wrong"] for phase in phases)
    correct = wrong == 0 and bool(latencies)
    if args.trace:
        units = layer_units()
        metrics = {
            name: {"value": float(layers.get(name, 0)), "unit": unit}
            for name, unit in units.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            **summarize(phases[0]),
            "rss_peak_mb": rss_peak_mb(),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    steal = [phase["steal"] for phase in phases if phase["steal"] is not None]
    print(json.dumps({
        "fingerprint": fingerprint(args.seed, max(steal) if steal else None, probes),
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "setup_s_all": setup_times,
        "ops": len(latencies),
        "latency": tails(phases[0]),
        "wrong": wrong,
        "detail": workload.detail(),
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["locate-bulk", "serve-interactive", "build-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is the quick self-test size")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    # Everything runs on one CPU, a forked worker included: migrations and
    # cross-CPU wake-ups of the closed loop's two processes (which never run
    # at once) doubled the run-to-run spread.  Pinning before numpy loads
    # also keeps its BLAS to one thread, so builds stay deterministic.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        return run(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
