"""Helpers shared by the benchmark modules (kept out of conftest so they can
be imported unambiguously as ``bench_utils``)."""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

#: Heights used by the reduced (default) benchmark configuration.
QUICK_HEIGHTS = (4, 6, 8, 10)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "0") not in ("", "0", "false", "False")


def bench_full() -> bool:
    """True when the full paper configuration was requested via REPRO_BENCH_FULL."""
    return _env_flag("REPRO_BENCH_FULL")


def bench_record() -> bool:
    """True when REPRO_BENCH_RECORD asks to rewrite the committed tables."""
    return _env_flag("REPRO_BENCH_RECORD")


def record_output(output_dir: Path, name: str, text: str) -> None:
    """Persist and echo a rendered experiment table."""
    path = output_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n===== {name} =====\n{text}\n")


def timed(callable_, clock=time.perf_counter):
    """``(seconds, result)`` of one call, wall time unless ``clock`` says.

    ``clock=time.thread_time`` counts only the calling thread's CPU time,
    so time the thread spent preempted by another process counts for
    neither side of a ratio; it suits single-threaded work only.
    """
    start = clock()
    result = callable_()
    return clock() - start, result


def paired_ratios(baseline, candidates, repeats, clock=time.perf_counter):
    """Median per-round time ratio of each candidate to ``baseline``.

    Every round times each candidate back to back with a fresh
    ``baseline`` call, so the two timings of one ratio share the machine
    state of that moment; the pair's order alternates across rounds so
    neither side always runs second.  Returns ``(ratios, bests,
    results)``: the median ratio per candidate, best-of time per name
    (``"baseline"`` included) and the last result per name.  ``clock``
    is handed to :func:`timed`.

    A side's previous result is freed before the side is timed again, so
    every timed call runs beside the same live results.  Kept alive, a
    10^6-point answer from the call before changed where the allocator
    put the next call's temporaries, and a call that followed itself
    paid up to 50% more in page faults than one that followed the other
    side.
    """
    ratios = {name: [] for name in candidates}
    bests = {name: float("inf") for name in ("baseline", *candidates)}
    results = {}

    def fresh(name, callable_):
        results.pop(name, None)
        elapsed, results[name] = timed(callable_, clock)
        return elapsed

    for round_ in range(repeats):
        for name, callable_ in candidates.items():
            if round_ % 2:
                elapsed = fresh(name, callable_)
                base = fresh("baseline", baseline)
            else:
                base = fresh("baseline", baseline)
                elapsed = fresh(name, callable_)
            ratios[name].append(elapsed / base)
            bests[name] = min(bests[name], elapsed)
            bests["baseline"] = min(bests["baseline"], base)
    return {name: float(np.median(r)) for name, r in ratios.items()}, bests, results
