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


def timed(callable_):
    """``(wall seconds, result)`` of one call."""
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def paired_ratios(baseline, candidates, repeats):
    """Median per-round time ratio of each candidate to ``baseline``.

    Every round times each candidate back to back with a fresh
    ``baseline`` call, so the two timings of one ratio share the machine
    state of that moment; the pair's order alternates across rounds so
    neither side always runs second.  Returns ``(ratios, bests,
    results)``: the median ratio per candidate, best-of wall time per
    name (``"baseline"`` included) and the last result per name.
    """
    ratios = {name: [] for name in candidates}
    bests = {name: float("inf") for name in ("baseline", *candidates)}
    results = {}
    for round_ in range(repeats):
        for name, callable_ in candidates.items():
            if round_ % 2:
                elapsed, results[name] = timed(callable_)
                base, results["baseline"] = timed(baseline)
            else:
                base, results["baseline"] = timed(baseline)
                elapsed, results[name] = timed(callable_)
            ratios[name].append(elapsed / base)
            bests[name] = min(bests[name], elapsed)
            bests["baseline"] = min(bests["baseline"], base)
    return {name: float(np.median(r)) for name, r in ratios.items()}, bests, results
