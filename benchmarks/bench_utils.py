"""Helpers shared by the benchmark modules (kept out of conftest so they can
be imported unambiguously as ``bench_utils``)."""

from __future__ import annotations

import os
from pathlib import Path

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
