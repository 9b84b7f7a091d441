#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size: ``python3 perfbench/smoke.py``.

Runs every workload of ``BENCHMARK.json`` for two seconds at the small
input size, untraced and traced, and asserts that each run answered every
oracle, failed nothing, and printed exactly the metric names and units
``BENCHMARK.json`` declares.  It also runs the benchmark from a directory
holding only ``BENCHMARK.json`` and ``perfbench/``, which must fail
without printing a result.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", SECONDS, "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(line: str, declared: Dict[str, str], label: str) -> Dict[str, Any]:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: an oracle failed"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        f"{label}: emitted {sorted(set(metrics) ^ set(declared))} differently"
    )
    for name, entry in metrics.items():
        assert entry["unit"] == declared[name], f"{label}: unit of {name}"
        assert math.isfinite(entry["value"]), f"{label}: value of {name}"
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            done = run(ROOT, workload, trace)
            assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}"
            metrics = check_result(done.stdout.strip().splitlines()[-1], declared, label)
            if trace and workload == "build-pipeline":
                # The paper's cost claim: 1 training (Fair) vs h (iterative);
                # the smoke size builds at height 4.
                assert metrics["ml.fit.calls_fair_build"]["value"] == 1, label
                assert metrics["ml.fit.calls_iterative_build"]["value"] == 4, label
            print(f"ok  {label}")

    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=base))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "locate-bulk", 0)
        assert done.returncode != 0 and not done.stdout.strip(), "bare directory ran"
        print("ok  bare directory fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
