"""The surface the benchmark freezes: the names it imports, the methods it traces.

``perfbench/`` changes only in a PR whose purpose is the benchmark, so the
program must keep working everything it uses.  Its tracer rebinds methods
through ``owner.__dict__[name]``: a traced method that is deleted, renamed
or moved to a base class makes every traced run fail, while nothing else
in this suite notices.  Importing ``workloads`` checks every ``repro``
name it imports; installing and restoring each workload's tracing checks
every method it patches.  No workload set-up runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``(tracing, workloads)`` modules, imported as its runner does."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_every_workload_installs_and_restores_its_tracing(perfbench, tmp_path):
    tracing, workloads = perfbench
    assert sorted(workloads.WORKLOADS) == [
        "build-pipeline", "locate-bulk", "serve-interactive",
    ]
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, "smoke", tmp_path / name)
        tracer = tracing.Tracer()
        try:
            workload.install_tracing(tracer)
            patched = list(tracer._patches)
        finally:
            tracer.restore()
        assert patched, f"{name} traced nothing"
        for owner, attribute, original in patched:
            current = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            assert current is original, f"{name}: {owner}.{attribute} not restored"
