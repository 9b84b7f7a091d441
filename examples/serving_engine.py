"""Serving-engine tour: deployments, hot-swap/rollback, sharding.

Run with:

    python examples/serving_engine.py

The script builds two partition artifacts (a fair KD-tree at two heights),
deploys them as successive versions of one named deployment, answers batch
queries through both the array-native hot path and the typed JSON
protocol, rolls the deployment back, serves a sharded deployment
bit-identical to a monolithic one, and persists the whole
deployment table to a manifest another process could reload.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.api import (
    LocateRequest,
    PartitionSpec,
    RangeRequest,
    RunSpec,
    build_partition,
    open_engine,
)
from repro.serving import ServingEngine


def build_artifact(scratch: Path, height: int) -> Path:
    spec = RunSpec(
        partition=PartitionSpec(method="fair_kdtree", height=height),
        city="los_angeles",
        grid_rows=16,
        grid_cols=16,
        n_records=400,
    )
    result = build_partition(spec)
    bundle = result.save(scratch / f"la_h{height}.artifact")
    print(f"built height-{height} artifact: {result.n_neighborhoods} neighborhoods")
    return bundle


def main() -> None:
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(-0.1, 1.1, 10_000), rng.uniform(-0.1, 1.1, 10_000)

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        v1 = build_artifact(scratch, height=4)
        v2 = build_artifact(scratch, height=6)

        # -- named deployments with version history -------------------------
        engine = open_engine()                     # deploys re-validate specs
        engine.deploy("la", v1)
        engine.deploy("la", v2)                    # atomic hot-swap to v2
        print("\nactive:", engine.describe("la")["version"],
              "history:", engine.describe("la")["versions"])

        # -- the array-native hot path --------------------------------------
        assignment = engine.locate_points("la", xs, ys)
        print(f"routed {assignment.size} points; "
              f"{int(np.count_nonzero(assignment >= 0))} on-map")

        # -- the typed protocol: what a transport would speak ---------------
        wire = LocateRequest(deployment="la", xs=(0.45, 2.0), ys=(0.62, 0.5)).to_json()
        result = engine.locate(LocateRequest.from_json(wire))
        print("protocol locate:", result.to_dict())
        box = RangeRequest(deployment="la", min_x=0.0, min_y=0.0, max_x=0.25, max_y=0.25)
        print("protocol range:", engine.range_query(box).regions)

        # -- rollback: active moves, history stays addressable --------------
        engine.rollback("la")
        print("after rollback — active:", engine.describe("la")["version"],
              "| latest still:", engine.describe("la", "latest")["version"])
        pinned = engine.locate(
            LocateRequest(deployment="la", xs=(0.45,), ys=(0.62,), version="latest")
        )
        print("pinned to latest answered by v", pinned.version)

        # -- spatial sharding: versioned tiles, bit-identical --------------
        dense_engine = ServingEngine()
        dense_engine.deploy("la", v2)
        engine.deploy("la_tiled", v2, shards=(2, 2))
        assert np.array_equal(
            engine.locate_points("la_tiled", xs, ys),
            dense_engine.locate_points("la", xs, ys),
        )
        print("2x2 sharded deployment matches monolithic; tile versions:",
              engine.server_for("la_tiled").shard_versions())

        # -- persist the deployment table for another process ---------------
        manifest = engine.save_manifest(scratch / "deployments.json")
        restored = ServingEngine.from_manifest(manifest)
        print("restored deployments:",
              [(d["name"], d["version"]) for d in restored.deployments()])
        print("engine stats:", engine.stats["deployments"]["la"],
              "| cache hit_ratio:", round(engine.stats["cache"]["hit_ratio"], 2))


if __name__ == "__main__":
    main()
