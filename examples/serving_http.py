"""HTTP serving tour: deploy, serve over the network, query, hot-swap.

Run with:

    python examples/serving_http.py

The script builds two partition artifacts, deploys the first under a
named deployment, starts the HTTP service on an ephemeral port (the same
server `python -m repro serve` runs), and then acts as a remote client:
health checks, batched point location via the dense encoding, a typed
protocol query, a range query, an admin hot-swap to the second artifact,
and a rollback — ending with the persisted manifest that would let a
restarted service pick up exactly where this one stopped.
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
    ServingClient,
    ServingEngine,
    ServingHTTPServer,
    build_partition,
)


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
        manifest = scratch / "deployments.json"

        # -- deploy and serve (the CLI equivalent is `repro deploy` + ------
        # -- `repro serve --manifest … --admin`) ---------------------------
        engine = ServingEngine()
        engine.deploy("la", v1)
        engine.save_manifest(manifest)
        server = ServingHTTPServer(
            engine, port=0, admin=True, manifest_path=str(manifest)
        ).serve_background()
        host, port = server.server_address[:2]
        print(f"\nserving on {server.url}")

        # -- a remote client -----------------------------------------------
        with ServingClient(host=host, port=port) as client:
            print("health:", client.healthz())

            assignment = client.locate_points("la", xs, ys)
            located = int(np.count_nonzero(assignment >= 0))
            print(
                f"batch locate over the wire: {located}/{assignment.size} "
                f"points in {len(np.unique(assignment[assignment >= 0]))} neighborhoods"
            )

            result = client.locate(
                LocateRequest(deployment="la", xs=(0.45,), ys=(0.62,))
            )
            print(f"typed locate: point -> region {result.regions[0]} (v{result.version})")

            box = RangeRequest(
                deployment="la", min_x=0.2, min_y=0.2, max_x=0.5, max_y=0.5
            )
            print(f"range query: {len(client.range_query(box))} regions touch the box")

            # -- hot-swap under a live service (admin endpoint) -------------
            info = client.deploy("la", str(v2))
            print(
                f"\nhot-swapped to v{info['version']} "
                f"({info['n_regions']} neighborhoods); service never paused"
            )
            swapped = client.locate(
                LocateRequest(deployment="la", xs=(0.45,), ys=(0.62,))
            )
            print(f"same point now answered by v{swapped.version}")

            rolled = client.rollback("la")
            print(f"rolled back to v{rolled['version']}; history stays addressable")

            for row in client.deployments():
                print(
                    f"  deployment {row['name']}: v{row['version']} active "
                    f"(latest={row['latest']}, backend={row['backend']})"
                )

        server.close()

        # The manifest recorded every admin mutation: a fresh engine (or a
        # restarted `repro serve`) resumes exactly this state.
        restored = ServingEngine.from_manifest(manifest)
        info = restored.describe("la")
        print(
            f"\nrestored from manifest: versions {info['versions']}, "
            f"v{info['version']} active"
        )


if __name__ == "__main__":
    main()
