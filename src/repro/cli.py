"""Command-line interface for the fair spatial indexing experiments.

Usage (after ``pip install -e .`` or from the repository root)::

    python -m repro list                       # list available experiments
    python -m repro disparity                  # Figure 6
    python -m repro ence                       # Figure 7
    python -m repro utility                    # Figure 8
    python -m repro features                   # Figure 9
    python -m repro multi-objective            # Figure 10
    python -m repro timing                     # Section 5.3.1 timing
    python -m repro ence --cities houston --heights 4 6 --output results.csv

Serving verbs persist built partitions, deploy them under names, and batch
query them without retraining::

    python -m repro build --cities los_angeles --heights 6 --artifact la.artifact
    python -m repro deploy --artifact la.artifact --name la --manifest deployments.json
    python -m repro deploy --artifact la.artifact --name la --manifest deployments.json --shards 2x2
    python -m repro swap-shard --name la --manifest deployments.json --shard 0x1 --artifact la_v2.artifact
    python -m repro rollback-shard --name la --manifest deployments.json --shard 0x1
    python -m repro deployments --manifest deployments.json
    python -m repro query --name la --manifest deployments.json --points points.csv
    python -m repro query --artifact la.artifact --points points.csv  # one-shot

The ``serve`` verb turns the manifest into a network service — a threaded
HTTP front over the engine speaking the typed query protocol as JSON
(``ServingClient`` is its Python client)::

    python -m repro serve --manifest deployments.json --port 8350 --admin

The ``lint`` verb runs the repository's static concurrency/invariant
checker (:mod:`repro.analysis`) over source paths — exit code 1 when it
finds violations, which is how CI gates on it::

    python -m repro lint src/
    python -m repro lint src/repro/serving --format json
    python -m repro lint src/ --baseline lint_baseline.json
    python -m repro lint --explain hot-path-copy

The ``sanitize-report`` verb renders the ``sanitizer_report.json`` a
``REPRO_SANITIZE=1`` test run leaves behind (see
:mod:`repro.analysis.sanitizer`), with the same exit-code contract::

    python -m repro sanitize-report sanitizer_report.json

Every command prints the regenerated table to stdout; ``--output`` also writes
the underlying rows to CSV.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .api import PartitionSpec, RunSpec, build_partition
from .core.base import train_scores_on_dataset
from .core.results import comparisons_to_rows
from .datasets.labels import act_task
from .experiments.disparity import run_disparity_experiment
from .experiments.ence_sweep import run_ence_sweep
from .experiments.feature_heatmap import run_feature_heatmap
from .experiments.multi_objective import run_multi_objective_experiment
from .experiments.reporting import format_table
from .experiments.runner import PAPER_CITIES, default_context
from .experiments.timing import run_timing_experiment
from .experiments.utility_sweep import run_utility_sweep
from .config import ServingConfig
from .exceptions import ReproError
from .fairness.report import compare_partitions, improvement_summary
from .io.export import save_rows_csv
from .io.points import read_points_csv
from .logging_utils import configure_logging
from .registry import MODELS, PARTITIONERS
from .serving import ServingEngine
from .serving.http import DEFAULT_PORT as DEFAULT_HTTP_PORT
from .serving.wire import DEFAULT_WIRE_PORT
from .viz import render_partition_ascii

EXPERIMENTS = (
    "disparity", "ence", "utility", "features", "multi-objective", "timing", "compare",
)

#: Serving verbs: persist a partition artifact, deploy bundles under names,
#: hot-swap/rollback single shard tiles, list deployments, batch-query by
#: name or path, serve a manifest over HTTP.
SERVING_COMMANDS = (
    "build", "deploy", "swap-shard", "rollback-shard", "deployments", "query",
    "serve",
)

#: Analysis verbs: run the AST lint rules of :mod:`repro.analysis` over
#: source paths, or render a saved runtime-sanitizer report.  A separate
#: tuple (not folded into the above) because experiment and serving
#: rosters are pinned by tests and drive registry-backed catalogues.
ANALYSIS_COMMANDS = ("lint", "sanitize-report")

#: Methods the ``build`` verb can persist (everything flagged ``servable``:
#: the single-task partitioners).  Import-time snapshot for reference and
#: tests; :func:`build_parser` re-derives the list from the registry on
#: every call so partitioners registered later still appear.
BUILD_METHODS = PARTITIONERS.names(servable=True)

#: Registered classifier families (import-time snapshot; the parser
#: re-derives them per call, like :data:`BUILD_METHODS`).
MODEL_CHOICES = MODELS.names()


def _parse_shards(text: str) -> Tuple[int, int]:
    """Parse ``--shards``: 'RxC' (e.g. '2x4') or a single count N -> NxN."""
    try:
        if "x" in text:
            rows_text, cols_text = text.split("x", 1)
            shards = (int(rows_text), int(cols_text))
        else:
            shards = (int(text), int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'RxC' or a single count, got {text!r}"
        ) from None
    if shards[0] < 1 or shards[1] < 1:
        raise argparse.ArgumentTypeError(f"shard counts must be positive, got {text!r}")
    return shards


def _parse_shard_address(text: str) -> Tuple[int, int]:
    """Parse ``--shard``: a 0-based 'RxC' tile address like '0x1'."""
    try:
        row_text, col_text = text.split("x", 1)
        address = (int(row_text), int(col_text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a 0-based 'RxC' tile address like '0x1', got {text!r}"
        ) from None
    if address[0] < 0 or address[1] < 0:
        raise argparse.ArgumentTypeError(
            f"shard address must be non-negative, got {text!r}"
        )
    return address


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation figures of 'Fair Spatial Indexing' (EDBT 2024).",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + SERVING_COMMANDS + ANALYSIS_COMMANDS + ("list",),
        help="which experiment or serving verb to run ('list' prints the catalogue)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories the 'lint' verb analyses (default: src), "
        "or the report file 'sanitize-report' renders (default: "
        "sanitizer_report.json)",
    )
    parser.add_argument(
        "--cities", nargs="+", default=list(PAPER_CITIES), help="cities to evaluate"
    )
    parser.add_argument(
        "--heights", nargs="+", type=int, default=[4, 6, 8, 10], help="tree heights to sweep"
    )
    parser.add_argument(
        "--model",
        default="logistic_regression",
        choices=MODELS.names(),
        help="classifier family",
    )
    parser.add_argument("--grid", type=int, default=32, help="base grid resolution (grid x grid)")
    parser.add_argument("--seed", type=int, default=11, help="evaluation seed")
    parser.add_argument("--output", default=None, help="optional CSV output path")
    parser.add_argument("--verbose", action="store_true", help="enable INFO logging")
    serving = parser.add_argument_group("serving (build / deploy / deployments / query verbs)")
    serving.add_argument(
        "--method",
        default="fair_kdtree",
        choices=PARTITIONERS.names(servable=True),
        help="partitioning method the 'build' verb persists; also selects the "
        "partition the 'compare' verb renders",
    )
    serving.add_argument(
        "--artifact",
        default=None,
        help="partition artifact bundle directory ('build' writes it, "
        "'deploy' registers it, 'query' serves it one-shot)",
    )
    serving.add_argument(
        "--points",
        default=None,
        help="CSV file with x,y columns — the coordinates the 'query' verb locates",
    )
    serving.add_argument(
        "--strict",
        action="store_true",
        help="make 'query' fail on off-map points instead of reporting -1",
    )
    serving.add_argument(
        "--no-strict",
        action="store_true",
        help="map off-map points to -1 even when the manifest was saved "
        "with strict serving (per-invocation override of the stored default)",
    )
    serving.add_argument(
        "--name",
        default=None,
        help="deployment name: 'deploy' deploys the artifact under it, "
        "'query' routes to it (requires --manifest)",
    )
    serving.add_argument(
        "--manifest",
        default=None,
        help="deployment manifest JSON shared by 'deploy', 'deployments' and "
        "'query --name' — the serving engine's persisted deployment table",
    )
    serving.add_argument(
        "--shards",
        type=_parse_shards,
        default=None,
        help="serve the deployed artifact as an RxC shard tiling, e.g. "
        "'--shards 2x2' (or '--shards 3' for 3x3); 'deploy' only",
    )
    serving.add_argument(
        "--shard",
        type=_parse_shard_address,
        default=None,
        help="0-based tile address ('RxC', e.g. '0x1') the 'swap-shard' and "
        "'rollback-shard' verbs operate on",
    )
    analysis = parser.add_argument_group("static analysis ('lint' verb)")
    analysis.add_argument(
        "--format",
        dest="lint_format",
        default=None,
        choices=("text", "json"),
        help="lint report format: human-readable text (default) or the JSON "
        "document the CI static-analysis job archives",
    )
    analysis.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="'lint' only: record current findings to FILE on first run, "
        "then fail only on findings not in that recording (incremental "
        "adoption on a tree with legacy findings)",
    )
    analysis.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="'lint' only: print what RULE checks (its doc, an example "
        "finding, and the suppression pragma) instead of linting; accepts "
        "canonical names and aliases",
    )
    transport = parser.add_argument_group("network transport ('serve' verb)")
    transport.add_argument(
        "--host",
        default="127.0.0.1",
        help="address the HTTP service binds (0.0.0.0 to accept remote clients)",
    )
    transport.add_argument(
        "--port",
        type=int,
        default=DEFAULT_HTTP_PORT,
        help="TCP port the HTTP service binds (0 picks an ephemeral port, "
        "printed at startup); ServingClient dials the same port by default",
    )
    transport.add_argument(
        "--admin",
        action="store_true",
        help="enable the mutating /v1/deploy and /v1/rollback endpoints "
        "(hot-swaps re-save the manifest); without it the service is "
        "strictly read-only",
    )
    transport.add_argument(
        "--wire",
        choices=("binary", "off"),
        default=None,
        help="additionally serve the length-prefixed binary wire protocol "
        "next to HTTP (clients negotiate it via GET /v1/capabilities and "
        "fall back to JSON automatically); defaults to 'binary' when "
        "--workers is given, 'off' otherwise",
    )
    transport.add_argument(
        "--wire-port",
        type=int,
        default=None,
        help="TCP port for the binary wire listener "
        f"(default {DEFAULT_WIRE_PORT}; 0 picks an ephemeral port, printed "
        "at startup); only meaningful with --wire binary or --workers",
    )
    transport.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fork N worker processes that answer the binary wire protocol "
        "from shared-memory label grids (admin hot-swaps republish to them); "
        "0 (default) serves the wire protocol, if enabled, from in-process "
        "threads",
    )
    return parser


def _context(args: argparse.Namespace):
    return default_context(
        cities=tuple(args.cities),
        heights=tuple(args.heights),
        model_kinds=(args.model,),
        grid_rows=args.grid,
        grid_cols=args.grid,
        seed=args.seed,
    )


def _experiment_catalogue() -> str:
    lines = ["Available experiments:"]
    descriptions = {
        "disparity": "Figure 6 — per-neighborhood calibration of an unmitigated model",
        "ence": "Figure 7 — ENCE vs tree height for every partitioning method",
        "utility": "Figure 8 — accuracy and overall miscalibration vs height",
        "features": "Figure 9 — permutation feature importance per height",
        "multi-objective": "Figure 10 — one partition serving the ACT and Employment tasks",
        "timing": "Section 5.3.1 — Fair vs Iterative Fair KD-tree build time",
        "compare": "Before/after fairness report + ASCII map for one city and height",
    }
    for name in EXPERIMENTS:
        lines.append(f"  {name:16s} {descriptions[name]}")
    lines.append("Serving verbs:")
    serving_descriptions = {
        "build": "Build a partition once and persist it as an artifact bundle",
        "deploy": "Deploy an artifact under a name (--manifest records versions)",
        "swap-shard": "Hot-swap one tile of a sharded deployment (--shard RxC)",
        "rollback-shard": "Step one tile of a sharded deployment back a version",
        "deployments": "List the manifest's deployments and active versions",
        "query": "Batch point-location by deployment name or artifact path",
        "serve": "Serve the manifest over HTTP (typed protocol as JSON)",
    }
    for name in SERVING_COMMANDS:
        lines.append(f"  {name:16s} {serving_descriptions[name]}")
    lines.append("Analysis verbs:")
    lines.append(
        f"  {'lint':16s} Static concurrency/invariant checks over source paths"
    )
    lines.append(
        f"  {'sanitize-report':16s} Render the report a REPRO_SANITIZE=1 "
        "test run wrote"
    )
    lines.append("Lint rules (suppress with '# repro: ignore[rule] -- why'):")
    from .analysis import LINT_RULES

    for name, summary in LINT_RULES.summaries().items():
        lines.append(f"   {name:28s} {summary}")
    lines.append("Partitioning methods (--method; from the registry):")
    for entry in PARTITIONERS:
        marker = "*" if entry.flag("servable") else " "
        lines.append(f" {marker} {entry.name:28s} {entry.summary}")
    lines.append("  (* = persistable by the 'build' verb)")
    lines.append("Classifier families (--model):")
    for name, summary in MODELS.summaries().items():
        lines.append(f"   {name:28s} {summary}")
    return "\n".join(lines)


def _run_compare(context, args: argparse.Namespace) -> List[dict]:
    """Before/after fairness report for one city at one height.

    Trains a model once on the base grid (single neighborhood), then compares
    how the same confidence scores distribute over every partition of the
    registry's paper roster built at ``max(heights)``, and prints an ASCII
    map of the ``--method`` partition.
    """
    city = context.cities[0]
    height = max(context.heights)
    dataset = context.dataset(city)
    task = act_task()
    labels = task.labels(dataset)
    factory = context.model_factory(args.model)

    base = dataset.with_neighborhoods(np.zeros(dataset.n_records, dtype=int))
    scores, _, _ = train_scores_on_dataset(base, labels, factory)

    # The roster's first entry is the paper's reference baseline; every
    # improvement percentage below is relative to it.
    roster = PARTITIONERS.paper_methods()
    baseline = roster[0]
    assignments = {}
    shown_partition = None
    for method in roster:
        partitioner = context.partitioner(method, height)
        output = partitioner.build(dataset, labels, factory)
        assignments[method] = output.partition.assign(dataset.cell_rows, dataset.cell_cols)
        if method == args.method:
            shown_partition = output.partition

    rows = compare_partitions(scores, labels, assignments)
    print(format_table(rows, title=f"Fairness report — {city}, height {height}, task {task.name}"))
    improvements = improvement_summary(rows, baseline=baseline)
    print(f"\nENCE improvement over {baseline}:")
    for method, fraction in improvements.items():
        print(f"  {method:24s} {fraction * 100:6.1f}%")
    if shown_partition is not None:
        print(f"\n{args.method} partition (one letter per neighborhood, south at the bottom):")
        print(render_partition_ascii(shown_partition))
    return rows


def _run_build(context, args: argparse.Namespace) -> List[dict]:
    """Build one partition and persist it as an artifact bundle.

    The partition is built for the first requested city at the largest
    requested height; the artifact records full provenance (city, method,
    height, grid, model, seeds) so ``query`` can report what it
    serves.
    """
    city = context.cities[0]
    height = max(context.heights)
    spec = RunSpec(
        partition=PartitionSpec(method=args.method, height=height),
        city=city,
        model=args.model,
        grid_rows=context.grid_rows,
        grid_cols=context.grid_cols,
        seed=args.seed,
        dataset_seed=context.dataset_seed,
    )
    result = build_partition(spec, dataset=context.dataset(city))
    path = result.save(args.artifact)
    summary = result.partition.summary()
    print(
        f"built {spec.partition.method} partition of {city} at height {height}: "
        f"{result.n_neighborhoods} neighborhoods over a "
        f"{context.grid_rows}x{context.grid_cols} grid"
    )
    print(f"artifact written to {path}")
    return [
        {
            "city": city,
            "method": spec.partition.method,
            "height": height,
            "n_regions": result.n_neighborhoods,
            "min_cells": summary["min_cells"],
            "max_cells": summary["max_cells"],
            "artifact": str(path),
        }
    ]


def _serving_config(args: argparse.Namespace) -> ServingConfig:
    return ServingConfig(strict=args.strict)


def _engine_for(
    args: argparse.Namespace,
    require_manifest: bool = False,
    allow_overrides: bool = True,
) -> ServingEngine:
    """The serving engine a verb operates on: manifest-backed when given.

    ``deploy`` bootstraps a fresh engine when the manifest does not exist
    yet; verbs that *read* deployments pass ``require_manifest`` so a
    missing manifest is a clean error instead of an empty engine.  A
    manifest-backed engine keeps the serving config the manifest was saved
    with; for read-only verbs, ``--strict`` / ``--no-strict`` override it
    for this invocation only.
    ``deploy`` passes ``allow_overrides=False`` — it re-saves the manifest,
    and a per-invocation flag must not rewrite the persisted config every
    other deployment serves under; :func:`run` rejects such flags up front
    (the manifest's config is fixed when the manifest is first created).
    """
    from .api import open_engine

    if args.manifest and (require_manifest or Path(args.manifest).is_file()):
        overrides = {}
        if allow_overrides:
            if args.strict:
                overrides["strict"] = True
            elif args.no_strict:
                overrides["strict"] = False
        return ServingEngine.from_manifest(
            args.manifest,
            spec_validator=RunSpec.from_dict,
            config_overrides=overrides or None,
        )
    return open_engine(_serving_config(args))


def _cli_row(info: dict) -> dict:
    """One engine deployment summary as a printable/exportable table row."""
    return {
        "name": info["name"],
        "version": info["version"],
        "n_regions": info["n_regions"] if info.get("error") is None else "-",
        "backend": info["backend"] or "-",
        "shards": "x".join(map(str, info["shards"])) if info["shards"] else "-",
        "status": f"error: {info['error']}" if info.get("error") else "ok",
        "source": info["source"],
    }


def _deployment_rows(engine: ServingEngine) -> List[dict]:
    return [_cli_row(info) for info in engine.deployments()]


def _print_serving_stats(engine: ServingEngine) -> None:
    """The ``--verbose`` tail of the serving verbs: engine + cache counters."""
    stats = engine.stats
    cache = stats["cache"]
    print(
        "cache: "
        + " ".join(f"{key}={cache[key]}" for key in ("hits", "misses", "evictions", "reloads", "resident"))
        + f" hit_ratio={cache['hit_ratio']:.2f}"
    )
    for name, counters in stats["deployments"].items():
        print(
            f"deployment {name}: "
            + " ".join(f"{key}={value}" for key, value in counters.items())
        )


def _run_deploy(args: argparse.Namespace) -> List[dict]:
    """Deploy an artifact bundle under a name and persist the manifest.

    The engine loads and re-validates the bundle (embedded run spec
    included) before the deployment's active pointer moves, so a broken
    artifact cannot displace a serving version.
    """
    engine = _engine_for(args, allow_overrides=False)
    info = engine.deploy(args.name, args.artifact, shards=args.shards)
    engine.save_manifest(args.manifest)
    print(
        f"deployed {args.artifact} as {info['name']} v{info['version']} "
        f"({info['n_regions']} neighborhoods, {info['backend']} backend"
        + (f", {info['shards'][0]}x{info['shards'][1]} shards" if info["shards"] else "")
        + ")"
    )
    print(f"manifest written to {args.manifest}")
    if args.verbose:
        _print_serving_stats(engine)
    # Only the just-deployed row: that is what this invocation changed,
    # and the full table (with liveness stats of every bundle) is the
    # 'deployments' verb's job.
    return [_cli_row(info)]


def _run_swap_shard(args: argparse.Namespace) -> List[dict]:
    """Hot-swap one tile of a sharded deployment from a donor bundle.

    The tile's cell window is sliced out of the donor's label grid (the
    donor must be built over the same grid); the swap is logged in the
    manifest, so a restarted engine replays it.
    """
    engine = _engine_for(args, require_manifest=True, allow_overrides=False)
    row, col = args.shard
    info = engine.swap_shard(args.name, row, col, args.artifact)
    engine.save_manifest(args.manifest)
    print(
        f"swapped shard ({row}, {col}) of {info['name']} v{info['version']} "
        f"from {args.artifact} (tile now at version {info['shard_version']})"
    )
    print(f"manifest written to {args.manifest}")
    if args.verbose:
        _print_serving_stats(engine)
    return [
        {
            "name": info["name"],
            "version": info["version"],
            "shard": f"{row}x{col}",
            "shard_version": info["shard_version"],
            "artifact": args.artifact,
        }
    ]


def _run_rollback_shard(args: argparse.Namespace) -> List[dict]:
    """Step one tile of a sharded deployment back one label version."""
    engine = _engine_for(args, require_manifest=True, allow_overrides=False)
    row, col = args.shard
    info = engine.rollback_shard(args.name, row, col)
    engine.save_manifest(args.manifest)
    print(
        f"rolled back shard ({row}, {col}) of {info['name']} "
        f"v{info['version']} (tile now at version {info['shard_version']})"
    )
    print(f"manifest written to {args.manifest}")
    if args.verbose:
        _print_serving_stats(engine)
    return [
        {
            "name": info["name"],
            "version": info["version"],
            "shard": f"{row}x{col}",
            "shard_version": info["shard_version"],
        }
    ]


def _run_deployments(args: argparse.Namespace) -> List[dict]:
    """List the manifest's deployments (active version each)."""
    engine = _engine_for(args, require_manifest=True)
    rows = _deployment_rows(engine)
    print(format_table(rows, title=f"Deployments — {args.manifest}"))
    if args.verbose:
        _print_serving_stats(engine)
    return rows


def _run_query(args: argparse.Namespace) -> List[dict]:
    """Batch point-location, routed through the serving engine.

    ``--name``/``--manifest`` route to a named deployment; a bare
    ``--artifact`` is deployed one-shot under an ad-hoc name first — both
    paths re-validate the run spec embedded in each bundle, so a stale
    artifact naming a method this installation no longer knows fails here
    with a clean error instead of serving unidentifiable regions.
    """
    if args.name:
        engine = _engine_for(args, require_manifest=True)
        name = args.name
    else:
        # One-shot path queries stand alone: run() rejected --manifest
        # without --name, so this builds a fresh engine and a broken
        # deployment elsewhere cannot fail an unrelated artifact.
        engine = _engine_for(args)
        name = "adhoc"
        engine.deploy(name, args.artifact)
    xs, ys = read_points_csv(args.points)
    assignment = engine.locate_points(name, xs, ys)
    located = int(np.count_nonzero(assignment >= 0))
    info = engine.describe(name)
    provenance = info["server"].get("provenance", {})
    source = ", ".join(
        f"{key}={provenance[key]}"
        for key in ("city", "method", "height")
        if key in provenance
    )
    print(
        f"deployment {name} v{info['version']} "
        f"({info['backend']} backend): {info['n_regions']} neighborhoods"
        + (f" ({source})" if source else "")
    )
    print(
        f"located {located}/{len(assignment)} points in "
        f"{len(np.unique(assignment[assignment >= 0]))} distinct neighborhoods"
        + (f"; {len(assignment) - located} off-map -> -1" if located < len(assignment) else "")
    )
    if args.verbose:
        _print_serving_stats(engine)
    if not args.output:
        return []
    return [
        {"x": float(x), "y": float(y), "neighborhood": int(index)}
        for x, y, index in zip(xs, ys, assignment)
    ]


def _run_serve(args: argparse.Namespace) -> List[dict]:
    """Serve the manifest's deployments as an HTTP service.

    The process blocks until interrupted: Ctrl-C and SIGTERM both close
    the server (live connections, worker processes and their shared
    memory included) and return.  Each connection is answered on its own
    thread, and the engine's per-deployment read/write locks keep admin
    hot-swaps atomic under concurrent traffic.  With ``--admin``,
    successful deploys and rollbacks re-save the manifest, so a restarted
    service serves what was last deployed.
    """
    from .serving import ServingHTTPServer

    engine = _engine_for(args, require_manifest=True, allow_overrides=not args.admin)
    wire_enabled = args.wire == "binary" or args.workers > 0
    server = ServingHTTPServer(
        engine,
        host=args.host,
        port=args.port,
        admin=args.admin,
        manifest_path=args.manifest if args.admin else None,
        wire_port=(
            (DEFAULT_WIRE_PORT if args.wire_port is None else args.wire_port)
            if wire_enabled
            else None
        ),
        workers=args.workers,
    )
    # SIGTERM takes the Ctrl-C path: KeyboardInterrupt, then close().
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_background()
        for row in _deployment_rows(engine):
            print(
                f"serving {row['name']} v{row['version']} "
                f"({row['n_regions']} neighborhoods, {row['backend']} backend)"
            )
        print(
            f"listening on {server.url} "
            + ("(admin endpoints enabled)" if args.admin else "(read-only)")
        )
        if wire_enabled:
            wire_host, wire_port = server.wire_address
            print(
                f"binary wire protocol on {wire_host}:{wire_port} "
                + (
                    f"({args.workers} shared-memory worker processes)"
                    if args.workers
                    else "(in-process)"
                )
            )
        if args.admin and args.host not in ("127.0.0.1", "localhost", "::1"):
            # The admin plane is unauthenticated by design (loopback /
            # trusted networks); binding it wide open deserves a loud note.
            print(
                "warning: admin endpoints are unauthenticated — anyone who "
                f"can reach {args.host}:{server.server_address[1]} can "
                "hot-swap deployments and load server-side bundle paths",
                file=sys.stderr,
            )
        while True:
            signal.pause()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
        signal.signal(signal.SIGTERM, previous)
    if args.verbose:
        _print_serving_stats(engine)
    return []


def _run_explain(rule_name: str) -> int:
    """Print one lint rule's documentation card; exit 2 on unknown names.

    The card is the onboarding answer to "the linter flagged me — why?":
    the rule's summary, its class docstring, an example finding (from the
    rule's ``example`` registration metadata), and the exact pragma that
    suppresses it with a justification.
    """
    import inspect

    from .analysis import LINT_RULES

    try:
        entry = LINT_RULES.resolve(rule_name)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = [entry.name]
    if entry.aliases:
        lines.append(f"aliases: {', '.join(entry.aliases)}")
    if entry.summary:
        lines.append(f"summary: {entry.summary}")
    doc = inspect.getdoc(entry.obj)
    if doc:
        lines.extend(["", doc])
    example = entry.flag("example", "")
    if example:
        lines.extend(["", "example finding:", f"  {example}"])
    counterpart = entry.flag("static_counterpart", "")
    if entry.flag("runtime"):
        lines.extend(
            [
                "",
                "This is a runtime rule: it reports what the armed sanitizer "
                "(REPRO_SANITIZE=1) observed during execution, not what the "
                "static pass proved.",
            ]
        )
        if counterpart:
            lines.append(f"static counterpart: {counterpart}")
    pragma_names = " / ".join(
        f"# repro: ignore[{name}] -- <justification>"
        for name in ([counterpart, entry.name] if counterpart else [entry.name])
    )
    lines.extend(["", f"suppress with: {pragma_names}"])
    print("\n".join(lines))
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """Run the static checker; exit 0 clean, 1 on findings, 2 on bad input.

    Imported lazily so the experiment paths never pay for it.  ``--output``
    additionally writes the findings as CSV rows, like every other verb.
    With ``--baseline FILE`` the first run records the tree's findings and
    passes; later runs fail only on findings not in the recording.
    ``--explain RULE`` prints the rule's documentation card instead of
    linting anything.
    """
    from .analysis import lint_paths
    from .analysis.runner import apply_baseline

    if args.explain:
        return _run_explain(args.explain)
    try:
        report = lint_paths(args.paths or ["src"])
        recorded = False
        if args.baseline:
            report, recorded = apply_baseline(report, args.baseline)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.lint_format == "json" else report.render_text())
    if args.output and report.findings:
        path = save_rows_csv([finding.to_dict() for finding in report.findings], args.output)
        print(f"wrote {len(report.findings)} findings to {path}", file=sys.stderr)
    if recorded:
        print(
            f"recorded {len(report.findings)} finding(s) as the lint "
            f"baseline at {args.baseline}; future runs fail only on new ones",
            file=sys.stderr,
        )
        return 0
    return 0 if report.clean else 1


def _run_sanitize_report(args: argparse.Namespace) -> int:
    """Render a saved runtime-sanitizer report with lint's exit contract.

    The report is the ``sanitizer_report.json`` a ``REPRO_SANITIZE=1`` test
    session wrote at exit (path overridable via ``REPRO_SANITIZE_REPORT``);
    this verb re-renders it for humans or CI without re-running the tests.
    """
    from .analysis import load_report

    paths = args.paths or ["sanitizer_report.json"]
    if len(paths) > 1:
        print("error: 'sanitize-report' renders exactly one report file", file=sys.stderr)
        return 2
    try:
        report = load_report(paths[0])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.lint_format == "json" else report.render_text())
    return 0 if report.clean else 1


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging()

    if args.experiment == "list":
        print(_experiment_catalogue())
        return 0

    if args.experiment not in ANALYSIS_COMMANDS:
        if args.paths:
            parser.error(
                "positional PATH arguments apply to the analysis verbs "
                "('lint', 'sanitize-report') only"
            )
        if args.lint_format:
            parser.error(
                "--format applies to the analysis verbs "
                "('lint', 'sanitize-report') only"
            )
    if args.baseline and args.experiment != "lint":
        parser.error("--baseline applies to the 'lint' verb only")
    if args.explain and args.experiment != "lint":
        parser.error("--explain applies to the 'lint' verb only")
    if args.experiment == "lint":
        return _run_lint(args)
    if args.experiment == "sanitize-report":
        return _run_sanitize_report(args)

    if args.experiment in ("build", "deploy", "swap-shard") and not args.artifact:
        parser.error(f"'{args.experiment}' requires --artifact")
    if args.shards is not None and args.experiment != "deploy":
        parser.error("--shards applies to the 'deploy' verb only")
    if args.experiment in ("swap-shard", "rollback-shard"):
        if not (args.name and args.manifest):
            parser.error(f"'{args.experiment}' requires --name and --manifest")
        if args.shard is None:
            parser.error(
                f"'{args.experiment}' requires --shard (a 0-based RxC tile "
                "address like '--shard 0x1')"
            )
        if args.strict or args.no_strict:
            # Shard ops re-save the manifest, same rule as deploy below.
            parser.error(
                f"--strict cannot be combined with "
                f"'{args.experiment}': the manifest keeps the config it was "
                "created with"
            )
    elif args.shard is not None:
        parser.error(
            "--shard applies to the 'swap-shard' and 'rollback-shard' verbs only"
        )
    if args.strict and args.no_strict:
        parser.error("--strict and --no-strict are mutually exclusive")
    if args.experiment == "deploy" and not (args.name and args.manifest):
        parser.error("'deploy' requires --name and --manifest")
    if args.experiment == "deploy" \
            and (args.strict or args.no_strict) \
            and args.manifest and Path(args.manifest).is_file():
        # Ignoring the flag would silently lose intent; rewriting the
        # persisted config would silently change every other deployment.
        parser.error(
            "--strict configures a manifest only when it is first "
            "created; the existing manifest keeps the config it was saved with"
        )
    if args.experiment == "deployments" and not args.manifest:
        parser.error("'deployments' requires --manifest")
    if args.experiment == "serve":
        if not args.manifest:
            parser.error("'serve' requires --manifest")
        if args.workers < 0:
            parser.error(f"--workers must be >= 0, got {args.workers}")
        if args.wire == "off" and args.workers > 0:
            # Workers exist to answer the wire protocol; a pool with its
            # only transport disabled is a contradiction, not a default.
            parser.error(
                "--wire off cannot be combined with --workers: worker "
                "processes serve the binary wire protocol"
            )
        if args.wire_port is not None and args.wire == "off":
            parser.error("--wire-port is meaningless with --wire off")
        if args.admin and (args.strict or args.no_strict):
            # Admin hot-swaps re-save the manifest; a per-invocation flag
            # must not silently rewrite the persisted serving config.
            parser.error(
                "--strict cannot be combined with 'serve --admin': "
                "admin hot-swaps re-save the manifest, which keeps the "
                "config it was created with"
            )
    elif args.admin \
            or args.wire is not None or args.wire_port is not None \
            or args.workers != 0 \
            or args.host != "127.0.0.1" or args.port != DEFAULT_HTTP_PORT:
        # Silently ignoring a transport flag would let `query --port N`
        # run in-process while the user believes they hit the service.
        parser.error(
            "--host/--port/--admin/--wire/--wire-port/--workers "
            "apply to the 'serve' verb only"
        )
    if args.experiment == "query":
        if not args.points:
            parser.error("'query' requires --points")
        if args.name and args.artifact:
            parser.error("'query' takes --name or --artifact, not both")
        if args.name and not args.manifest:
            parser.error("'query --name' requires --manifest")
        if args.manifest and not args.name:
            # One-shot path queries never read the manifest; accepting the
            # flag would silently drop the intent to use its stored config.
            parser.error("'query' takes --manifest only together with --name")
        if not args.name and not args.artifact:
            parser.error("'query' requires --name (with --manifest) or --artifact")

    context = _context(args)
    rows: List[dict] = []

    if args.experiment == "disparity":
        result = run_disparity_experiment(context)
        print(result.render())
        for city in context.cities:
            rows.extend({"city": city, **row} for row in result.rows(city))
    elif args.experiment == "ence":
        result = run_ence_sweep(context)
        print(result.render("test"))
        rows = comparisons_to_rows(result.comparisons)
    elif args.experiment == "utility":
        result = run_utility_sweep(context, model_kind=args.model)
        print(result.render())
        rows = comparisons_to_rows(result.comparisons)
    elif args.experiment == "features":
        result = run_feature_heatmap(context, model_kind=args.model)
        print(result.render())
        rows = [
            {"city": city, "method": method, "height": height, **values}
            for (city, method, height), values in sorted(result.importances.items())
        ]
    elif args.experiment == "multi-objective":
        result = run_multi_objective_experiment(context, model_kind=args.model)
        print(result.render())
        rows = [
            {"city": city, "height": height, "method": method, "task": task, "ence": value}
            for (city, height, method, task), value in sorted(result.ence.items())
        ]
    elif args.experiment == "timing":
        result = run_timing_experiment(
            context, city=context.cities[0], height=max(context.heights), model_kind=args.model
        )
        print(result.render())
        rows = [
            {
                "method": method,
                "build_seconds": seconds,
                "model_trainings": result.model_trainings.get(method, 0),
            }
            for method, seconds in result.seconds.items()
        ]
    elif args.experiment == "compare":
        rows = _run_compare(context, args)
    elif args.experiment in SERVING_COMMANDS:
        # Serving failures (missing/corrupt artifact or manifest, unknown
        # deployment names, off-map points under --strict, malformed points
        # files) are expected user errors, not bugs: report them cleanly
        # instead of dumping a traceback.
        serving_verbs = {
            "deploy": lambda: _run_deploy(args),
            "swap-shard": lambda: _run_swap_shard(args),
            "rollback-shard": lambda: _run_rollback_shard(args),
            "deployments": lambda: _run_deployments(args),
            "query": lambda: _run_query(args),
            "serve": lambda: _run_serve(args),
        }
        try:
            if args.experiment == "build":
                rows = _run_build(context, args)
            else:
                rows = serving_verbs[args.experiment]()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.output and rows:
        path = save_rows_csv(rows, args.output)
        print(f"\nwrote {len(rows)} rows to {path}")
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
