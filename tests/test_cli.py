"""Tests for the command-line interface."""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import RunSpec
from repro.cli import (
    BUILD_METHODS,
    EXPERIMENTS,
    MODEL_CHOICES,
    SERVING_COMMANDS,
    build_parser,
    run,
)
from repro.io.points import write_points_csv
from repro.registry import MODELS, PARTITIONERS


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["ence", "--heights", "3", "5"])
        assert args.experiment == "ence"
        assert args.heights == [3, 5]

    def test_invalid_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["nonexistent"])

    def test_defaults(self):
        args = build_parser().parse_args(["timing"])
        assert args.model == "logistic_regression"
        assert args.grid == 32
        assert args.output is None

    def test_catalogue_covers_all_paper_figures(self):
        assert set(EXPERIMENTS) == {
            "disparity", "ence", "utility", "features", "multi-objective", "timing", "compare"
        }

    def test_choices_derived_from_registries(self):
        assert BUILD_METHODS == PARTITIONERS.names(servable=True)
        assert MODEL_CHOICES == MODELS.names()

    def test_unservable_method_rejected_by_parser(self):
        # multi_objective_fair_kdtree is registered but not servable, so the
        # registry-derived choices must exclude it.
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["build", "--artifact", "x", "--method", "multi_objective_fair_kdtree"]
            )

    def test_list_includes_registry_catalogue(self, capsys):
        assert run(["list"]) == 0
        output = capsys.readouterr().out
        for name in PARTITIONERS.names():
            assert name in output
        for name in MODELS.names():
            assert name in output

    def test_serving_verbs_registered(self):
        assert SERVING_COMMANDS == (
            "build", "deploy", "swap-shard", "rollback-shard", "deployments",
            "query", "serve",
        )
        args = build_parser().parse_args(
            ["build", "--artifact", "x.artifact", "--method", "median_kdtree"]
        )
        assert args.method == "median_kdtree"

    def test_backend_flag_is_gone(self, capsys):
        # Every server reads the one padded label grid: nothing to choose.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--backend", "dense"])
        assert "Locator backends" not in build_parser().format_help()
        capsys.readouterr()

    def test_shards_argument_parsing(self):
        assert build_parser().parse_args(["deploy", "--shards", "2x4"]).shards == (2, 4)
        assert build_parser().parse_args(["deploy", "--shards", "3"]).shards == (3, 3)
        for bad in ("0x2", "ax2", "-1"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["deploy", "--shards", bad])

    def test_shards_rejected_outside_deploy(self, tmp_path):
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        with pytest.raises(SystemExit):
            run(["query", "--artifact", "x.artifact", "--points", str(points),
                 "--shards", "2x2"])

    def test_shard_address_parsing(self):
        parsed = build_parser().parse_args(["swap-shard", "--shard", "0x1"])
        assert parsed.shard == (0, 1)
        for bad in ("1", "ax0", "-1x0", "0x"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["swap-shard", "--shard", bad])

    def test_swap_shard_requires_name_manifest_shard_artifact(self, capsys):
        # Each missing required flag is a usage error, not a crash.
        with pytest.raises(SystemExit):
            run(["swap-shard", "--name", "la", "--manifest", "m.json",
                 "--artifact", "x.artifact"])  # no --shard
        with pytest.raises(SystemExit):
            run(["swap-shard", "--name", "la", "--manifest", "m.json",
                 "--shard", "0x0"])  # no --artifact
        with pytest.raises(SystemExit):
            run(["rollback-shard", "--manifest", "m.json", "--shard", "0x0"])
        capsys.readouterr()

    def test_shard_verbs_reject_config_overrides(self, capsys):
        with pytest.raises(SystemExit):
            run(["rollback-shard", "--name", "la", "--manifest", "m.json",
                 "--shard", "0x0", "--strict"])
        capsys.readouterr()

    def test_shard_flag_rejected_outside_shard_verbs(self, capsys):
        with pytest.raises(SystemExit):
            run(["deployments", "--manifest", "m.json", "--shard", "0x0"])
        capsys.readouterr()

    def test_build_requires_artifact(self, capsys):
        with pytest.raises(SystemExit):
            run(["build", "--cities", "los_angeles", "--heights", "3", "--grid", "16"])

    def test_query_requires_points(self, capsys):
        with pytest.raises(SystemExit):
            run(["query", "--artifact", "x.artifact"])

    def test_query_requires_name_or_artifact(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        with pytest.raises(SystemExit):
            run(["query", "--points", str(points)])
        with pytest.raises(SystemExit):
            run(["query", "--points", str(points), "--name", "la"])  # no manifest
        with pytest.raises(SystemExit):  # ambiguous routing target
            run(["query", "--points", str(points), "--name", "la",
                 "--manifest", "m.json", "--artifact", "x.artifact"])

    def test_strict_flags_mutually_exclusive(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        with pytest.raises(SystemExit):
            run(["query", "--artifact", "x.artifact", "--points", str(points),
                 "--strict", "--no-strict"])

    def test_deploy_requires_name_and_manifest(self, capsys):
        with pytest.raises(SystemExit):
            run(["deploy", "--artifact", "x.artifact"])
        with pytest.raises(SystemExit):
            run(["deploy", "--artifact", "x.artifact", "--name", "la"])

    def test_deploy_config_flags_rejected_against_existing_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "deployments.json"
        manifest.write_text("{}")  # existence is what triggers the guard
        for flag in (["--strict"], ["--no-strict"]):
            with pytest.raises(SystemExit):
                run(["deploy", "--artifact", "x.artifact", "--name", "la",
                     "--manifest", str(manifest), *flag])

    def test_deployments_requires_manifest(self, capsys):
        with pytest.raises(SystemExit):
            run(["deployments"])

    def test_serve_defaults_and_flags(self):
        args = build_parser().parse_args(["serve", "--manifest", "m.json"])
        assert args.host == "127.0.0.1" and args.port == 8350
        assert not args.admin and args.workers == 0
        args = build_parser().parse_args(
            ["serve", "--manifest", "m.json", "--host", "0.0.0.0",
             "--port", "0", "--admin", "--workers", "4"]
        )
        assert args.admin and args.workers == 4 and args.port == 0

    def test_serve_requires_manifest(self, capsys):
        with pytest.raises(SystemExit):
            run(["serve"])

    def test_serve_admin_rejects_config_overrides(self, capsys):
        # Admin hot-swaps re-save the manifest, so per-invocation config
        # flags must not silently rewrite the persisted serving config.
        for flag in (["--strict"], ["--no-strict"]):
            with pytest.raises(SystemExit):
                run(["serve", "--manifest", "m.json", "--admin", *flag])

    def test_transport_flags_rejected_outside_serve(self, capsys):
        with pytest.raises(SystemExit):
            run(["deployments", "--manifest", "m.json", "--admin"])
        with pytest.raises(SystemExit):
            run(["deployments", "--manifest", "m.json", "--workers", "2"])
        # --host/--port silently ignored would mislead (`query --port N`
        # runs in-process, not against the service) — rejected too.
        with pytest.raises(SystemExit):
            run(["deployments", "--manifest", "m.json", "--port", "9000"])
        with pytest.raises(SystemExit):
            run(["deployments", "--manifest", "m.json", "--host", "0.0.0.0"])


class TestRun:
    def test_list_command(self, capsys):
        assert run(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_timing_command_small(self, capsys):
        code = run([
            "timing", "--cities", "los_angeles", "--heights", "3",
            "--grid", "16", "--seed", "3",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "fair_kdtree" in output
        assert "iterative_fair_kdtree" in output

    def test_ence_command_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "ence.csv"
        code = run([
            "ence", "--cities", "los_angeles", "--heights", "3",
            "--grid", "16", "--output", str(target),
        ])
        assert code == 0
        assert target.exists()
        text = target.read_text()
        assert "fair_kdtree" in text
        assert "ence_test" in text.splitlines()[0]

    def test_disparity_command(self, capsys, tmp_path):
        target = tmp_path / "disparity.csv"
        code = run([
            "disparity", "--cities", "houston", "--grid", "16",
            "--output", str(target),
        ])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out
        assert target.exists()

    def test_build_then_query_roundtrip(self, capsys, tmp_path):
        artifact = tmp_path / "la_h4.artifact"
        code = run([
            "build", "--cities", "los_angeles", "--heights", "4",
            "--grid", "16", "--artifact", str(artifact),
        ])
        assert code == 0
        assert (artifact / "manifest.json").exists()
        output = capsys.readouterr().out
        assert "artifact written to" in output

        rng = np.random.default_rng(9)
        points = tmp_path / "points.csv"
        write_points_csv(points, rng.uniform(-0.2, 1.2, 50), rng.uniform(-0.2, 1.2, 50))
        assignments = tmp_path / "assignments.csv"
        code = run([
            "query", "--artifact", str(artifact),
            "--points", str(points), "--output", str(assignments),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "located" in output
        lines = assignments.read_text().splitlines()
        assert lines[0] == "x,y,neighborhood"
        assert len(lines) == 51
        labels = {int(line.rsplit(",", 1)[1]) for line in lines[1:]}
        assert -1 in labels  # the generated batch includes off-map points
        assert any(label >= 0 for label in labels)

    def test_built_artifact_embeds_validatable_run_spec(self, tmp_path, capsys):
        artifact = tmp_path / "la.artifact"
        code = run([
            "build", "--cities", "los_angeles", "--heights", "4",
            "--grid", "16", "--method", "median_kdtree",
            "--artifact", str(artifact),
        ])
        assert code == 0
        manifest = json.loads((artifact / "manifest.json").read_text())
        spec = RunSpec.from_dict(manifest["provenance"]["spec"])
        assert spec.partition.method == "median_kdtree"
        assert spec.partition.height == 4
        assert spec.city == "los_angeles"
        assert spec.grid_rows == 16

    def test_query_rejects_artifact_with_invalid_spec(self, capsys, tmp_path):
        artifact = tmp_path / "la.artifact"
        run([
            "build", "--cities", "los_angeles", "--heights", "3",
            "--grid", "16", "--artifact", str(artifact),
        ])
        capsys.readouterr()
        manifest_path = artifact / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["spec"]["partition"]["method"] = "rtree"
        manifest_path.write_text(json.dumps(manifest))
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        code = run(["query", "--artifact", str(artifact), "--points", str(points)])
        assert code == 1
        assert "rtree" in capsys.readouterr().err

    def test_query_missing_artifact_fails_cleanly(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        code = run([
            "query", "--artifact", str(tmp_path / "absent"), "--points", str(points),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_query_strict_off_map_fails_cleanly(self, capsys, tmp_path):
        artifact = tmp_path / "la.artifact"
        run([
            "build", "--cities", "los_angeles", "--heights", "3",
            "--grid", "16", "--artifact", str(artifact),
        ])
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([5.0]), np.array([0.5]))
        code = run([
            "query", "--artifact", str(artifact), "--points", str(points), "--strict",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_query_without_output_prints_summary_only(self, capsys, tmp_path):
        artifact = tmp_path / "la.artifact"
        run([
            "build", "--cities", "los_angeles", "--heights", "3",
            "--grid", "16", "--artifact", str(artifact),
        ])
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        assert run(["query", "--artifact", str(artifact), "--points", str(points)]) == 0
        assert "located 1/1" in capsys.readouterr().out

    def _build(self, tmp_path, name: str, height: str = "3", method: str = "fair_kdtree"):
        artifact = tmp_path / f"{name}.artifact"
        assert run([
            "build", "--cities", "los_angeles", "--heights", height,
            "--grid", "16", "--method", method, "--artifact", str(artifact),
        ]) == 0
        return artifact

    def test_deploy_then_query_by_name(self, capsys, tmp_path):
        artifact = self._build(tmp_path, "la")
        manifest = tmp_path / "deployments.json"
        assert run([
            "deploy", "--artifact", str(artifact), "--name", "la",
            "--manifest", str(manifest),
        ]) == 0
        assert manifest.exists()
        assert "deployed" in capsys.readouterr().out

        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5, 5.0]), np.array([0.5, 0.5]))
        assert run([
            "query", "--name", "la", "--manifest", str(manifest),
            "--points", str(points),
        ]) == 0
        output = capsys.readouterr().out
        assert "deployment la v1" in output
        assert "located 1/2" in output

    def test_deploy_hot_swap_bumps_version(self, capsys, tmp_path):
        manifest = tmp_path / "deployments.json"
        first = self._build(tmp_path, "h3")
        second = self._build(tmp_path, "h4", height="4", method="median_kdtree")
        run(["deploy", "--artifact", str(first), "--name", "la",
             "--manifest", str(manifest)])
        assert run([
            "deploy", "--artifact", str(second), "--name", "la",
            "--manifest", str(manifest),
        ]) == 0
        assert "la v2" in capsys.readouterr().out

        assert run(["deployments", "--manifest", str(manifest)]) == 0
        output = capsys.readouterr().out
        assert "la" in output and "median_kdtree" not in output  # table, not provenance

    def test_deploy_sharded_and_query(self, capsys, tmp_path):
        artifact = self._build(tmp_path, "la")
        manifest = tmp_path / "deployments.json"
        assert run([
            "deploy", "--artifact", str(artifact), "--name", "la",
            "--manifest", str(manifest), "--shards", "2x2",
        ]) == 0
        assert "2x2 shards" in capsys.readouterr().out
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.25, 0.75]), np.array([0.25, 0.75]))
        assert run([
            "query", "--name", "la", "--manifest", str(manifest),
            "--points", str(points),
        ]) == 0
        assert "sharded backend" in capsys.readouterr().out

    def test_swap_then_rollback_shard_roundtrip(self, capsys, tmp_path):
        manifest = tmp_path / "deployments.json"
        target = self._build(tmp_path, "fair")
        donor = self._build(tmp_path, "median", method="median_kdtree")
        run(["deploy", "--artifact", str(target), "--name", "la",
             "--manifest", str(manifest), "--shards", "2x2"])
        capsys.readouterr()

        assert run([
            "swap-shard", "--name", "la", "--manifest", str(manifest),
            "--shard", "0x1", "--artifact", str(donor),
        ]) == 0
        output = capsys.readouterr().out
        assert "swapped shard (0, 1)" in output
        assert "tile now at version 2" in output

        # The patched tiling persists: a fresh engine (new CLI process)
        # replays the swap from the saved manifest before querying.
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.25, 0.75]), np.array([0.25, 0.75]))
        assert run([
            "query", "--name", "la", "--manifest", str(manifest),
            "--points", str(points),
        ]) == 0
        assert "sharded backend" in capsys.readouterr().out

        assert run([
            "rollback-shard", "--name", "la", "--manifest", str(manifest),
            "--shard", "0x1",
        ]) == 0
        assert "tile now at version 1" in capsys.readouterr().out

    def test_swap_shard_on_unsharded_deployment_fails_cleanly(
        self, capsys, tmp_path
    ):
        manifest = tmp_path / "deployments.json"
        artifact = self._build(tmp_path, "flat")
        run(["deploy", "--artifact", str(artifact), "--name", "la",
             "--manifest", str(manifest)])
        capsys.readouterr()
        assert run([
            "swap-shard", "--name", "la", "--manifest", str(manifest),
            "--shard", "0x0", "--artifact", str(artifact),
        ]) == 1
        assert "not sharded" in capsys.readouterr().err

    def test_query_verbose_surfaces_cache_and_engine_stats(self, capsys, tmp_path):
        artifact = self._build(tmp_path, "la")
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        assert run([
            "query", "--artifact", str(artifact), "--points", str(points),
            "--verbose",
        ]) == 0
        output = capsys.readouterr().out
        assert "hit_ratio=" in output
        assert "deployment adhoc:" in output
        assert "queries=1" in output

    def test_manifest_saved_with_a_backend_serves_dense(self, capsys, tmp_path):
        """A manifest whose stored config still names a locator backend
        loads, and its deployments answer from the dense padded grid."""
        artifact = self._build(tmp_path, "la")
        manifest = tmp_path / "deployments.json"
        assert run([
            "deploy", "--artifact", str(artifact), "--name", "la",
            "--manifest", str(manifest),
        ]) == 0
        payload = json.loads(manifest.read_text())
        payload["config"]["backend"] = "sparse"
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        assert run([
            "query", "--name", "la", "--manifest", str(manifest),
            "--points", str(points),
        ]) == 0
        assert "dense backend" in capsys.readouterr().out

    def test_no_strict_overrides_strict_manifest(self, capsys, tmp_path):
        artifact = self._build(tmp_path, "la")
        manifest = tmp_path / "deployments.json"
        # Manifest created strict (allowed: the manifest does not exist yet).
        assert run([
            "deploy", "--artifact", str(artifact), "--name", "la",
            "--manifest", str(manifest), "--strict",
        ]) == 0
        capsys.readouterr()
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([5.0]), np.array([0.5]))  # off-map
        assert run([
            "query", "--name", "la", "--manifest", str(manifest),
            "--points", str(points),
        ]) == 1  # stored strict default applies
        capsys.readouterr()
        assert run([
            "query", "--name", "la", "--manifest", str(manifest),
            "--points", str(points), "--no-strict",
        ]) == 0  # per-invocation opt-out
        assert "off-map -> -1" in capsys.readouterr().out

    def test_one_shot_query_rejects_stray_manifest(self, capsys, tmp_path):
        """--manifest without --name would be silently ignored; error instead."""
        artifact = self._build(tmp_path, "la")
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        with pytest.raises(SystemExit):
            run([
                "query", "--artifact", str(artifact), "--points", str(points),
                "--manifest", str(tmp_path / "deployments.json"),
            ])

    def test_query_unknown_deployment_fails_cleanly(self, capsys, tmp_path):
        artifact = self._build(tmp_path, "la")
        manifest = tmp_path / "deployments.json"
        run(["deploy", "--artifact", str(artifact), "--name", "la",
             "--manifest", str(manifest)])
        capsys.readouterr()
        points = tmp_path / "points.csv"
        write_points_csv(points, np.array([0.5]), np.array([0.5]))
        code = run([
            "query", "--name", "nyc", "--manifest", str(manifest),
            "--points", str(points),
        ])
        assert code == 1
        assert "unknown deployment" in capsys.readouterr().err

    def test_deployments_missing_manifest_fails_cleanly(self, capsys, tmp_path):
        code = run(["deployments", "--manifest", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_deployments_lists_broken_bundle_as_error_row(self, capsys, tmp_path):
        import shutil

        good = self._build(tmp_path, "good")
        doomed = self._build(tmp_path, "doomed", height="4")
        manifest = tmp_path / "deployments.json"
        run(["deploy", "--artifact", str(good), "--name", "good",
             "--manifest", str(manifest)])
        run(["deploy", "--artifact", str(doomed), "--name", "doomed",
             "--manifest", str(manifest)])
        shutil.rmtree(doomed)
        capsys.readouterr()
        assert run(["deployments", "--manifest", str(manifest)]) == 0
        output = capsys.readouterr().out
        assert "ok" in output and "error:" in output

    def test_compare_command(self, capsys, tmp_path):
        target = tmp_path / "compare.csv"
        code = run([
            "compare", "--cities", "los_angeles", "--heights", "4",
            "--grid", "16", "--output", str(target),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Fairness report" in output
        assert "ENCE improvement" in output
        assert "fair_kdtree" in output
        # The ASCII map of the fair partition is included.
        assert "one letter per neighborhood" in output
        assert target.exists()
        assert "statistical_parity" in target.read_text().splitlines()[0]


class TestServeProcess:
    """``repro serve`` as a process, the way an operator stops it."""

    def test_sigterm_closes_the_service_like_ctrl_c(self, tmp_path):
        from repro.io.artifacts import save_partition_artifact
        from repro.serving import ServingEngine
        from repro.serving.workers import fork_available
        from repro.spatial.grid import Grid
        from repro.spatial.partition import uniform_partition

        if not fork_available():
            pytest.skip("worker pool needs the fork start method")
        bundle = save_partition_artifact(
            uniform_partition(Grid(8, 8), 2, 2), tmp_path / "v1", {"name": "v1"}
        )
        engine = ServingEngine()
        engine.deploy("la", bundle)
        manifest = tmp_path / "deployments.json"
        engine.save_manifest(manifest)
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--manifest", str(manifest),
             "--port", "0", "--workers", "2", "--wire-port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            # The wire line is the last one printed once the service is up.
            started = b""
            deadline = time.monotonic() + 60.0
            while b"binary wire protocol on" not in started:
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"service did not start: {started!r}"
                readable, _, _ = select.select([process.stdout], [], [], remaining)
                chunk = os.read(process.stdout.fileno(), 4096) if readable else b""
                assert chunk, f"service exited early: {started!r}"
                started += chunk
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        out = (started + out).decode()
        assert process.returncode == 0, (out, err.decode())
        assert "shutting down" in out
        assert b"leaked shared_memory" not in err, err.decode()
