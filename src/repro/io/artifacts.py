"""Persistent partition artifacts: save a built partition, serve it later.

A partition is expensive to build (model training + tree construction) and
cheap to serve (a dense label grid plus region extents), so the two halves
should not share a process lifetime.  This module turns a built
:class:`~repro.spatial.partition.Partition` into an on-disk **artifact
bundle** — a directory with

* ``manifest.json`` — format version, grid geometry, region count, and
  free-form provenance (builder configuration, engine, dataset identity);
* ``arrays.npz`` — the dense cell->region ``label_grid`` and the
  ``n_regions x 4`` region-extent table.

and loads it back without retraining.  Loading re-derives the label grid
from the region extents and compares it against the stored one, so a
corrupted or hand-edited bundle fails loudly instead of serving wrong
neighborhoods.

Format version policy
---------------------
``FORMAT_VERSION`` is a single integer, bumped on any change a previous
reader could misinterpret (new required key, changed array layout).  A
reader accepts exactly the versions in ``SUPPORTED_FORMAT_VERSIONS`` and
raises :class:`~repro.exceptions.PartitionError` for anything else —
artifacts are small and rebuilding them is cheap, so there is no silent
best-effort migration path.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..exceptions import PartitionError
from ..spatial.geometry import BoundingBox
from ..spatial.grid import Grid
from ..spatial.partition import Partition
from ..spatial.region import GridRegion

#: Current artifact format version (see the module docstring for the policy).
FORMAT_VERSION = 1

#: Format versions this reader understands.
SUPPORTED_FORMAT_VERSIONS: Tuple[int, ...] = (1,)

#: File names inside an artifact bundle directory.
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"


@dataclass(frozen=True)
class PartitionArtifact:
    """A partition loaded from (or about to be written to) a bundle.

    Attributes
    ----------
    partition:
        The reconstructed partition, identical to the one that was saved.
    provenance:
        Free-form metadata recorded at save time (builder method, height,
        dataset identity, ...).  Never interpreted by the
        loader; surfaced so serving layers can report what they serve.
    format_version:
        The bundle's on-disk format version.
    """

    partition: Partition
    provenance: Dict[str, Any] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    @property
    def n_regions(self) -> int:
        return len(self.partition)

    @property
    def spec_dict(self) -> Dict[str, Any] | None:
        """The embedded run spec as a plain dict, if the bundle has one.

        Bundles written through :func:`repro.api.build_partition` carry the
        originating :class:`~repro.api.specs.RunSpec` under the ``"spec"``
        provenance key; older bundles return ``None``.  The artifact layer
        never interprets it — validation belongs to ``repro.api``.
        """
        spec = self.provenance.get("spec")
        return dict(spec) if isinstance(spec, dict) else None


def save_partition_artifact(
    partition: Partition,
    path: str | Path,
    provenance: Mapping[str, Any] | None = None,
    spec: Any = None,
) -> Path:
    """Write ``partition`` as an artifact bundle at directory ``path``.

    The directory is created (parents included) and its ``manifest.json``
    and ``arrays.npz`` members are overwritten if present.  Returns the
    bundle directory path.

    ``spec`` optionally embeds the originating run description under the
    ``"spec"`` provenance key: anything with a ``to_dict()`` method (a
    :class:`~repro.api.specs.RunSpec`) or a plain mapping.  Serving layers
    re-validate it on load; this module stays agnostic of its schema.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    provenance = dict(provenance or {})
    if spec is not None:
        provenance.setdefault(
            "spec", spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        )
    grid = partition.grid
    bounds = grid.bounds
    manifest = {
        "format_version": FORMAT_VERSION,
        "grid": {
            "rows": grid.rows,
            "cols": grid.cols,
            "bounds": [bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y],
        },
        "n_regions": len(partition),
        "is_complete": partition.is_complete,
        "provenance": provenance,
    }
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    with open(path / ARRAYS_NAME, "wb") as handle:
        np.savez_compressed(
            handle,
            label_grid=np.asarray(partition.label_grid, dtype=np.int64),
            region_extents=partition.extents,
        )
    return path


def bundle_fingerprint(path: str | Path) -> Tuple[int, int, int, int]:
    """Cheap change-detection stamp of a bundle's two member files.

    Returns ``(manifest mtime_ns, manifest size, arrays mtime_ns, arrays
    size)`` — enough to notice a rebuilt artifact at the same path without
    re-reading either file.  The serving cache compares this stamp on every
    hit so a stale in-memory server is reloaded instead of silently served.
    Raises :class:`~repro.exceptions.PartitionError` when the bundle's
    members are missing (the same condition :func:`load_partition_artifact`
    reports).
    """
    path = Path(path)
    try:
        manifest = (path / MANIFEST_NAME).stat()
        arrays = (path / ARRAYS_NAME).stat()
    except OSError as exc:
        raise PartitionError(
            f"{path} is not a partition artifact bundle "
            f"(expected {MANIFEST_NAME} and {ARRAYS_NAME})"
        ) from exc
    return (manifest.st_mtime_ns, manifest.st_size, arrays.st_mtime_ns, arrays.st_size)


def load_partition_artifact(path: str | Path) -> PartitionArtifact:
    """Load the artifact bundle at ``path`` back into a :class:`PartitionArtifact`.

    Raises :class:`~repro.exceptions.PartitionError` when the bundle is
    missing members, declares an unsupported format version, or its stored
    label grid disagrees with the grid re-derived from the region extents
    (a corruption check — the two encode the same partition redundantly).
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    arrays_path = path / ARRAYS_NAME
    if not manifest_path.is_file() or not arrays_path.is_file():
        raise PartitionError(
            f"{path} is not a partition artifact bundle "
            f"(expected {MANIFEST_NAME} and {ARRAYS_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PartitionError(f"malformed artifact manifest {manifest_path}: {exc}") from exc

    version = manifest.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise PartitionError(
            f"artifact {path} has format version {version!r}; "
            f"this reader supports {SUPPORTED_FORMAT_VERSIONS}"
        )
    try:
        grid_info = manifest["grid"]
        box = grid_info["bounds"]
        grid = Grid(
            int(grid_info["rows"]),
            int(grid_info["cols"]),
            BoundingBox(float(box[0]), float(box[1]), float(box[2]), float(box[3])),
        )
        n_regions = int(manifest["n_regions"])
        is_complete = bool(manifest.get("is_complete", True))
        provenance = dict(manifest.get("provenance", {}))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise PartitionError(f"malformed artifact manifest {manifest_path}: {exc}") from exc

    try:
        with np.load(arrays_path) as arrays:
            try:
                label_grid = arrays["label_grid"]
                extents = arrays["region_extents"]
            except KeyError as exc:
                raise PartitionError(f"artifact arrays {arrays_path} missing {exc}") from exc
    except PartitionError:
        raise
    except (ValueError, zipfile.BadZipFile, OSError) as exc:
        # Truncated or mid-overwrite npz: np.load raises ValueError or
        # BadZipFile on corrupt payloads, OSError on unreadable files.
        raise PartitionError(f"artifact arrays {arrays_path} are unreadable: {exc}") from exc

    if extents.shape != (n_regions, 4):
        raise PartitionError(
            f"artifact {path}: region extents of shape {extents.shape} do not match "
            f"the manifest's {n_regions} regions"
        )
    regions = [
        GridRegion(grid, int(r0), int(r1), int(c0), int(c1)) for r0, r1, c0, c1 in extents
    ]
    partition = Partition(grid, regions, require_complete=is_complete)
    if label_grid.shape != grid.shape or not np.array_equal(
        np.asarray(partition.label_grid), np.asarray(label_grid, dtype=np.int64)
    ):
        raise PartitionError(
            f"artifact {path} is corrupt: stored label grid disagrees with the "
            "grid derived from its region extents"
        )
    return PartitionArtifact(partition, provenance=provenance, format_version=int(version))
