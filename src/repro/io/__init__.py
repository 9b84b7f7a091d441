"""Serialisation helpers: export partitions and experiment results.

A re-districted map is only useful if it can leave the process: this package
exports partitions as GeoJSON-like feature collections (so they can be drawn
on any map front-end), round-trips partitions through plain JSON, writes
experiment rows as CSV/JSON for downstream analysis, and persists built
partitions as versioned artifact bundles (``.npz`` + JSON manifest) that the
serving layer loads back without retraining.
"""

from .artifacts import (
    FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    PartitionArtifact,
    load_partition_artifact,
    save_partition_artifact,
)
from .export import (
    partition_from_dict,
    partition_to_dict,
    partition_to_geojson,
    rows_to_csv,
    save_json,
    save_rows_csv,
)
from .points import read_points_csv, write_points_csv

__all__ = [
    "partition_to_dict",
    "partition_from_dict",
    "partition_to_geojson",
    "rows_to_csv",
    "save_rows_csv",
    "save_json",
    "FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "PartitionArtifact",
    "save_partition_artifact",
    "load_partition_artifact",
    "read_points_csv",
    "write_points_csv",
]
