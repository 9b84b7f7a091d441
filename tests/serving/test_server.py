"""Tests for the batched partition serving layer."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import DatasetConfig, GridConfig, ServingConfig
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.datasets.edgap import load_edgap_city
from repro.exceptions import GridError
from repro.io.artifacts import save_partition_artifact
from repro.serving import PartitionServer, RangeRequest, ShardedDeployment
from repro.serving.backends import pad_labels, padded_shape
from repro.serving.workers import WorkerState
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition, uniform_partition
from repro.spatial.queries import PartitionLocator, range_query
from repro.spatial.region import GridRegion


@pytest.fixture()
def grid() -> Grid:
    return Grid(16, 16, BoundingBox(-2.0, 1.0, 6.0, 5.0))


@pytest.fixture()
def partition(grid) -> Partition:
    return uniform_partition(grid, 4, 4)


@pytest.fixture()
def server(partition) -> PartitionServer:
    return PartitionServer(partition)


class TestLocatePoints:
    def test_matches_per_point_locator(self, partition, server):
        locator = PartitionLocator(partition)
        rng = np.random.default_rng(0)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x, bounds.max_x, 300)
        ys = rng.uniform(bounds.min_y, bounds.max_y, 300)
        batch = server.locate_points(xs, ys)
        for x, y, index in zip(xs, ys, batch):
            assert locator.locate_point(Point(x, y)) == int(index)

    def test_off_map_points_get_minus_one(self, server, grid):
        bounds = grid.bounds
        xs = np.array([bounds.min_x - 1.0, bounds.min_x + 0.1, bounds.max_x + 1.0])
        ys = np.array([bounds.min_y + 0.1, bounds.min_y + 0.1, bounds.max_y + 1.0])
        assert server.locate_points(xs, ys).tolist()[0] == -1
        assert server.locate_points(xs, ys)[1] >= 0
        assert server.locate_points(xs, ys)[2] == -1

    def test_strict_mode_raises_off_map(self, server, grid):
        xs = np.array([grid.bounds.max_x + 1.0])
        ys = np.array([grid.bounds.min_y])
        with pytest.raises(GridError):
            server.locate_points(xs, ys, strict=True)

    def test_strict_default_comes_from_config(self, partition, grid):
        strict_server = PartitionServer(partition, config=ServingConfig(strict=True))
        with pytest.raises(GridError):
            strict_server.locate_points(
                np.array([grid.bounds.max_x + 1.0]), np.array([grid.bounds.min_y])
            )

    def test_map_max_corner_served(self, server, grid):
        bounds = grid.bounds
        result = server.locate_points(
            np.array([bounds.max_x]), np.array([bounds.max_y])
        )
        assert int(result[0]) == server.n_regions - 1

    def test_all_off_map_batch(self, server, grid):
        xs = np.full(5, grid.bounds.max_x + 10.0)
        ys = np.full(5, grid.bounds.max_y + 10.0)
        assert server.locate_points(xs, ys).tolist() == [-1] * 5

    def test_shape_mismatch_raises(self, server):
        with pytest.raises(GridError):
            server.locate_points(np.zeros(2), np.zeros(3))

    def test_uncovered_cell_of_incomplete_partition(self, grid):
        partial = Partition(grid, [GridRegion(grid, 0, 8, 0, 16)], require_complete=False)
        server = PartitionServer(partial)
        bounds = grid.bounds
        low_y = bounds.min_y + 0.1   # covered half (rows start at min_y)
        high_y = bounds.max_y - 0.1  # uncovered half
        result = server.locate_points(
            np.array([0.0, 0.0]), np.array([low_y, high_y])
        )
        assert result.tolist() == [0, -1]


class TestLocateCells:
    def test_matches_partition_assign(self, partition, server):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 16, 100)
        cols = rng.integers(0, 16, 100)
        np.testing.assert_array_equal(
            server.locate_cells(rows, cols), partition.assign(rows, cols)
        )

    def test_out_of_grid_cells_nonstrict(self, server):
        assert server.locate_cells([-1, 0, 99], [0, 0, 0]).tolist()[0] == -1
        assert server.locate_cells([-1, 0, 99], [0, 0, 0]).tolist()[2] == -1


class TestRangeQuery:
    def test_matches_reference_on_random_boxes(self, partition, server):
        rng = np.random.default_rng(4)
        bounds = partition.grid.bounds
        for _ in range(200):
            x0, x1 = sorted(rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 2))
            y0, y1 = sorted(rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 2))
            query = BoundingBox(x0, y0, x1, y1)
            assert server.range_query(query) == range_query(partition, query)

    def test_edge_touching_box(self, partition, server, grid):
        # Zero-width box exactly on an internal region boundary.
        split_x = grid.bounds.min_x + grid.bounds.width / 4.0
        query = BoundingBox(split_x, grid.bounds.min_y, split_x, grid.bounds.max_y)
        assert server.range_query(query) == range_query(partition, query)

    def test_disjoint_box_is_empty(self, server, grid):
        query = BoundingBox(grid.bounds.max_x + 1.0, 0.0, grid.bounds.max_x + 2.0, 1.0)
        assert server.range_query(query) == []

    def test_full_map_returns_all_regions(self, server, grid):
        assert server.range_query(grid.bounds) == list(range(server.n_regions))


def _fair_kdtree_partition() -> Partition:
    """A height-6 Fair KD-tree over a small seeded Los Angeles sample:
    uneven region sizes, edges at non-uniform cell offsets."""
    dataset = load_edgap_city(
        DatasetConfig(city="los_angeles", n_records=1153, grid=GridConfig(32, 32), seed=7)
    )
    rng = np.random.default_rng(dataset.n_records)
    residuals = rng.normal(scale=0.35, size=dataset.n_records)
    partition = FairKDTreePartitioner(6).build_from_residuals(dataset, residuals)
    shapes = {(r.row_stop - r.row_start, r.col_stop - r.col_start) for r in partition.regions}
    assert len(shapes) > 1, "the fixture must not degenerate into a uniform grid"
    return partition


class _SharedWorker:
    """A :class:`WorkerState` over a real shared-memory label segment."""

    def __init__(self, partition: Partition) -> None:
        grid = partition.grid
        shape = padded_shape(grid.rows, grid.cols)
        self.segment = shared_memory.SharedMemory(create=True, size=shape[0] * shape[1] * 8)
        view = np.ndarray(shape, dtype=np.int64, buffer=self.segment.buf)
        pad_labels(partition.label_grid, out=view)
        del view
        bounds = grid.bounds
        self.state = WorkerState()
        self.state.apply_exports([{
            "name": "k",
            "version": 1,
            "segment": self.segment.name,
            "rows": grid.rows,
            "cols": grid.cols,
            "bounds": [bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y],
            "extents": np.array(
                [(r.row_start, r.row_stop, r.col_start, r.col_stop)
                 for r in partition.regions],
                dtype=np.int64,
            ),
        }])

    def range_query(self, query: BoundingBox):
        request = RangeRequest("k", query.min_x, query.min_y, query.max_x, query.max_y)
        return list(self.state.range_query(request).regions)

    def close(self) -> None:
        self.state.apply_exports([], removed=["k"])
        self.segment.close()
        self.segment.unlink()


def _edge_touching_boxes(partition: Partition):
    """Boxes that meet region and map edges exactly: every region's own
    extent, zero-width and zero-height lines on its four edges, a point
    box on each corner, and boxes touching the map from outside."""
    boxes = []
    for region in partition.regions:
        b = region.bounds
        boxes += [
            b,
            BoundingBox(b.min_x, b.min_y, b.min_x, b.max_y),
            BoundingBox(b.max_x, b.min_y, b.max_x, b.max_y),
            BoundingBox(b.min_x, b.min_y, b.max_x, b.min_y),
            BoundingBox(b.min_x, b.max_y, b.max_x, b.max_y),
        ]
        boxes += [BoundingBox(x, y, x, y) for x in (b.min_x, b.max_x) for y in (b.min_y, b.max_y)]
    m = partition.grid.bounds
    boxes += [
        BoundingBox(m.min_x - 1.0, m.min_y, m.min_x, m.max_y),
        BoundingBox(m.max_x, m.min_y, m.max_x + 1.0, m.max_y),
        BoundingBox(m.min_x, m.min_y - 1.0, m.max_x, m.min_y),
        BoundingBox(m.min_x, m.max_y, m.max_x, m.max_y + 1.0),
        BoundingBox(m.max_x, m.max_y, m.max_x + 1.0, m.max_y + 1.0),
        m,
    ]
    return boxes


def _random_boxes(partition: Partition, count: int = 200):
    rng = np.random.default_rng(4)
    bounds = partition.grid.bounds
    boxes = []
    for _ in range(count):
        x0, x1 = sorted(rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 2))
        y0, y1 = sorted(rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 2))
        boxes.append(BoundingBox(x0, y0, x1, y1))
    return boxes


@pytest.fixture(scope="module", params=["uniform", "fair_kdtree"])
def range_readers(request):
    """Every range reader over one partition: server, shards, worker."""
    if request.param == "uniform":
        partition = uniform_partition(Grid(16, 16, BoundingBox(-2.0, 1.0, 6.0, 5.0)), 4, 4)
    else:
        partition = _fair_kdtree_partition()
    worker = _SharedWorker(partition)
    yield partition, {
        "server": PartitionServer(partition).range_query,
        "sharded_2x2": ShardedDeployment(partition, 2, 2).range_query,
        "worker": worker.range_query,
    }
    worker.close()


class TestRangeParity:
    """Every range reader answers as the region scan of ``range_query``."""

    @pytest.mark.parametrize("boxes", [_random_boxes, _edge_touching_boxes])
    def test_every_reader_matches_the_region_scan(self, range_readers, boxes):
        partition, readers = range_readers
        queries = boxes(partition)
        for query in queries:
            expected = range_query(partition, query)
            for name, reader in readers.items():
                assert reader(query) == expected, (name, query)
        # The box sets reach the interesting cases: empty, partial and full.
        sizes = {len(range_query(partition, query)) for query in queries}
        assert 0 in sizes or boxes is _edge_touching_boxes
        assert len(partition) in sizes and len(sizes) > 2


class TestFromArtifact:
    def test_served_assignments_match_in_memory(self, partition, server, tmp_path):
        path = save_partition_artifact(
            partition, tmp_path / "bundle", {"method": "uniform"}
        )
        restored = PartitionServer.from_artifact(path)
        assert restored.provenance == {"method": "uniform"}
        rng = np.random.default_rng(6)
        bounds = partition.grid.bounds
        xs = rng.uniform(bounds.min_x - 0.5, bounds.max_x + 0.5, 400)
        ys = rng.uniform(bounds.min_y - 0.5, bounds.max_y + 0.5, 400)
        np.testing.assert_array_equal(
            restored.locate_points(xs, ys), server.locate_points(xs, ys)
        )

    def test_describe_reports_geometry(self, server, grid):
        info = server.describe()
        assert info["n_regions"] == 16
        assert info["grid_rows"] == grid.rows
        assert info["bounds"][0] == grid.bounds.min_x


class TestRegionCounts:
    def test_counts_sum_to_on_map_points(self, server, grid):
        rng = np.random.default_rng(8)
        bounds = grid.bounds
        xs = rng.uniform(bounds.min_x - 1.0, bounds.max_x + 1.0, 1000)
        ys = rng.uniform(bounds.min_y - 1.0, bounds.max_y + 1.0, 1000)
        counts = server.region_counts(xs, ys)
        located = int(np.count_nonzero(server.locate_points(xs, ys) >= 0))
        assert counts.shape == (server.n_regions,)
        assert int(counts.sum()) == located
