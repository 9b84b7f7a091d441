"""Unit tests for the SpatialDataset container."""

import numpy as np
import pytest

from repro.datasets.dataset import SpatialDataset
from repro.datasets.schema import DatasetSchema, FeatureSpec
from repro.exceptions import DatasetError
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition, uniform_partition
from repro.spatial.region import GridRegion


@pytest.fixture()
def tiny_schema():
    return DatasetSchema(
        [
            FeatureSpec("f1", "", -10, 10),
            FeatureSpec("f2", "", -10, 10),
            FeatureSpec("outcome", "", -10, 10, is_outcome=True),
        ]
    )


@pytest.fixture()
def tiny_dataset(tiny_schema):
    grid = Grid(4, 4)
    rng = np.random.default_rng(0)
    n = 40
    features = rng.normal(0, 1, size=(n, 3))
    xs = rng.uniform(0, 1, n)
    ys = rng.uniform(0, 1, n)
    return SpatialDataset(tiny_schema, features, xs, ys, grid, name="tiny")


class TestConstruction:
    def test_basic_properties(self, tiny_dataset):
        assert tiny_dataset.n_records == 40
        assert len(tiny_dataset) == 40
        assert tiny_dataset.name == "tiny"
        assert tiny_dataset.n_neighborhoods == 1

    def test_cells_derived_from_coordinates(self, tiny_dataset):
        from repro.spatial.geometry import Point

        grid = tiny_dataset.grid
        for x, y, row, col in zip(
            tiny_dataset.xs, tiny_dataset.ys, tiny_dataset.cell_rows, tiny_dataset.cell_cols
        ):
            cell = grid.locate(Point(x, y))
            assert (cell.row, cell.col) == (row, col)

    def test_features_readonly(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.features[0, 0] = 99.0

    def test_wrong_feature_width_raises(self, tiny_schema):
        grid = Grid(4, 4)
        with pytest.raises(DatasetError):
            SpatialDataset(tiny_schema, np.zeros((5, 2)), np.zeros(5), np.zeros(5), grid)

    def test_one_dimensional_features_raise(self, tiny_schema):
        with pytest.raises(DatasetError, match="2-D"):
            SpatialDataset(tiny_schema, np.zeros(5), np.zeros(5), np.zeros(5), Grid(4, 4))

    def test_wrong_coordinate_length_raises(self, tiny_schema):
        grid = Grid(4, 4)
        with pytest.raises(DatasetError):
            SpatialDataset(tiny_schema, np.zeros((5, 3)), np.zeros(4), np.zeros(5), grid)

    def test_wrong_neighborhood_length_raises(self, tiny_schema):
        grid = Grid(4, 4)
        with pytest.raises(DatasetError):
            SpatialDataset(
                tiny_schema,
                np.zeros((5, 3)),
                np.zeros(5),
                np.zeros(5),
                grid,
                neighborhoods=np.zeros(3, dtype=int),
            )


class TestColumnsAndMatrices:
    def test_column_returns_copy(self, tiny_dataset):
        column = tiny_dataset.column("f1")
        column[:] = 0.0
        assert not np.allclose(tiny_dataset.column("f1"), 0.0)

    def test_training_matrix_excludes_outcomes(self, tiny_dataset):
        matrix, names = tiny_dataset.training_matrix(include_neighborhood=False)
        assert matrix.shape == (40, 2)
        assert "outcome" not in names

    def test_training_matrix_appends_neighborhood(self, tiny_dataset):
        matrix, names = tiny_dataset.training_matrix(include_neighborhood=True)
        assert matrix.shape == (40, 3)
        assert names[-1] == "neighborhood"
        assert np.all(matrix[:, -1] == 0.0)

    def test_describe_contains_all_columns(self, tiny_dataset):
        description = tiny_dataset.describe()
        assert set(description) == {"f1", "f2", "outcome"}
        assert all("mean" in stats for stats in description.values())


class TestNeighborhoodRewriting:
    def test_with_partition_assigns_every_record(self, tiny_dataset):
        partition = uniform_partition(tiny_dataset.grid, 2, 2)
        updated = tiny_dataset.with_partition(partition)
        assert updated.n_neighborhoods <= 4
        assert updated.n_records == tiny_dataset.n_records
        # Original dataset untouched.
        assert tiny_dataset.n_neighborhoods == 1

    def test_with_partition_leaving_records_uncovered_raises(self, tiny_dataset):
        grid = tiny_dataset.grid
        top_half = Partition(grid, [GridRegion(grid, 0, 2, 0, 4)], require_complete=False)
        assert np.any(tiny_dataset.cell_rows >= 2)
        with pytest.raises(DatasetError, match="does not cover"):
            tiny_dataset.with_partition(top_half)

    def test_with_partition_wrong_grid_raises(self, tiny_dataset):
        foreign = uniform_partition(Grid(8, 8), 2, 2)
        # A same-bounds grid of different resolution must be rejected.
        with pytest.raises(DatasetError):
            tiny_dataset.with_partition(foreign)

    def test_with_neighborhoods_replaces_assignment(self, tiny_dataset):
        new_ids = np.arange(tiny_dataset.n_records) % 5
        updated = tiny_dataset.with_neighborhoods(new_ids)
        assert updated.n_neighborhoods == 5
        np.testing.assert_array_equal(updated.neighborhoods, new_ids)

    def test_neighborhood_sizes(self, tiny_dataset):
        new_ids = np.arange(tiny_dataset.n_records) % 4
        updated = tiny_dataset.with_neighborhoods(new_ids)
        assert updated.neighborhood_sizes().sum() == tiny_dataset.n_records


class TestSubset:
    def test_subset_preserves_alignment(self, tiny_dataset):
        indices = np.array([0, 5, 10, 15])
        subset = tiny_dataset.subset(indices)
        assert subset.n_records == 4
        np.testing.assert_allclose(subset.xs, tiny_dataset.xs[indices])
        np.testing.assert_allclose(
            subset.features[:, 0], tiny_dataset.features[indices, 0]
        )

    def test_subset_keeps_neighborhoods(self, tiny_dataset):
        labelled = tiny_dataset.with_neighborhoods(np.arange(40) % 3)
        subset = labelled.subset([0, 1, 2])
        np.testing.assert_array_equal(subset.neighborhoods, [0, 1, 2])
