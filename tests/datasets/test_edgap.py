"""Unit tests for the synthetic EdGap-like dataset generator."""

import numpy as np
import pytest

from repro.config import DatasetConfig, GridConfig
from repro.datasets.edgap import (
    CityModel,
    PopulationCluster,
    city_model,
    generate_city,
    list_cities,
    load_edgap_city,
)
from repro.datasets.schema import EDGAP_SCHEMA
from repro.exceptions import DatasetError
from repro.spatial.grid import Grid


class TestCityRegistry:
    def test_both_paper_cities_available(self):
        assert set(list_cities()) == {"houston", "los_angeles"}

    def test_paper_record_counts(self):
        assert city_model("los_angeles").n_records == 1153
        assert city_model("houston").n_records == 966

    def test_unknown_city_raises(self):
        with pytest.raises(DatasetError):
            city_model("gotham")

    def test_lookup_case_insensitive(self):
        assert city_model("Los_Angeles").name == "los_angeles"


class TestCityModelValidation:
    CLUSTER = PopulationCluster(0.5, 0.5, 0.1, 1.0, affluence=0.0)

    def test_city_without_records_raises(self):
        with pytest.raises(DatasetError, match="at least one record"):
            CityModel(name="empty", n_records=0, clusters=(self.CLUSTER,), base_seed=1)

    def test_city_without_clusters_raises(self):
        with pytest.raises(DatasetError, match="population cluster"):
            CityModel(name="barren", n_records=10, clusters=(), base_seed=1)


class TestGeneration:
    def test_generated_shape_and_schema(self, la_dataset):
        assert la_dataset.n_records == 300
        assert la_dataset.schema is EDGAP_SCHEMA
        assert la_dataset.features.shape == (300, len(EDGAP_SCHEMA))

    def test_deterministic_for_same_config(self):
        config = DatasetConfig(city="houston", n_records=100, grid=GridConfig(8, 8), seed=3)
        a = load_edgap_city(config)
        b = load_edgap_city(config)
        np.testing.assert_allclose(a.features, b.features)
        np.testing.assert_allclose(a.xs, b.xs)

    def test_different_seed_changes_data(self):
        base = DatasetConfig(city="houston", n_records=100, grid=GridConfig(8, 8), seed=3)
        other = DatasetConfig(city="houston", n_records=100, grid=GridConfig(8, 8), seed=4)
        a = load_edgap_city(base)
        b = load_edgap_city(other)
        assert not np.allclose(a.features, b.features)

    def test_coordinates_inside_unit_square(self, la_dataset):
        assert la_dataset.xs.min() >= 0.0 and la_dataset.xs.max() <= 1.0
        assert la_dataset.ys.min() >= 0.0 and la_dataset.ys.max() <= 1.0

    def test_features_respect_schema_ranges(self, la_dataset):
        for name in EDGAP_SCHEMA.names:
            spec = EDGAP_SCHEMA.spec(name)
            values = la_dataset.column(name)
            assert values.min() >= spec.minimum - 1e-9
            assert values.max() <= spec.maximum + 1e-9

    def test_record_count_override(self):
        grid = Grid(8, 8)
        dataset = generate_city(city_model("los_angeles"), grid, n_records=50)
        assert dataset.n_records == 50


class TestStatisticalStructure:
    def test_income_correlates_with_college_rate(self, la_dataset):
        income = la_dataset.column("median_income")
        college = la_dataset.column("college_degree_rate")
        correlation = np.corrcoef(income, college)[0, 1]
        assert correlation > 0.3

    def test_act_correlates_with_income(self, la_dataset):
        act = la_dataset.column("average_act")
        income = la_dataset.column("median_income")
        assert np.corrcoef(act, income)[0, 1] > 0.2

    def test_reduced_lunch_anticorrelates_with_income(self, la_dataset):
        lunch = la_dataset.column("reduced_lunch_rate")
        income = la_dataset.column("median_income")
        assert np.corrcoef(lunch, income)[0, 1] < -0.2

    def test_location_predicts_outcome(self, la_dataset):
        """Spatial structure: ACT varies across the map (east vs west halves)."""
        act = la_dataset.column("average_act")
        west = act[la_dataset.xs < 0.5]
        east = act[la_dataset.xs >= 0.5]
        assert abs(west.mean() - east.mean()) > 0.2

    def test_population_is_spatially_clustered(self, la_dataset):
        """Cell occupancy should be far from uniform (clusters exist).

        Under a uniform placement of 300 records over 256 cells roughly 31 %
        of cells would be empty (Poisson with mean ~1.2); the clustered
        generator leaves most of the map empty.
        """
        from repro.spatial.grid import counts_per_cell

        counts = counts_per_cell(la_dataset.grid, la_dataset.cell_rows, la_dataset.cell_cols)
        empty_fraction = float(np.mean(counts == 0))
        assert empty_fraction > 0.45
        assert counts.max() >= 4
