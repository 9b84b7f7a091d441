"""Unit tests for CSV loading/saving of EdGap-style datasets."""

import numpy as np
import pytest

from repro.datasets.io import load_csv_dataset, save_csv_dataset
from repro.datasets.schema import EDGAP_SCHEMA
from repro.exceptions import DatasetError


def write_csv(path, rows, header=None):
    header = header or (list(EDGAP_SCHEMA.names) + ["longitude", "latitude"])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(value) for value in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sample_row(act=24.0, employment=15.0, lon=-118.3, lat=34.1):
    return [8.0, 55.0, 60.0, 75.0, 30.0, act, employment, lon, lat]


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write_csv(tmp_path / "schools.csv", [sample_row(), sample_row(lon=-118.1, lat=33.9)])
        dataset, report = load_csv_dataset(path, grid_rows=8, grid_cols=8)
        assert dataset.n_records == 2
        assert report.n_rows == 2
        assert report.skipped_rows == 0
        assert dataset.name == "schools"

    def test_empty_file_has_no_header_row(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="no header row"):
            load_csv_dataset(path)

    def test_coordinates_rescaled_to_unit_square(self, tmp_path):
        path = write_csv(
            tmp_path / "schools.csv",
            [sample_row(lon=-118.5, lat=33.7), sample_row(lon=-117.9, lat=34.3)],
        )
        dataset, _ = load_csv_dataset(path)
        assert dataset.xs.min() >= 0.0 and dataset.xs.max() <= 1.0
        assert dataset.ys.min() >= 0.0 and dataset.ys.max() <= 1.0

    def test_out_of_range_values_clipped_and_counted(self, tmp_path):
        bad = sample_row(act=99.0)  # ACT max is 36
        path = write_csv(tmp_path / "schools.csv", [bad, sample_row()])
        dataset, report = load_csv_dataset(path)
        assert report.n_clipped_values >= 1
        assert dataset.column("average_act").max() <= 36.0

    def test_non_numeric_rows_skipped(self, tmp_path):
        broken = sample_row()
        broken[0] = "not-a-number"
        path = write_csv(tmp_path / "schools.csv", [broken, sample_row()])
        dataset, report = load_csv_dataset(path)
        assert dataset.n_records == 1
        assert report.skipped_rows == 1

    def test_missing_column_raises(self, tmp_path):
        header = list(EDGAP_SCHEMA.names)[:-1] + ["longitude", "latitude"]
        path = write_csv(tmp_path / "schools.csv", [sample_row()[:-3] + [-118.0, 34.0]], header)
        with pytest.raises(DatasetError):
            load_csv_dataset(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv_dataset(tmp_path / "nope.csv")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(list(EDGAP_SCHEMA.names) + ["longitude", "latitude"]) + "\n")
        with pytest.raises(DatasetError):
            load_csv_dataset(path)

    def test_all_rows_invalid_raises(self, tmp_path):
        broken = sample_row()
        broken[0] = "x"
        path = write_csv(tmp_path / "schools.csv", [broken])
        with pytest.raises(DatasetError):
            load_csv_dataset(path)

    def test_loaded_dataset_runs_through_pipeline(self, tmp_path, fast_logistic_factory):
        rng = np.random.default_rng(0)
        rows = [
            sample_row(
                act=float(rng.uniform(15, 32)),
                employment=float(rng.uniform(5, 25)),
                lon=float(rng.uniform(-119, -117)),
                lat=float(rng.uniform(33, 35)),
            )
            for _ in range(80)
        ]
        path = write_csv(tmp_path / "schools.csv", rows)
        dataset, _ = load_csv_dataset(path, grid_rows=8, grid_cols=8)

        from repro.core.fair_kdtree import FairKDTreePartitioner
        from repro.core.pipeline import RedistrictingPipeline
        from repro.datasets.labels import act_task

        pipeline = RedistrictingPipeline(fast_logistic_factory, seed=1)
        result = pipeline.run(dataset, act_task(), FairKDTreePartitioner(height=3))
        assert 0.0 <= result.test_metrics.ence <= 1.0


class TestSaveCsv:
    def test_roundtrip(self, tmp_path, la_dataset):
        path = save_csv_dataset(la_dataset, tmp_path / "out" / "la.csv")
        restored, report = load_csv_dataset(path, grid_rows=16, grid_cols=16, name="la")
        assert restored.n_records == la_dataset.n_records
        assert report.skipped_rows == 0
        np.testing.assert_allclose(
            restored.column("median_income"), la_dataset.column("median_income"), atol=1e-4
        )
