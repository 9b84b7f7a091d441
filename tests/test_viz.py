"""Unit tests for the terminal visualisation helpers."""

import numpy as np
import pytest

from repro.exceptions import EvaluationError
from repro.spatial.grid import Grid
from repro.spatial.partition import uniform_partition
from repro.viz import (
    render_heatmap_ascii,
    render_partition_ascii,
)


@pytest.fixture()
def quarters():
    return uniform_partition(Grid(8, 8), 2, 2)


class TestPartitionAscii:
    def test_dimensions(self, quarters):
        text = render_partition_ascii(quarters)
        lines = text.splitlines()
        assert len(lines) == 8
        assert all(len(line) == 8 for line in lines)

    def test_four_distinct_labels(self, quarters):
        text = render_partition_ascii(quarters)
        symbols = set(text.replace("\n", ""))
        assert len(symbols) == 4

    def test_downsampling_respects_limits(self):
        partition = uniform_partition(Grid(64, 64), 4, 4)
        text = render_partition_ascii(partition, max_rows=16, max_cols=16)
        lines = text.splitlines()
        assert len(lines) <= 33  # downsampled rows
        assert max(len(line) for line in lines) <= 33

    def test_row_zero_rendered_last(self, quarters):
        """Row 0 of the grid (south edge) should be the bottom line of the map."""
        text = render_partition_ascii(quarters)
        bottom = text.splitlines()[-1]
        south_west_label = bottom[0]
        index = int(quarters.assign([0], [0])[0])
        from repro.viz import _LABEL_ALPHABET

        assert south_west_label == _LABEL_ALPHABET[index]


class TestHeatmapAscii:
    def test_extremes_use_light_and_dark_shades(self):
        values = np.array([[0.0, 1.0], [0.5, 0.25]])
        text = render_heatmap_ascii(values, legend=False)
        assert "@" in text  # darkest shade for the max
        assert " " in text or "." in text  # light shade for the min

    def test_legend_reports_range(self):
        values = np.array([[1.0, 3.0]])
        text = render_heatmap_ascii(values)
        assert "min=1" in text and "max=3" in text

    def test_constant_matrix_renders(self):
        text = render_heatmap_ascii(np.full((3, 3), 2.0), legend=False)
        assert len(text.splitlines()) == 3

    def test_nan_rendered_as_question_mark(self):
        values = np.array([[np.nan, 1.0]])
        assert "?" in render_heatmap_ascii(values, legend=False)

    def test_non_2d_raises(self):
        with pytest.raises(EvaluationError):
            render_heatmap_ascii(np.zeros(5))
