"""The partition's region-bounds table and the range query that reads it.

``Partition.region_bounds`` is built once by ``Grid.block_bounds``; it must
be bit-equal to every ``GridRegion.bounds``, and ``range_query`` over it
must answer exactly like a per-region ``intersects`` scan — the reference
below, which lives only here.  The grid is offset and non-dyadic, so cell
edges carry rounding that a sloppy table would not reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GeometryError
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition, uniform_partition
from repro.spatial.queries import range_query, regions_intersecting
from repro.spatial.region import GridRegion

#: An offset, non-dyadic map: neither the origin nor the cell sizes are
#: exact binary fractions.
GRID = Grid(37, 53, BoundingBox(-118.7, 33.6, -117.6, 34.4))

INF = math.inf


def scan_reference(partition, query):
    """The per-region closed-box scan ``range_query`` must reproduce."""
    return [
        index for index, region in enumerate(partition.regions)
        if region.bounds.intersects(query)
    ]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def partitions(draw, grid=GRID, complete=None):
    """A KD-tree-shaped partition of ``grid``, optionally with regions dropped."""
    regions = [(0, grid.rows, 0, grid.cols)]
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        index = draw(st.integers(min_value=0, max_value=len(regions) - 1))
        r0, r1, c0, c1 = regions[index]
        if draw(st.booleans()) and r1 - r0 > 1:
            cut = draw(st.integers(min_value=r0 + 1, max_value=r1 - 1))
            regions[index:index + 1] = [(r0, cut, c0, c1), (cut, r1, c0, c1)]
        elif c1 - c0 > 1:
            cut = draw(st.integers(min_value=c0 + 1, max_value=c1 - 1))
            regions[index:index + 1] = [(r0, r1, c0, cut), (r0, r1, cut, c1)]
    if complete is None:
        complete = draw(st.booleans())
    if not complete and len(regions) > 1:
        keep = draw(st.lists(st.booleans(), min_size=len(regions), max_size=len(regions)))
        kept = [extent for extent, flag in zip(regions, keep) if flag]
        regions = kept or regions[:1]
    return Partition(
        grid, [GridRegion(grid, *extent) for extent in regions], require_complete=False
    )


def _edges(low, size, count, high):
    """Every cell edge of one axis, as the scalar ``cell_bounds`` computes them."""
    starts = [low + index * size for index in range(count)]
    return starts + [(low + (count - 1) * size) + size, high]


X_EDGES = _edges(GRID.bounds.min_x, GRID.cell_width, GRID.cols, GRID.bounds.max_x)
Y_EDGES = _edges(GRID.bounds.min_y, GRID.cell_height, GRID.rows, GRID.bounds.max_y)


def _axis_values(edges, low, high):
    """Edge-exact, in-between, off-map and infinite coordinates of one axis."""
    return st.one_of(
        st.sampled_from(edges),
        st.floats(min_value=low - 1.0, max_value=high + 1.0),
        st.sampled_from([low - 1.0, high + 1.0, -INF, INF]),
    )


@st.composite
def queries(draw, grid=GRID):
    """Closed query boxes: edge-touching, zero-area, off-map and infinite ones."""
    b = grid.bounds
    xs = sorted(draw(_axis_values(X_EDGES, b.min_x, b.max_x)) for _ in range(2))
    ys = sorted(draw(_axis_values(Y_EDGES, b.min_y, b.max_y)) for _ in range(2))
    if draw(st.booleans()):
        xs[1] = xs[0]  # zero width
    if draw(st.booleans()):
        ys[1] = ys[0]  # zero height
    return BoundingBox(xs[0], ys[0], xs[1], ys[1])


class TestBoundsTable:
    @settings(max_examples=60, deadline=None)
    @given(partitions())
    def test_table_is_bit_equal_to_every_region_bounds(self, partition):
        table = partition.region_bounds
        assert table.dtype == np.float64
        assert table.shape == (4, len(partition))
        assert table.flags.c_contiguous
        expected = [
            (b.min_x, b.min_y, b.max_x, b.max_y)
            for b in (region.bounds for region in partition.regions)
        ]
        np.testing.assert_array_equal(_bits(table.T), _bits(expected))

    def test_every_single_cell_region_is_bit_equal(self):
        cells = uniform_partition(GRID, GRID.rows, GRID.cols)
        expected = [
            (b.min_x, b.min_y, b.max_x, b.max_y)
            for b in (GRID.cell_bounds(r.row_start, r.col_start) for r in cells.regions)
        ]
        np.testing.assert_array_equal(_bits(cells.region_bounds.T), _bits(expected))

    def test_extents_and_table_are_read_only(self):
        partition = uniform_partition(GRID, 3, 4)
        np.testing.assert_array_equal(
            partition.extents,
            [(r.row_start, r.row_stop, r.col_start, r.col_stop) for r in partition.regions],
        )
        for table in (partition.extents, partition.region_bounds):
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_block_bounds_takes_exported_extents(self):
        partition = uniform_partition(GRID, 5, 7)
        rebuilt = GRID.block_bounds(partition.extents.tolist())
        np.testing.assert_array_equal(_bits(rebuilt), _bits(partition.region_bounds))


class TestRangeQueryMatchesTheScan:
    @settings(max_examples=150, deadline=None)
    @given(partitions(), st.lists(queries(), min_size=1, max_size=8))
    def test_random_partitions_and_boxes(self, partition, boxes):
        for query in boxes:
            assert range_query(partition, query) == scan_reference(partition, query)

    def test_every_region_edge_and_corner(self):
        partition = uniform_partition(GRID, 5, 7)
        for region in partition.regions:
            b = region.bounds
            for query in (
                b,
                BoundingBox(b.min_x, b.min_y, b.min_x, b.max_y),
                BoundingBox(b.max_x, b.min_y, b.max_x, b.max_y),
                BoundingBox(b.min_x, b.min_y, b.max_x, b.min_y),
                BoundingBox(b.min_x, b.max_y, b.max_x, b.max_y),
                BoundingBox(b.max_x, b.max_y, b.max_x, b.max_y),
            ):
                assert range_query(partition, query) == scan_reference(partition, query)

    def test_incomplete_partition_answers_only_its_regions(self):
        partial = Partition(
            GRID, [GridRegion(GRID, 0, 10, 0, 53), GridRegion(GRID, 20, 37, 5, 9)],
            require_complete=False,
        )
        assert range_query(partial, GRID.bounds) == [0, 1]
        hole = GRID.cell_bounds(15, 30)
        assert range_query(partial, hole) == scan_reference(partial, hole) == []

    def test_infinite_box_answers_every_region(self):
        partition = uniform_partition(GRID, 6, 6)
        for query in (
            BoundingBox(-INF, -INF, INF, INF),
            BoundingBox(-INF, 34.0, -118.0, INF),
        ):
            assert range_query(partition, query) == scan_reference(partition, query)
        assert range_query(partition, BoundingBox(-INF, -INF, INF, INF)) == list(range(36))

    def test_off_map_boxes(self):
        partition = uniform_partition(GRID, 4, 4)
        b = GRID.bounds
        assert range_query(partition, BoundingBox(b.max_x + 1, b.min_y, INF, b.max_y)) == []
        touching = BoundingBox(b.max_x, b.min_y, b.max_x + 1, b.min_y)
        assert range_query(partition, touching) == scan_reference(partition, touching) == [3]

    def test_answers_are_python_ints_in_region_order(self):
        partition = uniform_partition(GRID, 4, 4)
        answer = regions_intersecting(partition.region_bounds, GRID.bounds)
        assert answer == list(range(16))
        assert all(type(index) is int for index in answer)


class TestNaNBoxes:
    @pytest.mark.parametrize("position", range(4))
    def test_nan_coordinate_is_refused(self, position):
        coords = [0.0, 0.0, 1.0, 1.0]
        coords[position] = math.nan
        with pytest.raises(GeometryError):
            BoundingBox(*coords)

    def test_infinite_coordinates_still_build(self):
        box = BoundingBox(-INF, -INF, INF, INF)
        assert box.intersects(BoundingBox.unit()) and box.width == INF
