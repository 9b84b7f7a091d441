"""Bit-exactness oracles for the padded grids a sharded deployment composes.

A fresh :class:`ShardedDeployment` reads the partition's own padded grid.
A tile swap or rollback makes it compose a new one from the tiles' active
versions (``pad_labels`` over the stitched labels) and work out again
whether every cell is covered.  These readers take that path and must
answer exactly as the reference read of ``test_locate_kernel`` does:

- ``swapped_2x2`` swaps every tile of a 2x2 deployment to its own labels;
- ``rolled_back_4x4`` swaps every tile of a 4x4 deployment to all ``-1``
  and rolls it back, so the last compose must find full coverage again.
"""

import numpy as np
import pytest

from repro.exceptions import GridError
from repro.serving import ShardedDeployment
from repro.spatial.partition import Partition
from repro.spatial.region import GridRegion

from test_locate_kernel import (
    EXTENTS,
    GRID,
    POINT_CASES,
    assert_bit_equal,
    corners,
    off_map_each_side,
    reference_regions,
    shaped_cases,
)


@pytest.fixture(scope="module")
def partition():
    return Partition(GRID, [GridRegion(GRID, *extent) for extent in EXTENTS])


@pytest.fixture(scope="module")
def incomplete():
    return Partition(
        GRID, [GridRegion(GRID, *extent) for extent in EXTENTS[:4]], require_complete=False
    )


def tile_labels(deployment, row, col):
    r0, r1, c0, c1 = deployment.tile_window(row, col)
    return deployment.partition.label_grid[r0:r1, c0:c1]


def swapped(source, shard_rows, shard_cols):
    """Every tile swapped to its own labels: the same map, composed."""
    deployment = ShardedDeployment(source, shard_rows, shard_cols)
    for row in range(shard_rows):
        for col in range(shard_cols):
            deployment.swap_shard(row, col, tile_labels(deployment, row, col))
    return deployment


def rolled_back(source, shard_rows, shard_cols):
    """Every tile uncovered, then rolled back to its original labels."""
    deployment = ShardedDeployment(source, shard_rows, shard_cols)
    for row in range(shard_rows):
        for col in range(shard_cols):
            uncovered = np.full_like(tile_labels(deployment, row, col), -1)
            deployment.swap_shard(row, col, uncovered)
            deployment.rollback_shard(row, col)
    return deployment


@pytest.fixture(scope="module", params=["complete", "incomplete"])
def reader_objects(request, partition, incomplete):
    """Every composing reader, by name, over a complete or an incomplete partition."""
    source = partition if request.param == "complete" else incomplete
    return source, {
        "swapped_2x2": swapped(source, 2, 2),
        "rolled_back_4x4": rolled_back(source, 4, 4),
    }


@pytest.fixture
def readers(reader_objects):
    source, objects = reader_objects
    return source, {name: reader.locate_points for name, reader in objects.items()}


READER_NAMES = ("swapped_2x2", "rolled_back_4x4")


class TestComposedGrid:
    @pytest.mark.parametrize("reader", READER_NAMES)
    def test_compose_builds_a_fresh_read_only_copy(self, reader_objects, reader):
        source, objects = reader_objects
        padded, _ = objects[reader].padded_snapshot
        assert padded is not source.padded_labels
        assert not padded.flags.writeable
        assert_bit_equal(padded, source.padded_labels)

    def test_partial_swap_uncovers_only_its_tile(self, partition):
        deployment = ShardedDeployment(partition, 2, 2)
        uncovered = np.full_like(tile_labels(deployment, 1, 0), -1)
        deployment.swap_shard(1, 0, uncovered)
        r0, r1, c0, c1 = deployment.tile_window(1, 0)
        expected = partition.label_grid.copy()
        expected[r0:r1, c0:c1] = -1
        xs, ys = off_map_each_side(seed=5, size=2000)
        regions, located = deployment.locate_counted(xs, ys)
        rows, cols = GRID.locate_many(xs, ys, strict=False)
        reference = np.where(rows >= 0, expected[rows, cols], -1)
        assert_bit_equal(regions, reference)
        assert located == np.count_nonzero(reference >= 0)


class TestReaders:
    @pytest.mark.parametrize("reader", READER_NAMES)
    @pytest.mark.parametrize("case", sorted(POINT_CASES))
    def test_points_match_reference(self, readers, reader, case):
        source, by_name = readers
        xs, ys = POINT_CASES[case]()
        assert_bit_equal(by_name[reader](xs, ys), reference_regions(source, xs, ys))

    @pytest.mark.parametrize("reader", READER_NAMES)
    @pytest.mark.parametrize("case", sorted(shaped_cases()))
    def test_shapes_match_reference(self, readers, reader, case):
        source, by_name = readers
        xs, ys = shaped_cases()[case]
        assert_bit_equal(by_name[reader](xs, ys), reference_regions(source, xs, ys))

    @pytest.mark.parametrize("reader", READER_NAMES)
    @pytest.mark.parametrize("case", sorted(POINT_CASES))
    def test_located_count_matches_reference(self, reader_objects, reader, case):
        # A wrong coverage flag after the compose would miscount here.
        source, objects = reader_objects
        xs, ys = POINT_CASES[case]()
        regions, located = objects[reader].locate_counted(xs, ys)
        expected = reference_regions(source, xs, ys)
        assert_bit_equal(regions, expected)
        assert located == np.count_nonzero(expected >= 0)

    @pytest.mark.parametrize("reader", READER_NAMES)
    def test_strict_raises_the_same_grid_error(self, readers, reader):
        source, by_name = readers
        xs, ys = off_map_each_side(seed=9, size=400)
        with pytest.raises(GridError) as expected:
            reference_regions(source, xs, ys, strict=True)
        with pytest.raises(GridError) as raised:
            by_name[reader](xs, ys, strict=True)
        assert str(raised.value) == str(expected.value)
        xs, ys = corners()
        assert_bit_equal(
            by_name[reader](xs, ys, strict=True),
            reference_regions(source, xs, ys, strict=True),
        )
