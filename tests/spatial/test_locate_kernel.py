"""Bit-exactness oracles for the coordinates -> region locate kernel.

Every dense reader -- the monolithic dense server, ``ShardedDeployment``
and the shared-memory workers -- answers a batch with the flat padded-grid
ids of ``Grid.locate_padded`` and one ``take``.  The ids are unclamped: a
point on a maximal edge addresses the padded grid's copy of the last row
or column.  The form it replaced -- ``Grid.locate_many`` with its
inside-mask, compress, clamp and scatter into ``np.full(-1)``, then the
2-D gather ``pad_labels(labels)[rows, cols]`` -- lives on here only, as
the reference.  Every comparison is on raw int64 bytes, so one point
landing in a neighbouring cell fails.
"""

import math
import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import ServingConfig
from repro.exceptions import GridError
from repro.io.artifacts import save_partition_artifact
from repro.serving import PartitionServer, ServingEngine, ShardedDeployment
from repro.serving import WireConnection, WorkerPool
from repro.serving.backends import pad_labels, padded_shape
from repro.serving.workers import WorkerState, fork_available
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import Grid
from repro.spatial.partition import Partition
from repro.spatial.region import GridRegion

#: Non-unit bounds, ``rows != cols``, and cell sizes (0.525 x 0.2291...)
#: that are not exact binary fractions, so cell edges round.
GRID = Grid(12, 20, BoundingBox(-3.5, 1.25, 7.0, 4.0))
BOUNDS = GRID.bounds

#: An irregular complete partition: region edges cut across the 2x2 and
#: 4x4 shard edges.
EXTENTS = [
    (0, 5, 0, 7), (0, 5, 7, 20), (5, 12, 0, 3),
    (5, 9, 3, 13), (9, 12, 3, 13), (5, 12, 13, 20),
]


# -- reference implementations ---------------------------------------------------


def reference_locate_many(grid, xs, ys, strict=True):
    """``Grid.locate_many`` as it was: inside-mask, compress, scatter."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise GridError("xs and ys must have the same shape")
    bounds = grid.bounds
    inside = (
        (xs >= bounds.min_x)
        & (xs <= bounds.max_x)
        & (ys >= bounds.min_y)
        & (ys <= bounds.max_y)
    )
    if bool(np.all(inside)):
        cols = np.minimum(
            ((xs - bounds.min_x) / grid.cell_width).astype(int, copy=False), grid.cols - 1
        )
        rows = np.minimum(
            ((ys - bounds.min_y) / grid.cell_height).astype(int, copy=False), grid.rows - 1
        )
        return rows, cols
    if strict:
        raise GridError("some coordinates fall outside the grid bounds")
    rows = np.full(xs.shape, -1, dtype=int)
    cols = np.full(xs.shape, -1, dtype=int)
    cols[inside] = np.minimum(
        ((xs[inside] - bounds.min_x) / grid.cell_width).astype(int, copy=False), grid.cols - 1
    )
    rows[inside] = np.minimum(
        ((ys[inside] - bounds.min_y) / grid.cell_height).astype(int, copy=False), grid.rows - 1
    )
    return rows, cols


def reference_regions(partition, xs, ys, strict=False):
    """The old dense read: reference cells, then a 2-D padded gather."""
    rows, cols = reference_locate_many(partition.grid, xs, ys, strict=strict)
    return pad_labels(partition.label_grid)[rows, cols]


def assert_bit_equal(answer, expected):
    answer = np.asarray(answer)
    expected = np.asarray(expected)
    assert answer.dtype == np.int64
    assert answer.shape == expected.shape
    assert answer.tobytes() == expected.tobytes()


def assert_ids_address_reference_cells(grid, padded, ref_rows, ref_cols):
    """``Grid.locate_padded``'s answer against the reference cells of the same points.

    An off-map id is ``-1``, and the off-map count is theirs.  An on-map id
    addresses row ``<= rows`` and column ``<= cols`` of the padded grid --
    the invariant that lets the kernel skip the clamp -- and clamping that
    padded cell back into the grid gives exactly the reference cell.
    """
    ids, n_off_map = padded
    assert ids.dtype == np.int64
    assert ids.shape == np.shape(ref_rows)
    off_map = np.asarray(ref_rows) < 0
    assert n_off_map == np.count_nonzero(off_map)
    assert (ids[off_map] == -1).all()
    rows, cols = np.divmod(ids[~off_map], grid.cols + 2)
    assert ((rows >= 0) & (rows <= grid.rows)).all()
    assert ((cols >= 0) & (cols <= grid.cols)).all()
    assert_bit_equal(np.minimum(rows, grid.rows - 1), np.asarray(ref_rows)[~off_map])
    assert_bit_equal(np.minimum(cols, grid.cols - 1), np.asarray(ref_cols)[~off_map])


# -- point sets ---------------------------------------------------------------------


def off_map_each_side(seed=0, size=4000):
    """Uniform in-map points with 1% moved off each of the four sides."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(BOUNDS.min_x, BOUNDS.max_x, size)
    ys = rng.uniform(BOUNDS.min_y, BOUNDS.max_y, size)
    n_off = size // 100
    picked = rng.choice(size, 4 * n_off, replace=False).reshape(4, n_off)
    shift = rng.uniform(0.01, 0.5, (4, n_off))
    xs[picked[0]] = BOUNDS.min_x - BOUNDS.width * shift[0]
    xs[picked[1]] = BOUNDS.max_x + BOUNDS.width * shift[1]
    ys[picked[2]] = BOUNDS.min_y - BOUNDS.height * shift[2]
    ys[picked[3]] = BOUNDS.max_y + BOUNDS.height * shift[3]
    return xs, ys


def huge_values():
    """1e300 on both axes and signs, beside in-map partners."""
    mid_x, mid_y = BOUNDS.center.x, BOUNDS.center.y
    xs = np.array([1e300, -1e300, mid_x, mid_x, 1e300, mid_x])
    ys = np.array([mid_y, mid_y, 1e300, -1e300, 1e300, mid_y])
    return xs, ys


def non_finite():
    """NaN and +/-inf on each axis, beside in-map partners."""
    mid_x, mid_y = BOUNDS.center.x, BOUNDS.center.y
    specials = [np.nan, np.inf, -np.inf]
    xs = np.array(specials + [mid_x] * 3 + specials + [mid_x])
    ys = np.array([mid_y] * 3 + specials + specials[::-1] + [mid_y])
    return xs, ys


def corners():
    xs = np.array([BOUNDS.min_x, BOUNDS.max_x, BOUNDS.min_x, BOUNDS.max_x])
    ys = np.array([BOUNDS.min_y, BOUNDS.min_y, BOUNDS.max_y, BOUNDS.max_y])
    return xs, ys


def one_ulp_around_edges():
    """One ulp inside and one ulp outside all four edges."""
    mid_x, mid_y = BOUNDS.center.x, BOUNDS.center.y
    xs, ys = [], []
    for edge, inward in ((BOUNDS.min_x, np.inf), (BOUNDS.max_x, -np.inf)):
        for direction in (inward, -inward):
            xs.append(np.nextafter(edge, direction))
            ys.append(mid_y)
    for edge, inward in ((BOUNDS.min_y, np.inf), (BOUNDS.max_y, -np.inf)):
        for direction in (inward, -inward):
            xs.append(mid_x)
            ys.append(np.nextafter(edge, direction))
    return np.array(xs), np.array(ys)


def cell_edges():
    """Every interior cell edge, exactly and one ulp either side."""
    col_edges = BOUNDS.min_x + np.arange(GRID.cols + 1) * GRID.cell_width
    row_edges = BOUNDS.min_y + np.arange(GRID.rows + 1) * GRID.cell_height
    x_edges = np.concatenate(
        [col_edges, np.nextafter(col_edges, np.inf), np.nextafter(col_edges, -np.inf)]
    )
    y_edges = np.concatenate(
        [row_edges, np.nextafter(row_edges, np.inf), np.nextafter(row_edges, -np.inf)]
    )
    xs, ys = np.meshgrid(x_edges, y_edges)
    return xs.ravel(), ys.ravel()


#: Finite 1-D point sets: every reader, the forked worker included.
FINITE_CASES = {
    "off_map_each_side": off_map_each_side,
    "huge": huge_values,
    "corners": corners,
    "one_ulp": one_ulp_around_edges,
    "cell_edges": cell_edges,
}

#: Every 1-D point set; the wire refuses the non-finite one.
POINT_CASES = {**FINITE_CASES, "non_finite": non_finite}


def shaped_cases():
    """0-d, 2-D, empty and strided (non-contiguous) inputs."""
    xs, ys = off_map_each_side(seed=3, size=600)
    grid_x, grid_y = xs.reshape(20, 30), ys.reshape(20, 30)
    return {
        "zero_d_on_map": (np.float64(BOUNDS.center.x), np.float64(BOUNDS.center.y)),
        "zero_d_python_floats": (BOUNDS.max_x, BOUNDS.max_y),
        "zero_d_off_map": (np.array(BOUNDS.max_x + 1.0), np.array(BOUNDS.min_y)),
        "zero_d_nan": (np.array(np.nan), np.array(BOUNDS.min_y)),
        "two_d": (grid_x, grid_y),
        "two_d_fortran": (np.asfortranarray(grid_x), np.asfortranarray(grid_y)),
        "two_d_transposed": (grid_x.T, grid_y.T),
        "two_d_strided": (grid_x[::2, ::3], grid_y[::2, ::3]),
        "strided": (xs[::7], ys[::7]),
        "reversed": (xs[::-1], ys[::-1]),
        "empty": (np.empty(0), np.empty(0)),
        "empty_two_d": (np.empty((0, 4)), np.empty((0, 4))),
        "lists": (list(xs[:50]), list(ys[:50])),
    }


# -- readers ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def partition():
    return Partition(GRID, [GridRegion(GRID, *extent) for extent in EXTENTS])


@pytest.fixture(scope="module")
def incomplete():
    return Partition(
        GRID, [GridRegion(GRID, *extent) for extent in EXTENTS[:4]], require_complete=False
    )


class ShmWorkerReader:
    """``WorkerState.locate_batch`` over a real shared-memory segment.

    The function a forked worker runs, in this process, so inputs the
    wire refuses (non-finite coordinates, 0-d and 2-D shapes) reach it.
    """

    def __init__(self, partition):
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
                [(r.row_start, r.row_stop, r.col_start, r.col_stop) for r in partition.regions],
                dtype=np.int64,
            ),
        }])

    def locate_points(self, xs, ys, strict=False):
        return self.state.locate_batch("k", xs, ys, strict=strict)[1]

    def locate_counted(self, xs, ys):
        """``(regions, located)``, the count read off the worker's counter."""
        before = self.state.stats["located"]
        regions = self.locate_points(xs, ys)
        return regions, self.state.stats["located"] - before

    def close(self):
        self.state.apply_exports([], removed=["k"])
        self.state = None
        self.segment.close()
        self.segment.unlink()


@pytest.fixture(scope="module", params=["complete", "incomplete"])
def reader_objects(request, partition, incomplete):
    """Every reader, by name, over a complete or an incomplete partition."""
    source = partition if request.param == "complete" else incomplete
    worker = ShmWorkerReader(source)
    yield source, {
        "dense": PartitionServer(source),
        "sparse": PartitionServer(source, config=ServingConfig(backend="sparse")),
        "sharded_2x2": ShardedDeployment(source, 2, 2),
        "sharded_4x4": ShardedDeployment(source, 4, 4),
        "shm_worker": worker,
    }
    worker.close()


@pytest.fixture
def readers(reader_objects):
    """Every reader's ``locate(xs, ys, strict=False)``, by name."""
    source, objects = reader_objects
    return source, {name: reader.locate_points for name, reader in objects.items()}


READER_NAMES = ("dense", "sparse", "sharded_2x2", "sharded_4x4", "shm_worker")


# -- the kernel itself ----------------------------------------------------------------


class TestGridKernel:
    @pytest.mark.parametrize("case", sorted(POINT_CASES))
    def test_locate_many_matches_reference(self, case):
        xs, ys = POINT_CASES[case]()
        rows, cols = GRID.locate_many(xs, ys, strict=False)
        ref_rows, ref_cols = reference_locate_many(GRID, xs, ys, strict=False)
        assert_bit_equal(rows, ref_rows)
        assert_bit_equal(cols, ref_cols)

    @pytest.mark.parametrize("case", sorted(POINT_CASES))
    def test_padded_ids_address_the_reference_cells(self, case):
        xs, ys = POINT_CASES[case]()
        padded = GRID.locate_padded(xs, ys, strict=False)
        rows, cols = reference_locate_many(GRID, xs, ys, strict=False)
        assert_ids_address_reference_cells(GRID, padded, rows, cols)

    def test_off_map_id_reads_the_last_border_cell(self, partition):
        labels = partition.label_grid
        rows, cols = labels.shape
        padded = pad_labels(labels)
        assert padded.shape == padded_shape(rows, cols) == (rows + 2, cols + 2)
        assert_bit_equal(padded[:rows, :cols], labels)
        assert_bit_equal(padded[rows, :cols], labels[-1])
        assert_bit_equal(padded[:rows, cols], labels[:, -1])
        assert padded[rows, cols] == labels[-1, -1]
        assert (padded[rows + 1] == -1).all() and (padded[:, cols + 1] == -1).all()
        assert padded.ravel()[-1] == -1
        # The maximal corner addresses the copies; id -1 reads the -1 corner.
        ids, n_off_map = GRID.locate_padded(*corners(), strict=False)
        assert n_off_map == 0
        assert (ids >= 0).all() and (ids < padded.size - 1).all()
        assert ids[-1] == rows * (cols + 2) + cols
        assert_bit_equal(padded.ravel().take(ids), labels[[0, 0, -1, -1], [0, -1, 0, -1]])

    @pytest.mark.parametrize("case", sorted(shaped_cases()))
    def test_shapes_match_reference(self, case):
        xs, ys = shaped_cases()[case]
        rows, cols = GRID.locate_many(xs, ys, strict=False)
        ref_rows, ref_cols = reference_locate_many(GRID, xs, ys, strict=False)
        assert_bit_equal(rows, ref_rows)
        assert_bit_equal(cols, ref_cols)
        assert GRID.locate_padded(xs, ys, strict=False)[0].shape == np.shape(ref_rows)

    def test_inputs_are_not_written(self):
        xs, ys = off_map_each_side(seed=5)
        before = xs.tobytes(), ys.tobytes()
        GRID.locate_padded(xs, ys, strict=False)
        GRID.locate_many(xs, ys, strict=False)
        assert (xs.tobytes(), ys.tobytes()) == before

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.nextafter(BOUNDS.min_x, -np.inf), BOUNDS.center.y),
            (np.nextafter(BOUNDS.max_x, np.inf), BOUNDS.center.y),
            (BOUNDS.center.x, np.nextafter(BOUNDS.min_y, -np.inf)),
            (BOUNDS.center.x, np.nextafter(BOUNDS.max_y, np.inf)),
            (np.nan, BOUNDS.center.y),
            (BOUNDS.center.x, -np.inf),
        ],
    )
    def test_strict_raises_like_reference(self, x, y):
        xs = np.array([BOUNDS.center.x, x])
        ys = np.array([BOUNDS.center.y, y])
        with pytest.raises(GridError) as expected:
            reference_locate_many(GRID, xs, ys, strict=True)
        for kernel in (GRID.locate_many, GRID.locate_padded):
            with pytest.raises(GridError) as raised:
                kernel(xs, ys, strict=True)
            assert str(raised.value) == str(expected.value)

    def test_shape_mismatch_raises(self):
        with pytest.raises(GridError, match="same shape"):
            GRID.locate_padded(np.zeros(2), np.zeros(3))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(BOUNDS.min_x, BOUNDS.max_x),
                    st.sampled_from([BOUNDS.min_x, BOUNDS.max_x]),
                ),
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(BOUNDS.min_y, BOUNDS.max_y),
                    st.sampled_from([BOUNDS.min_y, BOUNDS.max_y]),
                ),
            ),
            max_size=40,
        )
    )
    def test_property_any_floats(self, points):
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        rows, cols = GRID.locate_many(xs, ys, strict=False)
        ref_rows, ref_cols = reference_locate_many(GRID, xs, ys, strict=False)
        assert_bit_equal(rows, ref_rows)
        assert_bit_equal(cols, ref_cols)
        padded = GRID.locate_padded(xs, ys, strict=False)
        assert_ids_address_reference_cells(GRID, padded, ref_rows, ref_cols)


# -- random grids -----------------------------------------------------------------------


def _magnitude():
    """A float of magnitude 1e-8 to 1e8, either sign."""
    return st.builds(
        lambda magnitude, negative: -magnitude if negative else magnitude,
        st.floats(1e-8, 1e8),
        st.booleans(),
    )


def _rounding_cell_size(size):
    """True when ``size`` is no short binary fraction, so its edges round."""
    mantissa, _ = math.frexp(size)
    return (mantissa * 2.0**20) % 1.0 != 0.0


@st.composite
def random_grids(draw):
    """A grid of 1-300 rows and columns over bounds of magnitude 1e-8 to 1e8."""
    rows = draw(st.integers(1, 300))
    cols = draw(st.integers(1, 300))
    x0, x1, y0, y1 = (draw(_magnitude()) for _ in range(4))
    bounds = BoundingBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
    assume(bounds.width > 0 and bounds.height > 0)
    grid = Grid(rows, cols, bounds)
    assume(_rounding_cell_size(grid.cell_width) and _rounding_cell_size(grid.cell_height))
    return grid


def _axis_edges(low, high, cell_size, n):
    """Every cell edge of one axis and both bounds, exactly and one ulp either side."""
    edges = np.concatenate([low + np.arange(n + 1) * cell_size, [low, high]])
    return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])


def random_grid_points(grid):
    """Each axis's edges paired with the other's, then the non-finite and huge values."""
    bounds = grid.bounds
    x_edges = _axis_edges(bounds.min_x, bounds.max_x, grid.cell_width, grid.cols)
    y_edges = _axis_edges(bounds.min_y, bounds.max_y, grid.cell_height, grid.rows)
    specials = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300])
    mid_x = np.full(specials.size, bounds.center.x)
    mid_y = np.full(specials.size, bounds.center.y)
    xs = np.concatenate([x_edges, np.resize(x_edges, y_edges.size), specials, mid_x, specials])
    ys = np.concatenate([np.resize(y_edges, x_edges.size), y_edges, mid_y, specials, specials[::-1]])
    return xs, ys


def block_partition(grid, row_cuts, col_cuts, complete):
    """Regions cut at the given rows and columns, the last row and column their own.

    The last row and column are cut off as regions of their own, so an id
    that reads a max-edge copy instead of the cell the clamp picked shows.
    Incomplete partitions drop every third region.
    """
    row_edges = sorted({0, grid.rows - 1, grid.rows, *(c % grid.rows for c in row_cuts)})
    col_edges = sorted({0, grid.cols - 1, grid.cols, *(c % grid.cols for c in col_cuts)})
    regions = [
        GridRegion(grid, r0, r1, c0, c1)
        for r0, r1 in zip(row_edges, row_edges[1:])
        for c0, c1 in zip(col_edges, col_edges[1:])
    ]
    if not complete and len(regions) > 1:
        regions = [region for index, region in enumerate(regions) if index % 3 != 1]
    return Partition(grid, regions, require_complete=complete)


class TestRandomGrids:
    """The kernel and every dense reader on random grids, at every cell edge."""

    @settings(max_examples=100, deadline=None)
    @given(
        random_grids(),
        st.lists(st.integers(0, 299), max_size=6),
        st.lists(st.integers(0, 299), max_size=6),
        st.booleans(),
    )
    def test_every_dense_reader_matches_reference(self, grid, row_cuts, col_cuts, complete):
        partition = block_partition(grid, row_cuts, col_cuts, complete)
        xs, ys = random_grid_points(grid)
        ref_rows, ref_cols = reference_locate_many(grid, xs, ys, strict=False)
        expected = reference_regions(partition, xs, ys)
        worker = ShmWorkerReader(partition)
        try:
            readers = [
                PartitionServer(partition),
                ShardedDeployment(partition, min(2, grid.rows), min(2, grid.cols)),
                ShardedDeployment(partition, min(4, grid.rows), min(4, grid.cols)),
                worker,
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                padded = grid.locate_padded(xs, ys, strict=False)
                rows, cols = grid.locate_many(xs, ys, strict=False)
                counted = [reader.locate_counted(xs, ys) for reader in readers]
                answers = [reader.locate_points(xs, ys) for reader in readers]
        finally:
            worker.close()
        assert_ids_address_reference_cells(grid, padded, ref_rows, ref_cols)
        assert_bit_equal(rows, ref_rows)
        assert_bit_equal(cols, ref_cols)
        for answer in answers:
            assert_bit_equal(answer, expected)
        for regions, located in counted:
            assert_bit_equal(regions, expected)
            assert located == np.count_nonzero(expected >= 0)


# -- every dense reader -----------------------------------------------------------------


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
        # The count the engine's and the workers' `located` counters add.
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


@pytest.mark.skipif(not fork_available(), reason="worker pool needs the fork start method")
class TestForkedWorker:
    """A forked worker answering over shared memory and the binary wire.

    The wire carries 1-D finite float64 coordinates (servers refuse
    non-finite ones), so the finite point sets cross it.
    """

    @pytest.fixture(scope="class")
    def connection(self, tmp_path_factory, partition):
        bundle = save_partition_artifact(
            partition, tmp_path_factory.mktemp("kernel") / "k", {"name": "k"}
        )
        engine = ServingEngine()
        engine.deploy("k", bundle)
        with WorkerPool(engine, port=0, workers=1).start() as pool:
            with WireConnection(pool.host, pool.port, codecs=("binary",)).connect() as conn:
                yield conn

    @pytest.mark.parametrize("case", sorted(FINITE_CASES))
    def test_points_match_reference(self, connection, partition, case):
        xs, ys = FINITE_CASES[case]()
        version, regions = connection.locate("k", xs, ys)
        assert version == 1
        assert_bit_equal(regions, reference_regions(partition, xs, ys))

    def test_strided_points_match_reference(self, connection, partition):
        xs, ys = off_map_each_side(seed=4)
        _, regions = connection.locate("k", xs[::3], ys[::3])
        assert_bit_equal(regions, reference_regions(partition, xs[::3], ys[::3]))
