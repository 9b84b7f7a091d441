"""Bit-exactness oracles for the coordinates -> region locate kernel.

Every dense reader -- the monolithic dense server, ``ShardedDeployment``
and the shared-memory workers -- answers a batch with the flat padded-grid
ids of ``Grid.locate_padded`` and one ``take``.  The form it replaced --
``Grid.locate_many`` with its inside-mask, compress and scatter into
``np.full(-1)``, then the 2-D gather ``pad_labels(labels)[rows, cols]`` --
lives on here only, as the reference.  Every comparison is on raw int64
bytes, so one point landing in a neighbouring cell fails.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServingConfig
from repro.exceptions import GridError
from repro.io.artifacts import save_partition_artifact
from repro.serving import PartitionServer, ServingEngine, ShardedDeployment
from repro.serving import WireConnection, WorkerPool
from repro.serving.backends import pad_labels
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
        shape = (grid.rows + 1, grid.cols + 1)
        self.segment = shared_memory.SharedMemory(create=True, size=shape[0] * shape[1] * 8)
        view = np.ndarray(shape, dtype=np.int64, buffer=self.segment.buf)
        pad_labels(partition.label_grid, out=view)
        del view
        self.state = WorkerState()
        self.state.apply_exports([{
            "name": "k",
            "version": 1,
            "segment": self.segment.name,
            "rows": grid.rows,
            "cols": grid.cols,
            "bounds": [BOUNDS.min_x, BOUNDS.min_y, BOUNDS.max_x, BOUNDS.max_y],
            "extents": np.array(
                [(r.row_start, r.row_stop, r.col_start, r.col_stop) for r in partition.regions],
                dtype=np.int64,
            ),
        }])

    def __call__(self, xs, ys, strict=False):
        return self.state.locate_batch("k", xs, ys, strict=strict)[1]

    def close(self):
        self.state.apply_exports([], removed=["k"])
        self.state = None
        self.segment.close()
        self.segment.unlink()


@pytest.fixture(scope="module", params=["complete", "incomplete"])
def readers(request, partition, incomplete):
    """Every reader's ``locate(xs, ys, strict=False)``, by name."""
    source = partition if request.param == "complete" else incomplete
    worker = ShmWorkerReader(source)
    yield source, {
        "dense": PartitionServer(source).locate_points,
        "sparse": PartitionServer(source, config=ServingConfig(backend="sparse")).locate_points,
        "sharded_2x2": ShardedDeployment(source, 2, 2).locate_points,
        "sharded_4x4": ShardedDeployment(source, 4, 4).locate_points,
        "shm_worker": worker,
    }
    worker.close()


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
        ids = GRID.locate_padded(xs, ys, strict=False)
        rows, cols = reference_locate_many(GRID, xs, ys, strict=False)
        expected = np.where(rows >= 0, rows * (GRID.cols + 1) + cols, -1)
        assert_bit_equal(ids, expected)

    def test_off_map_id_reads_the_last_border_cell(self, partition):
        padded = pad_labels(partition.label_grid)
        assert padded.ravel()[-1] == -1
        ids = GRID.locate_padded(*corners(), strict=False)
        assert (ids >= 0).all() and (ids < padded.size - 1).all()

    @pytest.mark.parametrize("case", sorted(shaped_cases()))
    def test_shapes_match_reference(self, case):
        xs, ys = shaped_cases()[case]
        rows, cols = GRID.locate_many(xs, ys, strict=False)
        ref_rows, ref_cols = reference_locate_many(GRID, xs, ys, strict=False)
        assert_bit_equal(rows, ref_rows)
        assert_bit_equal(cols, ref_cols)
        assert GRID.locate_padded(xs, ys, strict=False).shape == np.shape(ref_rows)

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
        ids = GRID.locate_padded(xs, ys, strict=False)
        assert_bit_equal(ids, np.where(ref_rows >= 0, ref_rows * (GRID.cols + 1) + ref_cols, -1))


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
