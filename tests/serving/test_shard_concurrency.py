"""Shard-level concurrency: per-tile hot-swaps racing parallel readers.

Mirrors ``tests/serving/test_concurrency.py`` one level down: where that
suite races whole-version hot-swaps, this one races *tile* swaps
(:meth:`ShardedDeployment.swap_shard` / ``rollback_shard``) against
concurrent readers.

The oracle construction: the swap/rollback schedule is deterministic, so
every published deployment state S0..Sk (S0 = as built, Si = after the
i-th shard op) is known up front.  A single-threaded mirror of the
versioned tile histories composes each state's full label grid and
precomputes its expected assignment for the query batch.  A concurrent
read is *snapshot-consistent* exactly when it equals some Si's expected
output bit-for-bit — a torn read (tiles from two states mixed into one
answer) matches no state and fails.

The full-size runs are marked ``stress`` (skipped by default, run with
``pytest -m stress``); small smoke variants of the same harness keep the
invariants exercised in tier-1.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import sanitized
from repro.serving import ServingEngine, ShardedDeployment
from repro.spatial.grid import Grid
from repro.spatial.partition import uniform_partition

N_READERS = 8
N_OPS = 24


class _TileMirror:
    """Single-threaded mirror of the deployment's versioned tile state."""

    def __init__(self, sharded, partition):
        self.sharded = sharded
        rows, cols = sharded.shards
        self.histories = {}
        self.active = {}
        for r in range(rows):
            for c in range(cols):
                r0, r1, c0, c1 = sharded.tile_window(r, c)
                self.histories[(r, c)] = [
                    partition.label_grid[r0:r1, c0:c1].copy()
                ]
                self.active[(r, c)] = 0

    def swap(self, r, c, tile):
        self.histories[(r, c)].append(tile)
        self.active[(r, c)] = len(self.histories[(r, c)]) - 1

    def rollback(self, r, c):
        assert self.active[(r, c)] > 0
        self.active[(r, c)] -= 1

    def label_grid(self, shape):
        grid = np.empty(shape, dtype=np.int64)
        for (r, c), history in self.histories.items():
            r0, r1, c0, c1 = self.sharded.tile_window(r, c)
            grid[r0:r1, c0:c1] = history[self.active[(r, c)]]
        return grid


def _run_swap_race(n_readers, n_ops, shard_rows=2, shard_cols=2, pause=0.004):
    """Race readers against a deterministic shard-op schedule; assert every
    read is bit-exact against one of the precomputed oracle states."""
    partition = uniform_partition(Grid(16, 16), 4, 4)
    sharded = ShardedDeployment(partition, shard_rows, shard_cols)
    mirror = _TileMirror(sharded, partition)
    shape = partition.label_grid.shape

    rng = np.random.default_rng(5)
    xs = rng.uniform(-0.05, 1.05, 400)
    ys = rng.uniform(-0.05, 1.05, 400)
    rows, cols = partition.grid.locate_many(xs, ys, strict=False)
    inside = rows >= 0

    def expected_for(grid):
        out = np.full(xs.shape, -1, dtype=np.int64)
        out[inside] = grid[rows[inside], cols[inside]]
        return out

    # The deterministic schedule, applied to the mirror first so every
    # oracle state exists before any thread starts.
    tiles = [(r, c) for r in range(shard_rows) for c in range(shard_cols)]
    schedule = []
    for i in range(n_ops):
        r, c = tiles[i % len(tiles)]
        if i % 3 == 2 and mirror.active[(r, c)] > 0:
            schedule.append(("rollback", r, c, None))
            mirror.rollback(r, c)
        else:
            r0, r1, c0, c1 = sharded.tile_window(r, c)
            tile = np.full(
                (r1 - r0, c1 - c0), i % sharded.n_regions, dtype=np.int64
            )
            schedule.append(("swap", r, c, tile))
            mirror.swap(r, c, tile)

    # Rebuild the mirror to replay alongside the real ops, recording the
    # expected output bytes of every state S0..Sk.
    mirror = _TileMirror(sharded, partition)
    oracle = {expected_for(mirror.label_grid(shape)).tobytes()}
    oracle_states = [mirror.label_grid(shape)]
    for op, r, c, tile in schedule:
        if op == "swap":
            mirror.swap(r, c, tile)
        else:
            mirror.rollback(r, c)
        oracle.add(expected_for(mirror.label_grid(shape)).tobytes())
        oracle_states.append(mirror.label_grid(shape))

    stop = threading.Event()
    failures = []
    reads = [0] * n_readers

    def reader(index):
        while not stop.is_set():
            result = np.ascontiguousarray(
                sharded.locate_points(xs, ys), dtype=np.int64
            )
            reads[index] += 1
            if result.tobytes() not in oracle:
                failures.append(f"torn read in reader {index}")
                return

    threads = [
        threading.Thread(target=reader, args=(index,))
        for index in range(n_readers)
    ]
    for thread in threads:
        thread.start()
    try:
        for op, r, c, tile in schedule:
            time.sleep(pause)  # let readers interleave with every state
            if op == "swap":
                sharded.swap_shard(r, c, tile)
            else:
                sharded.rollback_shard(r, c)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not failures, failures[:5]
    assert sum(reads) > 0
    # The final served state is the schedule's last mirror state.
    np.testing.assert_array_equal(
        sharded.locate_points(xs, ys), expected_for(oracle_states[-1])
    )


def _run_counter_hammer(n_threads, batches_per_thread, n_points):
    """Hammer a sharded deployment's served-points counter (the engine's)
    from a thread pool; the total must be exact (a lost read-modify-write
    update would undercount)."""
    engine = ServingEngine()
    engine.deploy("s", uniform_partition(Grid(16, 16), 4, 4), shards=(2, 2))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.05, 1.05, n_points)
    ys = rng.uniform(-0.05, 1.05, n_points)

    def worker(_):
        for _ in range(batches_per_thread):
            engine.locate_points("s", xs, ys)

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(worker, range(n_threads)))

    points = engine.stats["deployments"]["s"]["points"]
    assert points == n_threads * batches_per_thread * n_points


def _run_concurrent_determinism(n_threads, calls_per_thread, shards, n_points, seed):
    """Threads dispatching one batch concurrently each get the byte-identical
    answer of the first call."""
    partition = uniform_partition(Grid(16, 16), 4, 4)
    sharded = ShardedDeployment(partition, *shards)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.05, 1.05, n_points)
    ys = rng.uniform(-0.05, 1.05, n_points)
    baseline = sharded.locate_points(xs, ys).tobytes()
    failures = []

    def worker(_):
        for _ in range(calls_per_thread):
            if sharded.locate_points(xs, ys).tobytes() != baseline:
                failures.append("non-deterministic concurrent dispatch")
                return

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(worker, range(n_threads)))
    assert not failures


class TestShardSwapSmoke:
    """Tier-1-sized runs of the stress harness (seconds, not minutes)."""

    def test_readers_racing_tile_swaps(self):
        _run_swap_race(n_readers=2, n_ops=6, pause=0.002)

    def test_counters_exact_under_pool(self):
        _run_counter_hammer(n_threads=4, batches_per_thread=5, n_points=200)

    def test_sanitized_smoke_race_runs_clean(self):
        """Small sanitized rerun of the tile-swap race for tier-1: the
        instrumented shard locks must produce zero runtime findings."""
        with sanitized() as sink:
            _run_swap_race(n_readers=2, n_ops=6, pause=0.002)
        report = sink.report()
        assert report.clean, "\n" + report.render_text()

    def test_parallel_dispatch_deterministic(self):
        _run_concurrent_determinism(
            n_threads=4, calls_per_thread=5, shards=(3, 3), n_points=3000, seed=13
        )


@pytest.mark.stress
class TestShardSwapStress:
    def test_8_readers_racing_24_tile_ops(self):
        """8 readers x 24 shard ops, every read bit-exact against the
        single-threaded oracle."""
        _run_swap_race(n_readers=N_READERS, n_ops=N_OPS)

    def test_counters_survive_sustained_hammering(self):
        _run_counter_hammer(n_threads=8, batches_per_thread=25, n_points=1000)

    def test_sanitized_rerun_of_the_full_oracle_race(self):
        """8 readers x 24 tile ops under the runtime sanitizer: the oracle
        still holds AND the instrumented locks/guarded attributes produce
        zero findings (the dynamic half of the concurrency contract)."""
        with sanitized() as sink:
            _run_swap_race(n_readers=N_READERS, n_ops=N_OPS)
            _run_counter_hammer(n_threads=8, batches_per_thread=10, n_points=500)
        report = sink.report()
        assert report.clean, "\n" + report.render_text()

    def test_determinism_under_concurrent_dispatch(self):
        """Many threads dispatching the same batch concurrently still each
        get the byte-identical answer."""
        _run_concurrent_determinism(
            n_threads=8, calls_per_thread=10, shards=(4, 4), n_points=5000, seed=17
        )
