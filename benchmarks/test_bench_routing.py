"""Benchmark — serving-engine routing overhead and sharded dispatch.

The engine fronts deployments by *name*; the redesign's contract is that
this indirection is operationally free.  Three measurements:

* **Dispatch overhead** — ``ServingEngine.locate_points(name, ...)`` vs a
  direct ``PartitionServer.locate_points`` call on the identical 10^6-point
  batch (10^5 and, with ``REPRO_BENCH_FULL=1``, 10^7 are also reported).
  Asserted: <= 10% overhead at 10^6 points — the engine adds one dict
  lookup and three counters to a multi-millisecond batch.
* **Sharded dispatch** — the same batches through 2x2 and 4x4
  :class:`~repro.serving.sharding.ShardedDeployment` tilings, which
  answer from one sentinel-padded composed label grid.  Asserted: the
  2x2 tiling holds *parity with the monolithic server* at 10^6 points
  (within a small scheduler-noise allowance) — sharding is free until
  you need it.  Both tilings are checked bit-equal to the monolithic
  result.
* **Sanitizer overhead** and the **dispatch allocation budget** — see
  their tests below.

Every table lands in ``routing_dispatch.txt``.  Overheads are the
*median of per-round paired ratios*: every round times each candidate
back to back with its own direct-server call (the pair's order
alternating across rounds), so CPU-frequency and scheduler drift hits
both sides of a ratio alike, and one noisy round moves the median by at
most one rank — where a ratio of two independent best-of minima lets a
single lucky direct timing set the denominator.  The tables also show
each candidate's best-of time.  Tables are written only after a test's
assertions pass, so a red run can never overwrite a committed green
table.
"""

import time

import numpy as np
import pytest

from bench_utils import paired_ratios, record_output, timed

from repro.config import DatasetConfig, GridConfig
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.datasets.edgap import load_edgap_city
from repro.experiments.reporting import format_table
from repro.serving import PartitionServer, ServingEngine, ShardedDeployment

#: Batch sizes swept by default; REPRO_BENCH_FULL adds the 10^7 tier.
SIZES = (100_000, 1_000_000)
FULL_SIZES = (100_000, 1_000_000, 10_000_000)

#: Rounds per timing: best-of times and the median of per-round ratios.
REPEATS = 7

#: Maximum tolerated engine overhead at the 10^6-point tier.
MAX_OVERHEAD = 0.10

#: Noise allowance on the sharded-parity assertion.  The sharded path and
#: the monolithic dense server run the same kernel (``Grid.locate_padded``
#: flat ids plus one ``take`` from a sentinel-padded label grid), so their
#: true difference is the sharded deployment's counter bump; but paired
#: timings carry a per-process offset of up to ~+/-6% (page/THP placement
#: of the per-call temporaries is a per-interpreter lottery) on top of
#: per-round scheduler noise.  The assertion's job is to catch
#: *regressions* — a scatter/gather path creeping back is a +200%
#: signal — without being a coin flip on busy CI runners, so it allows
#: parity plus this noise bound.
PARALLEL_NOISE = 0.08

#: Shard tilings compared against the monolithic server.
SHARD_TILINGS = ((2, 2), (4, 4))

#: Both benchmarks compose one output file; sections render in key order.
_SECTIONS = {}


def _flush_sections(output_dir):
    record_output(
        output_dir,
        "routing_dispatch",
        "\n\n".join(_SECTIONS[key] for key in sorted(_SECTIONS)),
    )


def _build_partition():
    dataset = load_edgap_city(
        DatasetConfig(
            city="los_angeles", n_records=100_000, grid=GridConfig(64, 64), seed=7
        )
    )
    rng = np.random.default_rng(dataset.n_records)
    residuals = np.round(rng.normal(scale=0.35, size=dataset.n_records) * 1024.0) / 1024.0
    return FairKDTreePartitioner(8).build_from_residuals(dataset, residuals)


@pytest.mark.benchmark(group="serving")
def test_routing_dispatch_overhead(benchmark, output_dir):
    """Engine name-routing must cost <= 10% over a direct server call, and
    sharded dispatch must not cost anything at all."""
    from bench_utils import bench_full

    partition = _build_partition()
    server = PartitionServer(partition)
    engine = ServingEngine()
    engine.deploy("la", server)
    sharded = {
        tiling: ShardedDeployment(partition, *tiling) for tiling in SHARD_TILINGS
    }
    bounds = partition.grid.bounds
    rng = np.random.default_rng(23)

    sizes = FULL_SIZES if bench_full() else SIZES
    rows = []
    overheads = {}
    sharded_overheads = {}
    columns = {tiling: f"sharded_{tiling[0]}x{tiling[1]}_ms" for tiling in SHARD_TILINGS}

    def run() -> None:
        for size in sizes:
            xs = rng.uniform(bounds.min_x, bounds.max_x, size)
            ys = rng.uniform(bounds.min_y, bounds.max_y, size)

            candidates = {"engine": lambda: engine.locate_points("la", xs, ys)}
            for tiling, deployment in sharded.items():
                candidates[columns[tiling]] = lambda d=deployment: d.locate_points(xs, ys)
            ratios, bests, answers = paired_ratios(
                lambda: server.locate_points(xs, ys), candidates, REPEATS
            )

            direct = answers["baseline"]
            assert np.array_equal(direct, answers["engine"]), (
                f"engine routing changed assignments at size {size}"
            )
            overheads[size] = ratios["engine"] - 1.0
            row = {
                "points": size,
                "direct_ms": bests["baseline"] * 1000.0,
                "engine_ms": bests["engine"] * 1000.0,
                "overhead_pct": overheads[size] * 100.0,
            }
            for tiling, column in columns.items():
                assert np.array_equal(direct, answers[column]), (
                    f"{tiling} sharding changed assignments at size {size}"
                )
                row[column] = bests[column] * 1000.0
            sharded_overheads[size] = ratios[columns[(2, 2)]] - 1.0
            row["sharded_overhead_pct"] = sharded_overheads[size] * 100.0
            row["monolithic_mlookups_s"] = size / bests["baseline"] / 1e6
            rows.append(row)

    benchmark.pedantic(run, rounds=1, iterations=1)

    million = overheads[1_000_000]
    assert million <= MAX_OVERHEAD, (
        f"engine dispatch costs {million * 100:.1f}% over a direct "
        f"PartitionServer.locate_points at 10^6 points "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)"
    )
    sharded_million = sharded_overheads[1_000_000]
    assert sharded_million <= PARALLEL_NOISE, (
        f"sharded 2x2 dispatch costs {sharded_million * 100:.1f}% over the "
        "monolithic server at 10^6 points; the shared padded-grid kernel "
        f"must hold parity (<= {PARALLEL_NOISE * 100:.0f}% noise allowance)"
    )

    # Flush only after the assertions hold — a red run must not overwrite
    # the committed green table.
    _SECTIONS["1_dispatch"] = format_table(
        rows,
        title="Serving-engine routing — named dispatch vs direct server, and "
        "sharded dispatch vs monolithic (Fair KD-tree h=8, Los Angeles, "
        f"64x64 grid; times best of {REPEATS}, overheads the median of "
        f"{REPEATS} per-round paired ratios)",
    )
    _flush_sections(output_dir)


#: Acquire/release pairs per lock-microbenchmark timing.
PAIR_OPS = 100_000

#: Ceiling on sanitized-mode dispatch vs the uninstrumented engine at 10^6
#: points.  The locate path performs a handful of lock operations per
#: *batch*, so even a 50x per-operation instrumentation cost amortises to
#: noise over a multi-millisecond request; a factor beyond this means the
#: sanitizer leaked work into the per-point path.
MAX_SANITIZED_DISPATCH_FACTOR = 1.5

#: Runaway guard on the per-operation cost of an instrumented lock pair.
#: The wrapper's bookkeeping (thread-local state, held-set update, order
#: edge) is expected to cost tens of raw-pair equivalents; the factor is
#: documented in the table, this bound only catches pathological
#: regressions (e.g. accidental O(locks) scans per acquisition).
MAX_LOCK_PAIR_FACTOR = 200.0


def _time_lock_pairs(lock, repeats=3):
    """Best-of per-pair seconds for ``PAIR_OPS`` acquire/release pairs."""
    best = float("inf")
    for _ in range(repeats):
        acquire, release = lock.acquire, lock.release
        start = time.perf_counter()
        for _ in range(PAIR_OPS):
            acquire()
            release()
        best = min(best, time.perf_counter() - start)
    return best / PAIR_OPS


@pytest.mark.benchmark(group="serving")
def test_sanitizer_overhead(benchmark, output_dir):
    """The REPRO_SANITIZE seam must be free when off and affordable when on.

    Disabled, the lock factories hand back raw ``threading`` primitives
    (the branch runs once, at construction), so engine dispatch must stay
    within the same budget over a direct server call that the committed
    routing table shows.  Enabled, every acquisition pays for bookkeeping —
    the honest per-operation factor is measured on a bare lock and
    documented alongside the amortised dispatch factor, which must stay
    near 1x because the locate hot path takes locks per batch, not per
    point.

    Both ratios time each side by the calling thread's CPU time
    (``time.thread_time``): the dispatch is single-threaded, so time a side
    spends preempted by another process is charged to neither.  Page
    faults stay the thread's own work, and they were most of the noise
    that once read 1.03-1.10 for a direct server paired with an identical
    second one: a call that followed itself, its previous 10^6-point
    answer still alive, paid more faults than one that followed the other
    side.  So each side is warmed once, :func:`bench_utils.paired_ratios`
    frees a side's last answer before timing it again, and each armed
    answer is freed at the end of its round.
    """
    from repro.analysis import sanitized
    from repro.serving.locks import new_lock

    partition = _build_partition()
    server = PartitionServer(partition)
    engine_off = ServingEngine()
    engine_off.deploy("la", server)
    bounds = partition.grid.bounds
    rng = np.random.default_rng(31)
    size = 1_000_000
    xs = rng.uniform(bounds.min_x, bounds.max_x, size)
    ys = rng.uniform(bounds.min_y, bounds.max_y, size)

    measurements = {}

    def run() -> None:
        # Phase 1 — sanitizer off.  Timed before any arming so the class
        # instrumentation cannot contaminate the baseline.  One untimed
        # call per side first: the first calls fault in the heap their
        # temporaries reuse.
        server.locate_points(xs, ys)
        engine_off.locate_points("la", xs, ys)
        ratios, bests, answers = paired_ratios(
            lambda: server.locate_points(xs, ys),
            {"engine_off": lambda: engine_off.locate_points("la", xs, ys)},
            REPEATS,
            clock=time.thread_time,
        )
        assert np.array_equal(answers["baseline"], answers["engine_off"]), (
            "uninstrumented engine routing changed assignments"
        )
        raw_pair = _time_lock_pairs(new_lock("bench.raw"))

        # Phase 2 — unarmed and armed, paired per round.  Each round times
        # the unarmed engine and, inside the round's own sanitized() scope,
        # an engine rebuilt under the sanitizer (its locks are the
        # instrumented wrappers), back to back in alternating order, so a
        # burst of host load moves both sides of that round's ratio.  The
        # armed run must come out clean on top of being fast enough.
        factors = []
        sanitized_best = wrapped_pair = float("inf")
        for round_ in range(REPEATS):
            if round_ % 2 == 0:
                unarmed, _ = timed(
                    lambda: engine_off.locate_points("la", xs, ys), time.thread_time
                )
            with sanitized() as sink:
                engine_on = ServingEngine()
                engine_on.deploy("la", PartitionServer(partition))
                armed, sanitized_answer = timed(
                    lambda: engine_on.locate_points("la", xs, ys), time.thread_time
                )
                if round_ == 0:  # after this round's pair, not inside it
                    wrapped_pair = _time_lock_pairs(new_lock("bench.wrapped"))
            if round_ % 2 == 1:
                unarmed, _ = timed(
                    lambda: engine_off.locate_points("la", xs, ys), time.thread_time
                )
            report = sink.report()
            assert report.clean, "\n" + report.render_text()
            assert np.array_equal(answers["baseline"], sanitized_answer), (
                "sanitized engine routing changed assignments"
            )
            # Freed here, so the next round's pair runs beside the same
            # live arrays on both sides (see paired_ratios).
            del sanitized_answer
            factors.append(armed / unarmed)
            sanitized_best = min(sanitized_best, armed)

        measurements.update(
            direct=bests["baseline"],
            engine_off=bests["engine_off"],
            off_overhead=ratios["engine_off"] - 1.0,
            engine_sanitized=sanitized_best,
            dispatch_factor=float(np.median(factors)),
            raw_pair=raw_pair,
            wrapped_pair=wrapped_pair,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)

    off_overhead = measurements["off_overhead"]
    dispatch_factor = measurements["dispatch_factor"]
    pair_factor = measurements["wrapped_pair"] / measurements["raw_pair"]

    assert off_overhead <= MAX_OVERHEAD, (
        f"sanitizer-disabled dispatch costs {off_overhead * 100:.1f}% over a "
        f"direct server call at 10^6 points (budget {MAX_OVERHEAD * 100:.0f}%:"
        " the factory seam must stay out of the hot path)"
    )
    assert dispatch_factor <= MAX_SANITIZED_DISPATCH_FACTOR, (
        f"sanitized dispatch is {dispatch_factor:.2f}x the uninstrumented "
        f"engine at 10^6 points (budget {MAX_SANITIZED_DISPATCH_FACTOR}x: "
        "per-batch lock bookkeeping must amortise away)"
    )
    assert pair_factor <= MAX_LOCK_PAIR_FACTOR, (
        f"an instrumented acquire/release pair costs {pair_factor:.0f}x a "
        f"raw one (runaway bound {MAX_LOCK_PAIR_FACTOR:.0f}x)"
    )

    _SECTIONS["3_sanitizer"] = format_table(
        [
            {
                "points": size,
                "direct_ms": measurements["direct"] * 1000.0,
                "engine_off_ms": measurements["engine_off"] * 1000.0,
                "off_overhead_pct": off_overhead * 100.0,
                "engine_sanitized_ms": measurements["engine_sanitized"] * 1000.0,
                "sanitized_factor_x": dispatch_factor,
                "raw_lock_pair_ns": measurements["raw_pair"] * 1e9,
                "sanitized_lock_pair_ns": measurements["wrapped_pair"] * 1e9,
                "lock_pair_factor_x": pair_factor,
            }
        ],
        title="Runtime-sanitizer overhead — dispatch with the seam disabled "
        "vs a REPRO_SANITIZE-armed engine on the identical 10^6-point "
        "batch, plus the honest per-operation cost of an instrumented "
        f"acquire/release pair (thread CPU times best of {REPEATS}, "
        f"off_overhead and sanitized_factor_x the median of {REPEATS} paired "
        f"ratios; pairs best of 3 x {PAIR_OPS} wall)",
    )
    _flush_sections(output_dir)


#: Ceiling on concurrently-live batch-sized buffers (8 MB each at 10^6
#: points) during one engine dispatch, measured by tracemalloc peak.  The
#: audited path holds 3.125 on an all-on-map batch and 3.25 with off-map
#: points (one float temporary, the two int cell arrays, then the ids
#: and the result; the boolean masks add the fraction); one reintroduced
#: whole-batch copy — an ``astype`` without ``copy=False``, a defensive
#: ``.copy()``, a compress/scatter of the on-map points — adds a full
#: +1.0 and breaks this budget.
MAX_LIVE_BATCH_BUFFERS = 4.0

#: Ceiling on buffers still referenced after the call: the int64
#: assignment itself (1.0) plus slack for small bookkeeping.
MAX_RETAINED_BATCH_BUFFERS = 1.25

#: Share of points moved east of the map in the off-map batch, as in the
#: ``locate-bulk`` perfbench workload.
OFF_MAP_SHARE = 0.01


@pytest.mark.benchmark(group="serving")
def test_dispatch_allocation_budget(benchmark, output_dir):
    """One 10^6-point dispatch must stay within a fixed allocation budget.

    The wall-clock benchmarks above catch *slow*; this catches *fat*.
    tracemalloc traces every numpy buffer (numpy allocates through the
    Python memory hooks), so the peak traced memory over one
    ``engine.locate_points`` call, expressed in batch-sized buffers, is an
    exact count of how many whole-batch arrays the locate path keeps live
    at once — the number the hot-path-copy lint rule bounds statically.
    Measured on an all-on-map batch and on one with 1% off-map points,
    each through a monolithic and a 2x2 sharded deployment.
    """
    import gc
    import tracemalloc

    partition = _build_partition()
    engine = ServingEngine()
    engine.deploy("la", PartitionServer(partition))
    engine.deploy("la_2x2", partition, shards=(2, 2))
    bounds = partition.grid.bounds
    rng = np.random.default_rng(41)
    size = 1_000_000
    xs = rng.uniform(bounds.min_x, bounds.max_x, size)
    ys = rng.uniform(bounds.min_y, bounds.max_y, size)
    off_xs = xs.copy()
    n_off = int(size * OFF_MAP_SHARE)
    off_xs[rng.choice(size, n_off, replace=False)] = (
        bounds.max_x + bounds.width * rng.uniform(0.01, 0.5, n_off)
    )
    batches = {"on_map": xs, "off_map_1pct": off_xs}
    batch_bytes = size * 8.0

    measurements = {}

    def run() -> None:
        for name in ("la", "la_2x2"):
            for batch, batch_xs in batches.items():
                engine.locate_points(name, batch_xs, ys)  # warm caches and lazy imports
                gc.collect()
                tracemalloc.start()
                try:
                    baseline, _ = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    assignment = engine.locate_points(name, batch_xs, ys)
                    current, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert assignment.size == size
                measurements[(name, batch)] = (
                    (peak - baseline) / batch_bytes,
                    (current - baseline) / batch_bytes,
                )
                del assignment

    benchmark.pedantic(run, rounds=1, iterations=1)

    for (name, batch), (live, retained) in measurements.items():
        assert live <= MAX_LIVE_BATCH_BUFFERS, (
            f"{name} dispatch of the {batch} batch held {live:.2f} "
            f"batch-sized buffers live at peak (budget "
            f"{MAX_LIVE_BATCH_BUFFERS}); a whole-batch copy crept back into "
            "the locate path"
        )
        assert retained <= MAX_RETAINED_BATCH_BUFFERS, (
            f"{name} dispatch of the {batch} batch retained {retained:.2f} "
            f"batch-sized buffers after returning (budget "
            f"{MAX_RETAINED_BATCH_BUFFERS}); something beyond the assignment "
            "survived the call"
        )

    _SECTIONS["4_alloc"] = format_table(
        [
            {
                "deployment": name,
                "batch": batch,
                "points": size,
                "batch_buffer_mb": batch_bytes / 1e6,
                "peak_live_buffers": live,
                "live_budget": MAX_LIVE_BATCH_BUFFERS,
                "retained_buffers": retained,
                "retained_budget": MAX_RETAINED_BATCH_BUFFERS,
            }
            for (name, batch), (live, retained) in measurements.items()
        ],
        title="Dispatch allocation budget — tracemalloc peak over one "
        "10^6-point engine dispatch, in batch-sized (8 MB) buffers, on-map "
        "and with 1% off-map points, monolithic and 2x2 sharded; the "
        "budget pins the audited copy-free locate path",
    )
    _flush_sections(output_dir)
