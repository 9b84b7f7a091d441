"""Multiprocess wire workers sharing read-only label grids, zero-copy.

The GIL caps the threaded servers at one core of numpy dispatch.  This
module is the way past it: ``repro serve --workers N`` forks ``N``
worker processes that all ``accept()`` on **one inherited listening
socket** (the kernel load-balances connections across blocked
acceptors — the classic pre-fork design) and answer the wire protocol of
:mod:`repro.serving.wire` from **shared memory**:

* the parent copies each deployment's dense label grid *once* into a
  ``multiprocessing.shared_memory`` segment at publish time, padded by
  :func:`~repro.serving.backends.pad_labels` (a copy of the last row and
  column, then a ``-1`` row and column) so a worker answers a batch with
  the same single flat ``take`` as the in-process dense server;
* workers attach read-only views — the fork after export means the
  mapping is inherited, and a respawned worker re-attaches by name;
* a hot-swap publishes a **new** segment and a version bump over each
  worker's control pipe; workers remap by reference assignment (their
  in-flight requests finish on the old mapping), acknowledge, and the
  parent unlinks the replaced segment.  Nothing in the swap path copies
  label data into a worker — remap and bump, as the shared-readers /
  rare-writers discipline demands.

The division of labour with the HTTP plane: workers serve the read path
(dense locate, range, introspection) from immutable snapshots; **all
mutations stay HTTP-admin**, where the engine lives, and flow back here
through :meth:`WorkerPool.publish` (the HTTP server's mutation hook).
Workers therefore never lock against writers at all — the swap/unlink
discipline above is the whole synchronisation story.

Crash containment: a worker that dies (segfault, OOM-kill, ``kill -9``)
takes only its in-flight connections with it; the parent's monitor
thread checks every worker at least every 0.2 s (a death wakes it at
once, over the process sentinel) and forks a replacement attached to
the current segments.  Clients see a reset
connection, and :class:`~repro.serving.client.ServingClient` redials —
the kernel hands the new connection to a live worker.

Platform note: the pool requires the ``fork`` start method (Linux).  On
platforms without it, constructing a :class:`WorkerPool` raises a typed
:class:`~repro.exceptions.ConfigurationError`; the in-process
:class:`~repro.serving.wire.WireServer` serves the same protocol there.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import socket
import threading
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError, ReproError, ServingError
from ..spatial.geometry import BoundingBox
from ..spatial.grid import Grid
from ..spatial.region import GridRegion
from .backends import pad_labels, padded_shape, range_regions, read_padded
from .locks import new_lock
from .protocol import LATEST, LocateRequest, QueryResult, RangeRequest
from .wire import serve_connection

__all__ = ["WorkerPool", "WorkerState", "fork_available"]

logger = logging.getLogger(__name__)

#: How long :meth:`WorkerPool.publish` waits for each worker to
#: acknowledge a swap before deferring the old segment's unlink.
ACK_TIMEOUT = 5.0

#: Shortest time between two respawn passes of the pool's monitor, in
#: seconds.
RESPAWN_PAUSE = 0.05

#: Backend name workers report: the shared dense label grid.
WORKER_BACKEND = "shared-dense"


def fork_available() -> bool:
    """Whether this platform can fork workers (Linux/macOS, not Windows)."""
    return "fork" in multiprocessing.get_all_start_methods()


# -- worker-side state --------------------------------------------------------


class _WorkerDeployment:
    """One deployment's immutable worker snapshot: geometry + shared labels.

    Everything a worker needs to answer the read path bit-exactly
    against the in-process engine: the :class:`Grid` (reconstructed from
    geometry — pure arithmetic, no arrays), the shared padded label grid
    (a read-only :func:`~repro.serving.backends.padded_shape` view over
    the segment), and the region extent boxes for range queries.  The
    ``shm`` handle is kept referenced so the mapping outlives every
    in-flight request that reads through it.
    """

    __slots__ = (
        "name", "version", "grid", "labels", "covered", "region_bounds",
        "n_regions", "shm", "source",
    )

    def __init__(self, export: Dict[str, Any]) -> None:
        self.name = export["name"]
        self.version = int(export["version"])
        bounds = export["bounds"]
        self.grid = Grid(
            int(export["rows"]),
            int(export["cols"]),
            BoundingBox(
                float(bounds[0]), float(bounds[1]),
                float(bounds[2]), float(bounds[3]),
            ),
        )
        self.shm = shared_memory.SharedMemory(name=export["segment"])
        labels = np.ndarray(
            padded_shape(self.grid.rows, self.grid.cols), dtype=np.int64,
            buffer=self.shm.buf,
        )
        labels.flags.writeable = False  # readers, by contract
        self.labels = labels
        self.covered = bool((labels[:self.grid.rows, :self.grid.cols] >= 0).all())
        extents = np.asarray(export["extents"], dtype=np.int64)
        self.region_bounds = tuple(
            GridRegion(
                self.grid, int(r0), int(r1), int(c0), int(c1)
            ).bounds
            for r0, r1, c0, c1 in extents
        )
        self.n_regions = len(self.region_bounds)
        self.source = export.get("source")


class WorkerState:
    """A worker process's read-only engine: shared snapshots, no writers.

    Implements the engine surface :func:`~repro.serving.wire.serve_connection`
    dispatches to (``locate_batch`` / ``locate`` / ``range_query`` /
    ``stats`` / ``deployments`` / ``__len__``) over
    :class:`_WorkerDeployment` snapshots.  Swaps replace a snapshot by
    single reference assignment — in-flight requests keep the object they
    already read, so they finish on a whole version, never a mix.  The
    replaced snapshot is retired to ``previous`` (so a client that pinned
    the prior version mid-batch survives one overlapping swap) and
    dropped on the next; queries for any other version answer a typed
    error naming the HTTP transport, which holds full history.
    """

    def __init__(self, strict_default: bool = False) -> None:
        self._strict_default = bool(strict_default)
        # name -> (current, previous-or-None); replaced atomically as a pair.
        self._deployments: Dict[
            str, Tuple[_WorkerDeployment, Optional[_WorkerDeployment]]
        ] = {}
        self._counter_lock = new_lock("workers.state.counters")
        self._queries = 0  # guarded-by: self._counter_lock
        self._points = 0  # guarded-by: self._counter_lock
        self._located = 0  # guarded-by: self._counter_lock

    # -- publication ----------------------------------------------------------

    def apply_exports(
        self,
        exports: Sequence[Dict[str, Any]],
        removed: Sequence[str] = (),
    ) -> None:
        """Attach ``exports`` (new/changed deployments) and drop ``removed``.

        Called from the control-pipe thread; each deployment's
        ``(current, previous)`` pair moves by one dict assignment, which
        is atomic under the GIL — request threads see the old pair or the
        new one, never a torn mix.
        """
        for export in exports:
            entry = _WorkerDeployment(export)
            held = self._deployments.get(entry.name)
            previous = held[0] if held is not None else None
            if previous is not None and previous.version == entry.version:
                # Same version republished (e.g. a shard swap): the labels
                # changed but the version did not, so the old snapshot
                # must not stay reachable as "previous" — a pin would
                # resolve to stale labels.
                previous = held[1] if held is not None else None
            self._deployments[entry.name] = (entry, previous)
        for name in removed:
            self._deployments.pop(name, None)

    # -- engine surface --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._deployments)

    def _resolve(
        self, name: str, version: Optional[Union[int, str]]
    ) -> _WorkerDeployment:
        held = self._deployments.get(name)
        if held is None:
            raise ServingError(
                f"unknown deployment {name!r}; "
                f"known: {sorted(self._deployments)}"
            )
        current, previous = held
        if version is None:
            return current
        if version == LATEST:
            # Workers only hold the active snapshot; after a rollback the
            # engine's "latest" can differ, and answering with the active
            # one would be silently wrong.
            raise ServingError(
                "the 'latest' version alias is not resolvable on a worker "
                "(workers hold only the active snapshot); query the HTTP "
                "transport, which holds full version history"
            )
        if version == current.version:
            return current
        if previous is not None and version == previous.version:
            return previous
        raise ServingError(
            f"version {version} of deployment {name!r} is not resident in "
            f"this worker (resident: {current.version}"
            + (f", {previous.version}" if previous is not None else "")
            + "); query the HTTP transport, which holds full version history"
        )

    def locate_batch(
        self,
        name: str,
        xs: np.ndarray,
        ys: np.ndarray,
        strict: Optional[bool] = None,
        version: Optional[Union[int, str]] = None,
    ) -> Tuple[int, np.ndarray]:
        """Array-native batch locate against the shared label grid.

        The in-process dense read path over shared memory —
        ``Grid.locate_padded``'s flat ids, then one ``take`` from the
        raveled padded grid (off-map id ``-1`` reads the ``-1`` corner),
        by :func:`~repro.serving.backends.read_padded` — so it is
        bit-identical to
        :meth:`~repro.serving.server.PartitionServer.locate_points` with
        the dense backend (the oracle the worker tests pin against).
        """
        # returns: int64[n]
        entry = self._resolve(name, version)
        strict = self._strict_default if strict is None else strict
        assignment, located = read_padded(
            entry.grid, entry.labels.ravel(), entry.covered, xs, ys, strict
        )
        with self._counter_lock:
            self._queries += 1
            self._points += int(assignment.size)
            self._located += located
        return entry.version, assignment

    def locate(self, request: LocateRequest) -> QueryResult:
        """Typed locate (the wire control plane's list form)."""
        version, assignment = self.locate_batch(
            request.deployment,
            request.xs,
            request.ys,
            strict=request.strict,
            version=request.version,
        )
        return QueryResult(
            deployment=request.deployment,
            version=version,
            kind="locate",
            regions=tuple(assignment.tolist()),  # repro: ignore[hot-path-copy] -- QueryResult is the typed protocol boundary; regions leave numpy here by design
        )

    def range_query(self, request: RangeRequest) -> QueryResult:
        """Regions intersecting the request box, off the shared labels.

        The same :func:`~repro.serving.backends.range_regions` as
        :meth:`~repro.serving.server.PartitionServer.range_query`, over
        the snapshot's extent table.
        """
        entry = self._resolve(request.deployment, request.version)
        regions = range_regions(
            entry.grid, entry.labels, entry.region_bounds, request.bounds
        )
        with self._counter_lock:
            self._queries += 1
        return QueryResult(
            deployment=request.deployment,
            version=entry.version,
            kind="range",
            regions=tuple(regions),
        )

    def deployments(self) -> List[Dict[str, Any]]:
        """One summary row per resident deployment (worker perspective)."""
        rows = []
        for name in sorted(self._deployments):
            current, _ = self._deployments[name]
            rows.append(
                {
                    "name": name,
                    "version": current.version,
                    "active": True,
                    "latest": None,  # unknown to a worker; HTTP knows
                    "source": current.source,
                    "shards": None,
                    "n_regions": current.n_regions,
                    "backend": WORKER_BACKEND,
                }
            )
        return rows

    @property
    def stats(self) -> Dict[str, Any]:
        """This worker's counters (per-process, not pool-aggregated)."""
        with self._counter_lock:
            queries, points, located = self._queries, self._points, self._located
        return {
            "queries": queries,
            "points": points,
            "located": located,
            "worker_pid": os.getpid(),
            "deployments": {
                name: {"version": held[0].version}
                for name, held in sorted(self._deployments.items())
            },
        }


# -- the worker process entry -------------------------------------------------


def _control_loop(
    control: "multiprocessing.connection.Connection", state: WorkerState
) -> None:
    """Apply parent messages (swap/shutdown) until the pipe dies."""
    while True:
        try:
            message = control.recv()
        except (EOFError, OSError):
            # Parent is gone; a worker without a parent must not linger.
            os._exit(0)
        op = message.get("op")
        if op == "swap":
            try:
                state.apply_exports(
                    message.get("exports", ()), message.get("removed", ())
                )
                control.send({"op": "swap", "ok": True})
            except Exception as exc:  # repro: ignore[exception-discipline] -- the ack must carry any attach failure back to the parent, whatever its type
                logger.exception("worker failed to apply a swap")
                control.send({"op": "swap", "ok": False, "error": str(exc)})
        elif op == "shutdown":
            os._exit(0)
        else:
            control.send({"op": op, "ok": False, "error": f"unknown op {op!r}"})


def _worker_main(
    listener: socket.socket,
    control: "multiprocessing.connection.Connection",
    parent_end: "multiprocessing.connection.Connection",
    exports: List[Dict[str, Any]],
    strict_default: bool,
    codecs: Tuple[str, ...],
    worker_index: int,
) -> None:
    """A forked worker: attach shared state, then accept-and-serve forever."""
    try:
        parent_end.close()  # our inherited copy of the parent's pipe end
    except OSError:  # pragma: no cover - close is best-effort
        pass
    state = WorkerState(strict_default)
    state.apply_exports(exports)
    threading.Thread(
        target=_control_loop, args=(control, state),
        name="repro-worker-control", daemon=True,
    ).start()
    info = {"mode": "worker", "worker": worker_index, "pid": os.getpid()}
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            os._exit(0)  # listener closed under us: the pool is shutting down
        threading.Thread(
            target=_serve_one, args=(conn, state, codecs, info),
            name="repro-worker-conn", daemon=True,
        ).start()


def _serve_one(
    conn: socket.socket,
    state: WorkerState,
    codecs: Tuple[str, ...],
    info: Dict[str, Any],
) -> None:
    try:
        serve_connection(conn, state, codecs, info)
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


# -- parent side --------------------------------------------------------------


class _Export:
    """Parent-side record of one published deployment segment."""

    __slots__ = ("descriptor", "segment", "stamp")

    def __init__(self, descriptor: Dict[str, Any],
                 segment: shared_memory.SharedMemory, stamp: Tuple) -> None:
        self.descriptor = descriptor
        self.segment = segment
        self.stamp = stamp


def _publish_stamp(version: int, server: Any) -> Tuple:
    """Change-detection stamp: version plus per-tile versions when sharded.

    A plain deploy/rollback moves ``version``; a shard swap/rollback can
    leave the deployment version alone while changing a tile's labels,
    which ``shard_versions`` exposes.  Equal stamps mean the published
    labels are current and the segment is reused untouched.
    """
    shard_versions = getattr(server, "shard_versions", None)
    if callable(shard_versions):
        return (version, tuple(tuple(row) for row in shard_versions()))
    return (version, None)


def _export_labels(server: Any) -> np.ndarray:
    """The effective dense label grid of any server type, publish-time."""
    compose = getattr(server, "compose_labels", None)
    if callable(compose):  # sharded: apply tile swaps
        return compose()
    return server.partition.label_grid


class WorkerPool:
    """Parent acceptor + ``N`` forked wire workers over shared segments.

    Construction binds the listening socket and snapshots nothing;
    :meth:`start` exports the engine's active deployments into shared
    memory and forks the workers.  :meth:`publish` is the mutation hook
    the HTTP admin plane calls after every successful deploy / rollback /
    shard swap: it re-exports what changed, swaps workers over their
    control pipes, and unlinks replaced segments once every worker
    acknowledged (deferring the unlink when one does not answer in
    :data:`ACK_TIMEOUT`, so a slow worker can never be left reading an
    unlinked-and-reused name).

    The pool serves connections only in its children — the parent never
    accepts.  A monitor thread respawns workers that die; :meth:`close`
    shuts the pool down (shutdown message, then terminate stragglers)
    and unlinks every segment.
    """

    def __init__(
        self,
        engine: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        codecs: Sequence[str] = ("binary", "json+b64"),
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if not fork_available():
            raise ConfigurationError(
                "multiprocess workers need the 'fork' start method, which "
                "this platform lacks; use the in-process wire server "
                "(--workers 0) instead"
            )
        self.engine = engine
        self.workers = int(workers)
        self.codecs = tuple(codecs)
        self._ctx = multiprocessing.get_context("fork")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._lock = new_lock("workers.pool")
        self._exports: Dict[str, _Export] = {}  # guarded-by: self._lock
        self._retired: List[shared_memory.SharedMemory] = []  # guarded-by: self._lock
        self._children: List[Tuple[Any, Any]] = []  # guarded-by: self._lock
        self._closing = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._started = False

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Export the engine's active deployments and fork the workers."""
        if self._started:
            raise ServingError("worker pool is already started")
        self._started = True
        with self._lock:
            self._refresh_exports_locked()
            for index in range(self.workers):
                self._children.append(self._spawn_locked(index))
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-worker-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn_locked(self, index: int) -> Tuple[Any, Any]:
        """Fork one worker over the current exports (caller holds the lock)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        exports = [export.descriptor for export in self._exports.values()]  # repro: ignore[lock-guarded-attrs] -- caller holds self._lock (the _locked suffix is that contract)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._listener,
                child_conn,
                parent_conn,
                exports,
                bool(self.engine.config.strict),
                self.codecs,
                index,
            ),
            name=f"repro-wire-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child's end lives in the child now
        return process, parent_conn

    def _monitor_loop(self) -> None:
        """Respawn workers that die until the pool is closing.

        Every pass checks *every* worker, then sleeps on their sentinels
        until one dies or 0.2 s pass.  The sentinel wait only shortens
        the sleep: a worker that died while the monitor was not waiting
        on it (between two waits, or before the first) is found by the
        next pass's check all the same.  A pass that respawned pauses
        :data:`RESPAWN_PAUSE` first, so a worker that dies at once cannot
        turn the loop into a fork loop.
        """
        while True:
            respawned = False
            with self._lock:
                if self._closing.is_set():
                    return
                for index, (process, conn) in enumerate(self._children):
                    if process.is_alive():
                        continue
                    logger.warning(
                        "wire worker %d (pid %s) died with exit code %s; "
                        "respawning",
                        index, process.pid, process.exitcode,
                    )
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - close is best-effort
                        pass
                    self._children[index] = self._spawn_locked(index)
                    respawned = True
                sentinels = [process.sentinel for process, _ in self._children]
            if respawned and self._closing.wait(RESPAWN_PAUSE):
                return
            multiprocessing.connection.wait(sentinels, timeout=0.2)

    def publish(self) -> None:
        """Push the engine's current deployments to every worker.

        The HTTP server's mutation hook.  Creates fresh segments for
        deployments whose publish stamp moved, swaps all workers, waits
        for acknowledgements, and unlinks the replaced segments (or
        defers them to :meth:`close` when a worker failed to answer).
        """
        if not self._started:
            raise ServingError("worker pool is not started")
        with self._lock:
            replaced = self._refresh_exports_locked()
            if not replaced["exports"] and not replaced["removed"]:
                return
            message = {
                "op": "swap",
                "exports": replaced["exports"],
                "removed": replaced["removed"],
            }
            acked = True
            for process, conn in self._children:
                if not process.is_alive():
                    continue  # the monitor will respawn it on current exports
                try:
                    conn.send(message)
                    if conn.poll(ACK_TIMEOUT):
                        answer = conn.recv()  # repro: ignore[blocking-under-lock] -- bounded by the poll() above; the lock must span the whole swap so a respawn cannot fork mid-broadcast with half-applied exports
                        if not answer.get("ok"):
                            logger.warning(
                                "worker pid %s rejected a swap: %s",
                                process.pid, answer.get("error"),
                            )
                            acked = False
                    else:
                        logger.warning(
                            "worker pid %s did not acknowledge a swap within "
                            "%.1fs; deferring segment unlink",
                            process.pid, ACK_TIMEOUT,
                        )
                        acked = False
                except (OSError, EOFError, BrokenPipeError):
                    acked = False  # dying worker; monitor handles it
            old_segments = replaced["old_segments"]
            if acked:
                for segment in old_segments:
                    self._unlink(segment)
            else:
                self._retired.extend(old_segments)

    def _refresh_exports_locked(self) -> Dict[str, Any]:
        """Re-export changed deployments; the swap message pieces.

        Caller holds the pool lock.  Returns the changed descriptors,
        removed names, and the segments they replaced (not yet unlinked).
        """
        current: Dict[str, Tuple[int, Any, Any]] = {}
        for row in self.engine.deployments():
            name = row["name"]
            try:
                version, server = self.engine.active_snapshot(name)
            except ReproError as exc:
                # A broken bundle must not wedge publication for the healthy
                # deployments; it stays on whatever the workers already hold.
                logger.warning(
                    "skipping deployment %r in worker publish: %s", name, exc
                )
                if name in self._exports:  # repro: ignore[lock-guarded-attrs] -- caller holds self._lock (the _locked suffix is that contract)
                    current[name] = (None, None, None)
                continue
            current[name] = (version, server, row.get("source"))
        changed: List[Dict[str, Any]] = []
        old_segments: List[shared_memory.SharedMemory] = []
        for name, (version, server, source) in current.items():
            if server is None:
                continue  # broken bundle kept resident on its old segment
            stamp = _publish_stamp(version, server)
            export = self._exports.get(name)  # repro: ignore[lock-guarded-attrs] -- caller holds self._lock (the _locked suffix is that contract)
            if export is not None and export.stamp == stamp:
                continue
            partition = server.partition
            grid = partition.grid
            shape = padded_shape(grid.rows, grid.cols)
            segment = shared_memory.SharedMemory(
                create=True, size=shape[0] * shape[1] * 8
            )
            view = np.ndarray(shape, dtype=np.int64, buffer=segment.buf)
            # The one copy, parent-side, publish-time.
            pad_labels(_export_labels(server), out=view)
            extents = np.array(
                [
                    (
                        region.row_start, region.row_stop,
                        region.col_start, region.col_stop,
                    )
                    for region in partition.regions
                ],
                dtype=np.int64,
            )
            descriptor = {
                "name": name,
                "version": version,
                "segment": segment.name,
                "rows": grid.rows,
                "cols": grid.cols,
                "bounds": [
                    grid.bounds.min_x, grid.bounds.min_y,
                    grid.bounds.max_x, grid.bounds.max_y,
                ],
                "extents": extents,
                "source": source,
            }
            if export is not None:
                old_segments.append(export.segment)
            self._exports[name] = _Export(descriptor, segment, stamp)  # repro: ignore[lock-guarded-attrs] -- caller holds self._lock (the _locked suffix is that contract)
            changed.append(descriptor)
        removed = [name for name in self._exports if name not in current]  # repro: ignore[lock-guarded-attrs] -- caller holds self._lock (the _locked suffix is that contract)
        for name in removed:
            old_segments.append(self._exports.pop(name).segment)  # repro: ignore[lock-guarded-attrs] -- caller holds self._lock (the _locked suffix is that contract)
        return {
            "exports": changed,
            "removed": removed,
            "old_segments": old_segments,
        }

    @staticmethod
    def _unlink(segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - best-effort
            pass

    def close(self) -> None:
        """Shut workers down and unlink every shared segment."""
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            children, self._children = self._children, []
        for process, conn in children:
            try:
                conn.send({"op": "shutdown"})
            except (OSError, BrokenPipeError):
                pass
        for process, conn in children:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        with self._lock:
            exports = list(self._exports.values())
            self._exports.clear()
            retired, self._retired = self._retired, []
        for export in exports:
            self._unlink(export.segment)
        for segment in retired:
            self._unlink(segment)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool({self.host}:{self.port}, workers={self.workers}, "
            f"exports={sorted(self._exports)})"  # repro: ignore[lock-guarded-attrs] -- debugging repr; a racy key listing is acceptable
        )
