"""Synchronisation primitives shared by the serving layer.

:class:`ReadWriteLock` started life inside :mod:`repro.serving.engine`
(PR 5's concurrent engine); it moved here when
:mod:`repro.serving.sharding` grew per-tile hot-swap and needed the same
primitive — the engine imports sharding, so the lock had to live below
both.  ``repro.serving.ReadWriteLock`` remains the public name.

This module is also the instrumentation seam of the runtime concurrency
sanitizer (:mod:`repro.analysis.sanitizer`).  Serving code constructs its
locks through the ``new_lock`` / ``new_rlock`` / ``new_condition`` /
``new_rwlock`` factories below instead of calling :mod:`threading`
directly.  With the sanitizer disarmed (the default) each factory returns
the raw primitive — the only cost is one ``is None`` check *at
construction time*, so the query hot path is byte-for-byte what it was
before the seam existed.  When the sanitizer arms (``REPRO_SANITIZE=1``
or programmatically) it installs a factory via :func:`set_lock_factory`
and every subsequently-built lock is a recording wrapper.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = [
    "ReadWriteLock",
    "new_condition",
    "new_lock",
    "new_rlock",
    "new_rwlock",
    "set_lock_factory",
]

#: When armed, a callable ``factory(kind, label)`` with ``kind`` one of
#: ``"lock"``, ``"rlock"``, ``"condition"``, ``"rwlock"``; ``None`` means
#: the factories below return raw primitives.
_LOCK_FACTORY: Optional[Callable[[str, str], object]] = None


def set_lock_factory(factory: Optional[Callable[[str, str], object]]) -> None:
    """Install (or, with ``None``, remove) the sanitizer's lock factory.

    Called by :mod:`repro.analysis.sanitizer` on arm/disarm; nothing else
    should touch this.  Locks built while a factory was installed keep
    their wrapper after removal — they simply stop recording.
    """

    global _LOCK_FACTORY
    _LOCK_FACTORY = factory


def new_lock(label: str) -> object:
    """A ``threading.Lock`` (or its sanitizer wrapper when armed)."""

    if _LOCK_FACTORY is None:
        return threading.Lock()
    return _LOCK_FACTORY("lock", label)


def new_rlock(label: str) -> object:
    """A ``threading.RLock`` (or its sanitizer wrapper when armed)."""

    if _LOCK_FACTORY is None:
        return threading.RLock()
    return _LOCK_FACTORY("rlock", label)


def new_condition(label: str) -> object:
    """A ``threading.Condition`` (or its sanitizer wrapper when armed)."""

    if _LOCK_FACTORY is None:
        return threading.Condition()
    return _LOCK_FACTORY("condition", label)


def new_rwlock(label: str) -> "ReadWriteLock":
    """A :class:`ReadWriteLock` (or its sanitizer subclass when armed)."""

    if _LOCK_FACTORY is None:
        return ReadWriteLock()
    lock = _LOCK_FACTORY("rwlock", label)
    assert isinstance(lock, ReadWriteLock)
    return lock


class ReadWriteLock:
    """A writer-preferring read/write lock for the serving hot path.

    Many reader threads may hold the lock at once; a writer holds it
    exclusively.  Waiting writers block *new* readers, so a stream of
    queries cannot starve a hot-swap — the swap waits only for the readers
    already inside.  Both sides are context managers::

        with lock.read():   # shared
            ...
        with lock.write():  # exclusive
            ...

    The implementation is one condition variable and three counters, which
    keeps the uncontended read acquire (the per-query cost) at two lock
    round-trips.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # guarded-by: self._cond
        self._writers_waiting = 0  # guarded-by: self._cond
        self._writer_active = False  # guarded-by: self._cond

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                # Mirror threading.Lock.release: misuse is a programming
                # error and must not wedge future writers by driving the
                # reader count negative.
                raise RuntimeError(  # repro: ignore[exception-discipline] -- lock-misuse programming error, deliberately a builtin like threading.Lock.release
                    "release_read() on a ReadWriteLock not held for reading"
                )
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError(  # repro: ignore[exception-discipline] -- lock-misuse programming error, deliberately a builtin like threading.Lock.release
                    "release_write() on a ReadWriteLock not held for writing"
                )
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
