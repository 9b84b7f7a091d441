"""One TCP listener for every server: bind, the accept loop, close.

The HTTP front (:class:`~repro.serving.http.ServingHTTPServer`), the
in-process :class:`~repro.serving.wire.WireServer` and each forked worker
of :class:`~repro.serving.workers.WorkerPool` take connections the same
way.  A :class:`Listener` binds the socket; :meth:`Listener.accept_loop`
serves each accepted connection on its own daemon thread through a
per-connection callable ``handle(conn, addr)``; :meth:`Listener.close`
shuts the listener, waits for the loop to return, then shuts down every
connection still open, so no handler thread outlives its server blocked
in a read.

A connection ends the way the stdlib's ``socketserver`` ends one:
``shutdown(SHUT_WR)``, then ``close``, so an answer written just before
(a refusal sent while the request body sits unread) reaches the peer
ahead of the FIN rather than being cut off by a reset.

An accept that fails for want of a file descriptor leaves the connection
in the backlog, so retrying at once would spin a CPU until a descriptor
frees; the loop waits :data:`ACCEPT_RETRY_DELAY` first, as asyncio's
accept loop does.
"""

from __future__ import annotations

import errno
import logging
import socket
import threading
from typing import Any, Callable, Optional, Set, Tuple

from ..exceptions import ServingError
from .locks import new_lock

__all__ = ["Listener"]

logger = logging.getLogger(__name__)

#: Seconds the accept loop waits before retrying an accept that failed
#: because the process or the system ran out of file descriptors.
ACCEPT_RETRY_DELAY = 0.1

_OUT_OF_DESCRIPTORS = (errno.EMFILE, errno.ENFILE)


class Listener:
    """A bound, listening TCP socket and the one accept loop over it.

    ``port=0`` picks an ephemeral port; read :attr:`address` back.
    ``name`` names the threads: ``<name>-accept`` for the loop under
    :meth:`serve_background`, ``<name>-conn`` for each connection.
    """

    def __init__(self, host: str, port: int, name: str) -> None:
        self._sock = socket.create_server((host, port), backlog=128)
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._closed = threading.Event()
        self._lock = new_lock("listener.connections")
        self._live: Set[socket.socket] = set()  # guarded-by: self._lock

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the socket is bound to."""
        return self._sock.getsockname()[:2]

    def accept_loop(self, handle: Callable[[socket.socket, Any], None]) -> None:
        """Accept until the listener is shut; each connection on its own thread.

        Runs on the calling thread (a forked worker's main thread) or
        under :meth:`serve_background`.  Each connection sits in the live
        set from its accept until its socket is closed, so :meth:`close`,
        having waited for this loop to return, finds there every
        connection it still has to drop.
        """
        while True:
            try:
                conn, addr = self._sock.accept()
            except OSError as exc:
                if exc.errno in (errno.EBADF, errno.EINVAL):
                    return  # the listener was shut down or closed
                # A failed accept (the peer gave up, no descriptor left)
                # costs that one connection, not the service.
                logger.debug("accept failed on %s: %s", self._name, exc)
                if exc.errno in _OUT_OF_DESCRIPTORS and self._closed.wait(
                        ACCEPT_RETRY_DELAY):
                    return  # closed during the pause
                continue
            with self._lock:
                self._live.add(conn)
            threading.Thread(
                target=self._serve, args=(handle, conn, addr),
                name=f"{self._name}-conn", daemon=True,
            ).start()

    def _serve(
        self, handle: Callable[[socket.socket, Any], None],
        conn: socket.socket, addr: Any,
    ) -> None:
        try:
            handle(conn, addr)
        except OSError:
            # The peer reset, or the read timed out, mid-exchange: there
            # is no one left to answer.
            logger.debug("connection from %s ended abruptly", addr, exc_info=True)
        finally:
            with self._lock:
                self._live.discard(conn)
            try:
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            conn.close()

    def serve_background(self, handle: Callable[[socket.socket, Any], None]) -> None:
        """Run :meth:`accept_loop` on a daemon thread and return."""
        if self._thread is not None:
            raise ServingError(f"{self._name} server is already running")
        self._thread = threading.Thread(
            target=self.accept_loop, args=(handle,),
            name=f"{self._name}-accept", daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        """Stop accepting, then drop every live connection.  Idempotent."""
        self._closed.set()
        try:
            # shutdown() wakes an accept() blocked in another thread;
            # close() alone leaves it blocked until the join timeout.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            live = list(self._live)
        for conn in live:
            try:
                # Wakes the connection's thread out of its blocked read;
                # that thread then closes the socket.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
