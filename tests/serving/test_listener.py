"""The accept loop under file-descriptor exhaustion.

An accept that fails with ``EMFILE`` leaves the connection in the
backlog, so an accept loop that retries at once spins a CPU until a
descriptor frees.  The child process below lowers its own
``RLIMIT_NOFILE`` to a few dozen and fills it with ``os.dup`` (no
sockets), the parent connects one client, and the child reports the CPU
time its process spent over a one-second exhausted window before it
frees the descriptors.  A stand-in socket whose accepts all fail checks
that :meth:`Listener.close` ends the pause at once.
"""

import errno
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.serving import listener as listener_module
from repro.serving.listener import Listener

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = textwrap.dedent("""
    import os, resource, sys, time
    from repro.serving.listener import Listener

    def handle(conn, addr):
        conn.sendall(b"served")

    listener = Listener("127.0.0.1", 0, "exhausted")
    listener.serve_background(handle)
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (48, hard))
    held = []
    try:
        while True:
            held.append(os.dup(0))
    except OSError:
        pass
    print(listener.address[1], len(held), flush=True)
    sys.stdin.readline()  # the parent has connected
    start = time.process_time()
    time.sleep(1.0)
    print(time.process_time() - start, flush=True)
    for fd in held:
        os.close(fd)
    sys.stdin.readline()  # the parent has read its answer
    listener.close()
""")


def test_accept_loop_waits_while_descriptors_run_out():
    pytest.importorskip("resource")
    with subprocess.Popen(
        [sys.executable, "-c", CHILD],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ) as child:
        # A child that hangs is killed, so every read below sees EOF.
        watchdog = threading.Timer(60.0, child.kill)
        watchdog.start()
        try:
            port, n_held = map(int, child.stdout.readline().split())
            assert n_held > 0
            with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
                child.stdin.write("connected\n")
                child.stdin.flush()
                cpu_seconds = float(child.stdout.readline())
                # Spinning on EMFILE burns about the whole second.
                assert cpu_seconds < 0.1
                # Once descriptors free, the queued connection is served.
                assert client.recv(16) == b"served"
            child.stdin.write("done\n")
            child.stdin.flush()
            assert child.wait(timeout=10) == 0
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()


class _OutOfDescriptors:
    """A listening socket whose every accept fails with ``EMFILE``."""

    def __init__(self):
        self.accepts = 0
        self.first_accept = threading.Event()

    def accept(self):
        self.accepts += 1
        self.first_accept.set()
        raise OSError(errno.EMFILE, "Too many open files")

    def shutdown(self, how):
        pass

    def close(self):
        pass


def test_close_cuts_the_retry_pause_short(monkeypatch):
    monkeypatch.setattr(listener_module, "ACCEPT_RETRY_DELAY", 60.0)
    listener = Listener("127.0.0.1", 0, "exhausted")
    listener._sock.close()
    listener._sock = fake = _OutOfDescriptors()
    listener.serve_background(lambda conn, addr: None)
    assert fake.first_accept.wait(5.0)
    started = time.monotonic()
    listener.close()
    assert time.monotonic() - started < 1.0
    assert fake.accepts == 1
