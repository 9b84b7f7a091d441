"""Span tracing from the benchmark's side of each layer boundary.

Nothing inside ``src/`` is instrumented.  A traced run rebinds the public
functions of each layer at the site where they are called (a class
attribute for methods, the importing module's global for functions pulled
in by name) and restores them afterwards.  Every span records its
inclusive duration, its self time (duration minus the traced spans it
caused on the same thread) and a call count, all kept in memory.

A span whose layer is already open on the same thread is not re-opened,
so ``FeaturePipeline.fit_transform`` calling ``transform`` counts once.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple


class Tracer:
    """In-memory span and counter store shared by every thread of a run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per outermost call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    self.busy[name] += duration
                    self.self_time[name] += duration - frame[1]
                    self.calls[name] += 1

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Trace ``owner.attribute`` as layer ``name`` until :meth:`restore`."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def hook(self, owner: Any, attribute: str, replacement: Callable[..., Any]) -> None:
        """Rebind ``owner.attribute`` to ``replacement`` until :meth:`restore`."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        try:
            yield self
        finally:
            self.restore()
