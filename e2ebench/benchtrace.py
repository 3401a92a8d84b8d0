"""Span tracing from outside the program under test.

The traced run replaces layer entry points (a class attribute or a
module-level function) with wrappers that time each call; untraced units
run with every original restored, so tracing costs them nothing.  Spans
stay in memory, one list per thread, so the hot path takes no lock; the
benchmark collects them when a unit has ended and writes them out when
the run ends.

Calls made in a forked worker process record into the child's copy of the
lists and are lost: on the process backend only the broker's spans count.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from typing import Callable, ContextManager, List, Optional, Tuple

from benchstats import Span


class Tracer:
    """Wraps callables with spans; :meth:`install` / :meth:`uninstall` per unit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._threads: List[Tuple[int, list]] = []
        self._local = threading.local()
        self._sites: List[Tuple[object, str, object, object]] = []
        self._installed = False

    def _state(self) -> "Tuple[list, list]":
        state = getattr(self._local, "state", None)
        if state is None:
            # (finished-or-open span records, stack of open record indices)
            state = ([], [])
            self._local.state = state
            with self._lock:
                self._threads.append((threading.get_ident(), state[0]))
        return state

    def _enter(self, name: str, layer: bool) -> "Tuple[list, int]":
        records, stack = self._state()
        parent = stack[-1] if stack else None
        records.append([name, self._clock(), 0.0, parent, layer])
        index = len(records) - 1
        stack.append(index)
        return records, index

    def _exit(self, records: list, index: int) -> None:
        records[index][2] = self._clock()
        self._state()[1].pop()

    def _inside_layer(self) -> bool:
        records, stack = self._state()
        return any(records[index][4] for index in stack)

    def span(self, name: str, layer: bool = True) -> ContextManager[object]:
        """``with tracer.span("phase", layer=False):`` — the benchmark's own span.

        A no-op while the tracer is not installed (untraced units).
        """
        if not self._installed:
            return contextlib.nullcontext()
        return _SpanContext(self, name, layer)

    def _wrapper(
        self, original: Callable, name: str, outermost_only: bool
    ) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if outermost_only and self._inside_layer():
                return original(*args, **kwargs)
            records, index = self._enter(name, True)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(records, index)

        return traced

    def add_method(
        self, owner: type, attribute: str, name: str, outermost_only: bool = False
    ) -> None:
        """Trace ``owner.attribute`` (a function defined on that class).

        ``outermost_only`` records a call only when no layer span is open on
        the calling thread, which separates a direct call from the same
        method used inside another layer.
        """
        original = owner.__dict__[attribute]
        self._sites.append(
            (owner, attribute, original, self._wrapper(original, name, outermost_only))
        )

    def add_function(self, function: Callable, name: str) -> None:
        """Trace ``function`` under every name a ``repro`` module binds it to."""
        wrapper = self._wrapper(function, name, False)
        found = False
        for module_name, module in sorted(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._sites.append((module, attribute, function, wrapper))
                    found = True
        if not found:
            raise RuntimeError(f"{function!r} is bound by no repro module")

    def install(self) -> None:
        for owner, attribute, _, wrapper in self._sites:
            setattr(owner, attribute, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attribute, original, _ in reversed(self._sites):
            setattr(owner, attribute, original)
        self._installed = False

    def take(self) -> List[Span]:
        """Every span recorded since the last call, then forget them.

        Call only when no traced call is running (between units).
        """
        spans: List[Span] = []
        with self._lock:
            threads = list(self._threads)
        for thread, records in threads:
            offset = len(spans)
            for name, start, end, parent, layer in records:
                spans.append(
                    Span(
                        name=name,
                        start=start,
                        end=end,
                        parent=None if parent is None else parent + offset,
                        thread=thread,
                        layer=layer,
                    )
                )
            records.clear()
        return spans


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_layer", "_records", "_index")

    def __init__(self, tracer: Tracer, name: str, layer: bool) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer
        self._records: Optional[list] = None
        self._index = 0

    def __enter__(self) -> "_SpanContext":
        self._records, self._index = self._tracer._enter(self._name, self._layer)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._exit(self._records, self._index)
        return False
