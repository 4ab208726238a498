"""Outside-in layer tracer for the benchmark's traced runs.

The tracer never edits the program: it replaces public functions and
methods of the ``repro`` package with timing wrappers *before* any node,
simulator or pool is built, so the replacements are the callables the
program binds.  Each wrapped call is a span charged to one layer.  Spans
nest through a per-thread stack of ``[layer, child_seconds]`` frames, and a
span's *self* time is its duration minus the time covered by its child
spans.  Self times therefore add up exactly to the duration of the
outermost spans, so ``wall - sum(self)`` is the time spent outside every
wrapped layer (the benchmark's ``unattributed_s``).

Spans opened on other threads (the distributed coordinator's handler
threads) run beside the main thread.  The outermost span of such a thread
takes its time from the main thread's innermost open span (or from the
untraced time, if none is open): it is charged as its layer's self time
only up to the part of that span not yet claimed by anything else, and
the main thread's span is charged the same amount as child time.  So
concurrent spans never count the same second twice, no self time goes
below zero and the sum rule stays exact (up to a charge that races with
the closing of that very span, a window of a few bytecodes).  Calls nested
inside another thread's outermost span are counted but not timed.

Everything is aggregated in memory (count, self time, outermost total time
and free-form work counters per layer) and read once when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional


#: owner of a non-main thread's root frame
_FORWARD = object()


class Layer:
    """Aggregated spans of one layer."""

    __slots__ = ("name", "calls", "self_s", "total_s", "work")

    def __init__(self, name: str) -> None:
        self.name = name
        #: spans entered from a different layer (nested same-layer calls,
        #: such as a sampler method calling another, count once)
        self.calls = 0
        self.self_s = 0.0
        #: duration of the spans entered from a different layer
        self.total_s = 0.0
        self.work: Dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0.0) + amount


class Tracer:
    """Installs timing wrappers and keeps the per-layer aggregates."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        self._local = threading.local()
        #: frames are [layer, child seconds, start]; the root frame's child
        #: seconds are the traced (attributed) time since the last reset
        self._main_stack: List[list] = [[None, 0.0, time.perf_counter()]]
        self._local.stack = self._main_stack
        self._undo: List[tuple] = []

    def layer(self, name: str) -> Layer:
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer(name)
        return found

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a new thread: its root frame forwards child time to the main
            # thread's innermost open span (see the module docstring)
            stack = self._local.stack = [[_FORWARD, 0.0, 0.0]]
        return stack

    def wrap(
        self,
        layer_name: str,
        fn: Callable,
        work: Optional[Callable[[Layer, tuple, object], None]] = None,
    ) -> Callable:
        """A wrapper that times ``fn`` as a span of ``layer_name``.

        ``work(layer, args, result)`` may add work counters after each call.
        Generator functions are timed per ``next``, so the consumer's time
        between items is never charged to the layer.
        """
        layer = self.layer(layer_name)
        stack_of = self._stack
        main_stack = self._main_stack
        clock = time.perf_counter

        def enter():
            stack = stack_of()
            parent = stack[-1]
            frame = [layer, 0.0, clock()]
            stack.append(frame)
            return stack, parent, frame

        def leave(stack, parent, frame):
            end = clock()
            elapsed = end - frame[2]
            stack.pop()
            owner = parent[0]
            if owner is not layer:
                layer.calls += 1
                layer.total_s += elapsed
            if stack is main_stack:
                layer.self_s += elapsed - frame[1]
                parent[1] += elapsed
            elif owner is _FORWARD:
                target = main_stack[-1]
                charge = min(elapsed, max(0.0, end - target[2] - target[1]))
                layer.self_s += charge
                target[1] += charge
            # else: nested in another thread's outermost span; counted only

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    stack, parent, frame = enter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(stack, parent, frame)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent, frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(stack, parent, frame)
            if work is not None:
                work(layer, args, result)
            return result

        return wrapper

    def patch(
        self,
        owner,
        attr: str,
        layer_name: str,
        work: Optional[Callable[[Layer, tuple, object], None]] = None,
        around: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class's own
        method) by its timing wrapper; :meth:`restore` puts it back.

        ``around(original)`` may substitute the callable that gets timed.
        """
        original = owner.__dict__[attr]
        timed = original if around is None else around(original)
        setattr(owner, attr, self.wrap(layer_name, timed, work))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Put the originals back for the duration of the block (so that
        processes forked inside it run the program's own code)."""
        wrappers = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._undo]
        for owner, attr, original in self._undo:
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, wrapper in wrappers:
                setattr(owner, attr, wrapper)

    def reset(self) -> None:
        """Zero every aggregate (the wrappers keep their layer objects);
        call it with no span open."""
        self._main_stack[0][1:] = [0.0, time.perf_counter()]
        for layer in self.layers.values():
            layer.calls = 0
            layer.self_s = layer.total_s = 0.0
            layer.work.clear()

    def self_seconds(self) -> float:
        """Sum of every layer's self time (= duration of outermost spans)."""
        return sum(layer.self_s for layer in self.layers.values())
