"""Span tracing from outside the library, by wrapping its public functions.

Every module-level public function of the eight layer modules (plus the
`GroupSpec.build` method, which is how `verify.build_graph` builds groups),
except the bit-mask primitives in UNTRACED, is replaced by a wrapper that
records one span per call. `verify`, `proof`, `cli` and `subgroups` import
functions from other layers by name, so a wrapper is installed on *every*
binding of each function in every `cayleygap` module, not just on the
defining module; otherwise calls made through those bindings would go
unrecorded.

Spans live in memory. The benchmark aggregates them after each traced pass
and then clears them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

LAYERS = (
    "groups", "cayley", "spectral", "cheeger",
    "subgroups", "proof", "verify", "cli",
)

# cayley's bit-mask primitives run a few microseconds per call, hundreds of
# thousands of times per pass inside the proof and expansion loops. A wrapper
# costs about as much as the call, so tracing them would mostly measure the
# tracer (a pass took 1.7x as long). They are left unwrapped, and their time
# counts as self time of the function that calls them.
UNTRACED = frozenset({
    "cayley.set_image", "cayley.mask_members", "cayley.mask_of",
    "cayley.iter_bits", "cayley.left_translate", "cayley.right_translate",
})


@dataclass(frozen=True)
class Span:
    name: str           # "<layer>.<function>"
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 at the top
    item: str | None    # workload item being run
    error: str | None   # exception type name if the call raised

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.item: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.item, error)

        return traced

    def take(self) -> list[Span]:
        """Return the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        done = list(self.spans)
        self.spans.clear()
        return done


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def _public_functions(module) -> Iterator[tuple[str, Callable]]:
    for name, obj in vars(module).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        ):
            yield name, obj


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every binding of every layer's public functions for the duration
    of the block, then restore the originals."""
    wrapped: dict[Callable, Callable] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cayleygap.{layer}")
        for name, fn in _public_functions(module):
            if f"{layer}.{name}" not in UNTRACED:
                wrapped[fn] = tracer.wrap(f"{layer}.{name}", fn)
    groups = sys.modules["cayleygap.groups"]
    build = vars(groups.GroupSpec)["build"]
    patches = [(groups.GroupSpec, "build", build)]
    setattr(groups.GroupSpec, "build", tracer.wrap("groups.GroupSpec.build", build))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "cayleygap" and not mod_name.startswith("cayleygap."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                patches.append((module, attr, value))
                setattr(module, attr, wrapped[value])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
