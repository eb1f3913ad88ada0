"""Spans around calls into the lapdsm modules, recorded from outside the program.

`install()` wraps every public function and every public method of every
class defined in a `lapdsm` module.  The modules import names from each other
(`from .dsm import index_classical`), so each wrapper is bound again under
every name in every `lapdsm` module that holds the original; patching only the
defining module would miss those calls.

A span is (name, start, end, parent index), kept in memory.  A few counters
are taken at the same boundaries: contrast cells per forward solve, bytes of
every probing set returned, bytes of every file `fileio` writes and 64-bit
words drawn from the counter generator.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import weakref

_perf = time.perf_counter


class Tracer:
    """Collects spans and counters for one command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._seen_probing: dict[int, weakref.ref] = {}

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, _perf(), 0.0, parent]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _perf()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def note_probing(self, result) -> None:
        """Add samples.nbytes of a ProbingSet the first time it is returned."""
        if type(result).__name__ != "ProbingSet":
            return
        ref = self._seen_probing.get(id(result))
        if ref is not None and ref() is result:
            return
        self._seen_probing[id(result)] = weakref.ref(result)
        self.count("dsm.probing_bytes", result.samples.nbytes)


def _after_solve(tracer, args, kwargs, result):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    tracer.count("forward.contrast_cells", int((grid.q != 0.0).sum()))


def _after_write(tracer, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    tracer.count("fileio.bytes_written", os.path.getsize(path))


def _after_any(tracer, args, kwargs, result):
    tracer.note_probing(result)


def _hook(span_name: str):
    if span_name == "forward.solve_scattering":
        return _after_solve
    if span_name.startswith("fileio.write_"):
        return _after_write
    return _after_any


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every loaded lapdsm module."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lapdsm" or name.startswith("lapdsm."))
    }
    replaced: dict[int, object] = {}
    for modname, mod in modules.items():
        short = modname.removeprefix("lapdsm.")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                span = f"{short}.{attr}"
                replaced[id(obj)] = tracer.wrap(span, obj, _hook(span))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, short, obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(mod, attr, wrapper)


def _wrap_methods(tracer: Tracer, short: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr == "_raw" and cls.__name__ == "CounterRng":
            # private, but it is where every draw happens: count words only
            setattr(cls, attr, _counting(tracer, raw))
            continue
        if attr.startswith("_"):
            continue
        span = f"{short}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, _after_any)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(span, raw, _after_any))


def _counting(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count("rng.draws", len(result))
        return result

    return counted
