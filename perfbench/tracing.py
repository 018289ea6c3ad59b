"""Span tracing of mild2's public functions, installed from outside the package.

Every public function of the wrapped modules is replaced, in every module
namespace that binds it, by a wrapper that records one span: name, start,
end, parent span and operation id.  Several modules bind names at import
time (``mildness.eliminate_generator``, ``oracle.relator_to_poly``,
``linking.legendre`` and so on), so wrapping only the defining module would
miss those calls; ``gf2.*`` is reached through the module attribute and is
covered by the same rule.  ``uninstall`` puts the original objects back.

Spans are kept in flat arrays while the benchmark runs and are written out
only once, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from pathlib import Path

MODULES = ("arith", "linking", "mildness", "series", "quadlie", "oracle", "gf2")
NAMESPACES = ("",) + MODULES


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Collects spans in memory.  ``probes`` map a span name to a function
    ``(args, result, parent_name, counters)`` that adds counts taken at that
    boundary; ``parent_name`` is the name of the enclosing span, or None."""

    def __init__(self, probes=None):
        self.probes = dict(probes or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin(self, name: str) -> int:
        """Open a span around work the benchmark calls itself (one per op)."""
        return self._open(self._intern(name))

    def finish(self, sid: int) -> None:
        self._close(sid)

    def wrap(self, name: str, fn):
        idx = self._intern(name)
        probe = self.probes.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if probe is not None:
                stack = tracer._stack
                parent = tracer.names[tracer.name_id[stack[-1]]] if stack else None
                probe(args, result, parent, tracer.counters)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for short in MODULES:
            module = importlib.import_module(f"mild2.{short}")
            for name, fn in _public_functions(module):
                originals[id(fn)] = (f"{short}.{name}", fn)
        wrappers = {key: self.wrap(label, fn) for key, (label, fn) in originals.items()}
        for short in NAMESPACES:
            module = importlib.import_module(f"mild2.{short}" if short else "mild2")
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans.  Children of one
        span never overlap (one thread), so covered time is their sum."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += dur[sid]
        return [d - c for d, c in zip(dur, child)]

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart\tend\n")
            names = self.names
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{self.parent[sid]}\t{self.op_id[sid]}\t{names[self.name_id[sid]]}"
                    f"\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )
