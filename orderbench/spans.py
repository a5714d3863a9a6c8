"""In-memory span tracer that wraps library functions at their call sites.

Each target is a function or method replaced, while tracing is on,
by a wrapper under the name through which its caller looks it up (a module
global or a class attribute). A wrapper records one span per call: layer
name, benchmark phase, start, end and the index of the enclosing span.
Spans stay in lists until the run ends; ``self_times`` subtracts each
span's children from its duration.
"""

from __future__ import annotations

import functools
import json
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.phases: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self.installed = False

    # ---- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.phases.append(self.phase)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + k

    # ---- patching ---------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def original(owner, attr: str):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def add(self, owner, attr: str, wrapper) -> None:
        """Register ``wrapper`` to stand in for ``owner.attr`` while installed."""
        self._patches.append((owner, attr, self.original(owner, attr), wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    # ---- results ----------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], tuple[float, int]]:
        """(phase, layer) -> (total self seconds, calls)."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[tuple[str, str], list] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault((self.phases[i], name), [0.0, 0])
            entry[0] += self.ends[i] - self.starts[i] - child[i]
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """One JSON line per span: name, phase, start, end (s), parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps([name, self.phases[i], round(self.starts[i] - t0, 7),
                                round(self.ends[i] - t0, 7), self.parents[i]])
                )
                fh.write("\n")
