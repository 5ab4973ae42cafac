"""In-memory span recorder for the benchmark.

Spans are recorded from the benchmark's own files: ``Tracer.wrap``
replaces the name a caller looks up (a module attribute or a class
attribute) with a timing wrapper, and ``unwrap_all`` puts the originals
back. Each span keeps its name, start, end, parent span and run id; the
run id is the index of the operation (scenario run, comparison or training
run) that caused it.

Every span is timed on two clocks: wall time (``perf_counter_ns``) and
the thread's CPU time (``thread_time_ns``). On a shared machine the wall
clock also counts the time the process was not scheduled, which swamps
the tail of a millisecond-scale tick; the CPU clock counts only the work.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.cpu_starts: list[int] = []
        self.cpu_ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.calls: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``;
        ``on_result`` sees each return value."""
        original = getattr(owner, attr)
        names, starts, ends, parents, runs = (self.names, self.starts, self.ends,
                                              self.parents, self.runs)
        cpu_starts, cpu_ends = self.cpu_starts, self.cpu_ends
        stack, calls = self._stack, self.calls
        clock, cpu = time.perf_counter_ns, time.thread_time_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            cpu_ends.append(0)
            stack.append(i)
            calls[name] += 1
            starts.append(clock())
            cpu_starts.append(cpu())
            try:
                result = original(*args, **kwargs)
            finally:
                cpu_ends[i] = cpu()
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def indices(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def dump(self, path) -> None:
        """Write the spans as gzipped column-major JSON (times in ns)."""
        with gzip.open(path, "wt") as f:
            json.dump({"name": self.names, "start_ns": self.starts, "end_ns": self.ends,
                       "cpu_start_ns": self.cpu_starts, "cpu_end_ns": self.cpu_ends,
                       "parent": self.parents, "run": self.runs}, f)
