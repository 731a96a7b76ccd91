"""Span tracing of the package's public cross-module calls, from outside.

``Tracer.install`` replaces each traced function by a timing wrapper under
every name a ``cavitydd`` module looks it up by (``propagate.expm_herm``,
``sequences.expm_herm``, ``algebra.expm_herm``, ...), and ``uninstall`` puts
the originals back.  Spans are kept in memory as ``[name, start, end,
parent]`` and written out once, when the worker ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import tracemalloc
import warnings
from contextlib import contextmanager

# (module, function) pairs, named as the per-layer metrics are
TRACED = (
    ("algebra", "is_hermitian"),
    ("algebra", "expm_herm"),
    ("shapes", "amplitude"),
    ("shapes", "compute_params"),
    ("designer", "design"),
    ("propagate", "propagate_period"),
    ("propagate", "run_trace"),
    ("sequences", "order_check"),
    ("sequences", "effective_hamiltonian"),
    ("metrics", "write_csv"),
    ("cli", "main"),
)
# root spans opened by the benchmark around set-up and non-CLI items
ROOTS = ("bench.setup", "bench.item")
# the traced function whose peak allocation (tracemalloc) is also measured
ALLOC_SPAN = "propagate.run_trace"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.peak_alloc_bytes = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._alloc_calls: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        calls = self._alloc_calls if name == ALLOC_SPAN else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                calls.append((fn, args, kwargs))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def measure_alloc(self) -> None:
        """Replay each recorded ALLOC_SPAN call under tracemalloc and keep
        the largest peak.  Replaying after the pass keeps tracemalloc's
        per-allocation cost out of the span timings."""
        for fn, args, kwargs in self._alloc_calls:
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak)
        self._alloc_calls.clear()

    def install(self) -> None:
        """Patch every ``cavitydd`` module attribute bound to a traced
        function (the package must already be imported)."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cavitydd"
                                         or n.startswith("cavitydd."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"cavitydd.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Calls and self time per span name, plus the summed root time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0}
               for name in [f"{m}.{f}" for m, f in TRACED] + list(ROOTS)}
        root_s = 0.0
        for (name, start, end, parent), c in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - c
            if parent < 0:
                root_s += end - start
        return {"layers": out, "root_s": root_s,
                "peak_alloc_mb": self.peak_alloc_bytes / 2 ** 20}

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: index,name,start,end,parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
