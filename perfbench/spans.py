"""Spans around calls into the program, installed from outside it.

A :class:`Tracer` replaces chosen functions and methods of the
``springer_tworow`` modules with wrappers that record one span per call:
name, job id, parent span, start, end.  Modules import each other's
functions by name, so a function is replaced under every name that binds
the very same object in any ``springer_tworow`` module; ``lru_cache``
functions are wrapped from outside, so cache hits count as calls.
:meth:`Tracer.remove` puts every original object back.

Self time is span time minus the time covered by child spans.  The
wrapper also adds it up as each span closes, which gives the per-layer
totals without a second pass over the records; :func:`self_times`
recomputes it from the records alone.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

ROOT = "job"
#: Span clock: CPU time of this process.  The work is single-threaded and
#: CPU-bound, and unlike the wall clock this leaves out the time a shared
#: virtual machine's host runs other guests instead.
CLOCK = time.process_time


class Tracer:
    """In-memory span recorder with per-name totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One record per span, column-wise to keep memory small.
        self.name = array("i")
        self.job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Totals of spans inside jobs, and of spans outside any job (set-up).
        self.totals = {"self_s": {}, "calls": {}, "counts": {}}
        self.setup_totals = {"self_s": {}, "calls": {}, "counts": {}}
        self._agg = self.setup_totals
        self._stack: list[list] = []  # [record index, covered by children]
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.job.append(self._job)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.start[idx] = CLOCK()
        return frame

    def _close(self, frame: list, name: str, counter=None, args=(), result=None) -> None:
        end = CLOCK()
        idx, covered = frame
        self.end[idx] = end
        self._stack.pop()
        self_s, calls = self._agg["self_s"], self._agg["calls"]
        self_s[name] = self_s.get(name, 0.0) + (end - self.start[idx] - covered)
        calls[name] = calls.get(name, 0) + 1
        if counter is not None:
            counter(self, args, result)
        if self._stack:
            # The parent counts as covered up to now, so this span's own
            # bookkeeping (counters included) stays out of its self time.
            self._stack[-1][1] += CLOCK() - self.start[idx]

    def run_job(self, job_id: int, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self._job, self._agg = job_id, self.totals
        frame = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(frame, ROOT)
            self._job, self._agg = -1, self.setup_totals

    def count(self, key: str, value: float) -> None:
        counts = self._agg["counts"]
        counts[key] = counts.get(key, 0) + value

    def count_max(self, key: str, value: float) -> None:
        counts = self._agg["counts"]
        counts[key] = max(counts.get(key, value), value)

    # --- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        """A wrapper recording a span per call; counter(tracer, args, result)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name)
                raise
            tracer._close(frame, name, counter, args, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self, targets) -> None:
        """Wrap each target: (module, attribute path, span name, counter).

        A plain attribute path names a module-level function and is replaced
        wherever a ``springer_tworow`` module binds the same object; a dotted
        path (``Class.method``) is replaced on the class.
        """
        for module_name, path, span, counter in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # not imported by this process, so never called
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                own = owner.__dict__.get(attr)  # None when inherited
                original = getattr(owner, attr) if own is None else own
                self._patches.append((owner, attr, own))
                setattr(owner, attr, self.wrap(span, original, counter))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(span, original, counter)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "springer_tworow"
                                       or name.startswith("springer_tworow.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched binding to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)

    # --- output ----------------------------------------------------------------

    def records(self):
        """Spans as (name, job, parent, start, end) tuples."""
        return [
            (self.names[n], j, p, s, e)
            for n, j, p, s, e in zip(self.name, self.job, self.parent, self.start, self.end)
        ]

    def write(self, path: str) -> None:
        """Write the spans as a JSON header line followed by the raw columns."""
        import json
        header = {"names": self.names, "count": len(self.name),
                  "columns": [["name", "i"], ["job", "i"], ["parent", "i"],
                              ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.job, self.parent, self.start, self.end):
                column.tofile(fh)


def self_times(records) -> dict[str, float]:
    """Per-name self time from (name, job, parent, start, end) records."""
    covered = [0.0] * len(records)
    for name, job, parent, start, end in records:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for idx, (name, job, parent, start, end) in enumerate(records):
        out[name] = out.get(name, 0.0) + (end - start - covered[idx])
    return out
