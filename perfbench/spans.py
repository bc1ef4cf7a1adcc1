"""In-memory spans recorded around calls into oddquadric's public functions.

A span is [name, start, end, parent, item]: the parent is the index of the
enclosing span in the same process, or -1, and the item is the id of the work
item being processed.  Spans are kept in a list and written out when the
repetition ends.  The wrappers are installed from benchmark code only, by
rebinding each traced function in every oddquadric module namespace that
holds it, so the package source is untouched.

A Sampler samples the machine's speed.  Throughput on a shared machine drifts
by tens of percent within seconds, so a daemon thread times a fixed
pure-Python reference loop every PROBE_EVERY_S seconds, in the thread's own CPU
time so that waiting for the interpreter lock does not count.  The process is
pinned to one CPU first (pin_to_free_cpu), so the probe measures the CPU the
work runs on.  The benchmark reports times divided by the loop's mean time as
well as in seconds.

Pool workers are forked from the traced process and inherit its wrappers.
Their spans never reach the parent through the pool, so each worker appends
its spans to a per-process file after every verify cell, and the parent
merges those files once the pool has shut down.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

clock = time.perf_counter
PROBE_EVERY_S = 0.3
NEAR_S = 1.0


def reference_loop() -> None:
    """Fixed pure-Python work, mostly Fraction and int arithmetic as in oddquadric."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, 2 * (i % 5) + 1)
    total = 0
    for i in range(60000):
        total += (i * i) % 7
    if total <= 0 or acc.denominator <= 0:
        raise RuntimeError("reference loop computed nonsense")


def pin_to_free_cpu(work_dir: Path) -> None:
    """Pin the calling thread, and the threads it starts later, to the lowest
    allowed CPU that no other process of this repetition has claimed.

    The probe thread then shares its CPU with the work it normalises, and
    pool workers each get a CPU of their own.  If every CPU is taken the
    thread stays unpinned.
    """
    for cpu in sorted(os.sched_getaffinity(0)):
        try:
            os.close(os.open(work_dir / f"cpu-{cpu}", os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            continue
        os.sched_setaffinity(0, {cpu})
        return


class Sampler:
    """Daemon thread timing reference_loop every PROBE_EVERY_S; see the module docstring."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start on clock, CPU seconds)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="probe", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            start, cpu = clock(), time.thread_time()
            reference_loop()
            with self._lock:
                self.probes.append((start, time.thread_time() - cpu))
            if self._stop.wait(PROBE_EVERY_S):
                return

    def take(self) -> list[tuple[float, float]]:
        """The probes recorded since the last take."""
        with self._lock:
            out, self.probes = self.probes, []
        return out

    def stop(self) -> list[tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        return self.take()


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self, worker_dir: Path, snapshot=None):
        self.pid = os.getpid()
        self.in_worker = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.counts: Counter = Counter()
        self.items: list[tuple[float, float, float]] = []  # (start, wall s, CPU s)
        self.worker_dir = worker_dir
        self.snapshot = snapshot
        self.sampler: Sampler | None = None

    def begin(self, name: str, item: str | None = None) -> int:
        if item is not None:
            self.item = item
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.item])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, item: str | None = None):
        idx = self.begin(name, item)
        try:
            yield
        finally:
            self.end(idx)

    @contextmanager
    def work_item(self, name: str, item: str):
        """A span around one work item, also kept in self.items with the CPU
        time of this thread, which excludes waiting for the probe thread."""
        start, cpu = clock(), time.thread_time()
        with self.span(name, item):
            yield
        self.items.append((start, clock() - start, time.thread_time() - cpu))

    def wrap(self, name: str, fn, count: str | None = None):
        """fn inside a span; with count, also add len(result) to self.counts[count]."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count:
                self.counts[count] += len(result)
            return result

        return traced

    def wrap_cell(self, fn):
        """Span around verifier.run_check_cell(check_id, n), named after the check."""

        @functools.wraps(fn)
        def cell(check_id, n):
            if os.getpid() != self.pid:
                # First cell in a forked worker: drop what the parent recorded.
                self.pid, self.in_worker = os.getpid(), True
                self.spans, self.stack, self.counts, self.items = [], [], Counter(), []
                pin_to_free_cpu(self.worker_dir)
                self.sampler = Sampler()
            try:
                with self.work_item(f"verifier.cell.{check_id}", f"{check_id}:n={n}"):
                    return fn(check_id, n)
            finally:
                if self.in_worker:
                    self.flush_worker()

        return cell

    def flush_worker(self) -> None:
        record = {
            "spans": self.spans,
            "counts": self.counts,
            "probes": self.sampler.take(),
            "items": self.items,
            "snapshot": self.snapshot() if self.snapshot else None,
        }
        with open(self.worker_dir / f"worker-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counts, self.items = [], Counter(), []

    def merge_workers(self):
        """What every pool worker flushed: per worker, its span lists (one per
        cell), its probes and its items; and each worker's last snapshot.
        Worker counts are added into self.counts."""
        workers, snapshots = [], []
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            groups, probes, items, last = [], [], [], None
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                groups.append(record["spans"])
                probes += record["probes"]
                items += record["items"]
                self.counts.update(record["counts"])
                last = record["snapshot"]
            workers.append((groups, probes, items))
            snapshots.append(last)
        return workers, snapshots


def normalized_items(items, probes, fallback: float) -> list[float]:
    """CPU time of each item of one process over the mean of that process's
    probes from NEAR_S before the item to NEAR_S after it; over fallback if
    there are none."""
    starts = [start for start, _ in probes]
    out = []
    for start, wall, cpu in items:
        lo = bisect.bisect_left(starts, start - NEAR_S)
        hi = bisect.bisect_right(starts, start + wall + NEAR_S)
        near = [probe for _, probe in probes[lo:hi]]
        out.append(cpu / (sum(near) / len(near) if near else fallback))
    return out


def rebind(modules, fn, replacement) -> None:
    """Point every name bound to fn in the given modules at replacement."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)


def layer_stats(groups) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    groups is a list of span lists, each with parent indices local to itself.
    Self time is a span's duration minus the durations of its direct
    children, which in one thread never overlap.
    """
    stats: dict[str, dict[str, float]] = {}
    for spans in groups:
        inner = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _, _), children in zip(spans, inner):
            s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - children
    return stats
