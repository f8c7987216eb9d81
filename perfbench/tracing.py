"""Outside-in tracing for the benchmark: wrappers, per-pid records, and
the attribution of traced wall time to layers.

The program is never edited.  :func:`install` replaces public functions
and methods with timing wrappers *where the program looks them up*:
``repro.core.pipeline`` binds its collaborators with ``from ... import``,
so its own module namespace is patched, not the defining modules.
Process-engine workers are forked and inherit the wrappers; every
process appends its records to ``<trace_dir>/<pid>.rec`` and the
benchmark merges the files after the run.

A record is one text line::

    <tid> <name> <t0_ns> <t1_ns>

``t0``/``t1`` come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on
Linux), which is comparable across processes on one host.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: spans whose lane only waits for work that runs on other lanes (the
#: main process blocked in ``ExecutionBackend.map`` while pool workers run the
#: jobs, a client sleeping between status polls while the daemon runs
#: its job); they are attributed time only while no other lane is busy
WAITING = frozenset({"executor.map", "gateway.wait"})

#: the span that bounds a traced pipeline run; its self time is the
#: trace residual, not a layer
ROOT = "trace.root"

Span = Tuple[Tuple[int, int], str, int, int]  # lane, name, t0, t1


class Tracer:
    """Appends span records to one file per process under ``trace_dir``."""

    def __init__(self, trace_dir: str | os.PathLike) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._pid = -1
        self._fd = -1

    def _file(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            # first record of this process (or of a forked worker, which
            # must not append to its parent's file)
            self._fd = os.open(
                self.trace_dir / f"{pid}.rec",
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._pid = pid
        return self._fd

    def span(self, name: str, t0: int, t1: int) -> None:
        line = f"{threading.get_ident()} {name} {t0} {t1}\n"
        os.write(self._file(), line.encode())


def read_spans(trace_dir: str | os.PathLike) -> List[Span]:
    """Every span recorded under ``trace_dir``, all processes merged."""
    spans: List[Span] = []
    for path in sorted(Path(trace_dir).glob("*.rec")):
        pid = int(path.stem)
        for line in path.read_text().splitlines():
            tid, name, t0, t1 = line.split(" ")
            spans.append(((pid, int(tid)), name, int(t0), int(t1)))
    return spans


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.span(name, t0, time.perf_counter_ns())

    wrapper.__wrapped__ = fn
    return wrapper


class _TimedContext:
    """A context manager whose enter and exit are each one span; the
    ``with`` body in between is left to the spans it contains."""

    def __init__(self, tracer: Tracer, name: str, cm) -> None:
        self._tracer, self._name, self._cm = tracer, name, cm

    def __enter__(self):
        t0 = time.perf_counter_ns()
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.span(self._name, t0, time.perf_counter_ns())

    def __exit__(self, *exc):
        t0 = time.perf_counter_ns()
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer.span(self._name, t0, time.perf_counter_ns())


def timed_context(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        return _TimedContext(tracer, name, fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


def _patch(owner, attr: str, wrapped: Callable, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrapped)


def install(tracer: Tracer, root: str = ROOT, service: bool = False) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the undo callable.

    ``root`` names the ``MetaPrep.run`` span: the trace root for a
    pipeline run, ``service.run`` inside the gateway.  ``service`` also
    wraps the artifact store and the IndexCreate the store calls.
    """
    from repro.core import pipeline
    from repro.index import create
    from repro.runtime.executor import ProcessExecutor, SerialExecutor
    from repro.runtime.spill import SpillManager
    from repro.runtime.transport import PoolBlockTransport

    undo: list = []
    functions = {
        "index_create": "index.create",
        "load_chunk_reads": "index.load_chunk",
        "send_counts_matrix": "index.offsets",
        "chunk_send_counts": "index.offsets",
        "recv_write_offsets": "index.offsets",
        "enumerate_canonical_kmers": "kmers.enumerate",
        "range_partition_block": "sort.partition",
        "radix_sort_block": "sort.radix",
        "fold_block_partitions": "cc.localcc",
        "map_ids_to_components": "cc.relabel",
        "merge_component_arrays": "cc.mergecc",
        "write_partitions": "partition.write",
        "write_block_region": "transport.write_region",
        "write_spill_region": "spill.write_region",
        "rewrite_spill_ids": "spill.rewrite_ids",
        "create_engine": "executor.start",
    }
    for attr, name in functions.items():
        _patch(pipeline, attr, timed(tracer, name, getattr(pipeline, attr)), undo)
    _patch(pipeline, "resolve_block", timed_context(tracer, "transport.resolve", pipeline.resolve_block), undo)
    _patch(pipeline, "resident_spill", timed_context(tracer, "spill.attach", pipeline.resident_spill), undo)
    for attr, name in (
        ("publish", "transport.publish"),
        ("release", "transport.publish"),
        ("read_ids", "transport.ids_rw"),
        ("write_ids", "transport.ids_rw"),
    ):
        method = PoolBlockTransport.__dict__[attr]
        _patch(PoolBlockTransport, attr, timed(tracer, name, method), undo)
    _patch(SpillManager, "publish", timed(tracer, "spill.publish", SpillManager.publish), undo)
    for cls in (SerialExecutor, ProcessExecutor):
        _patch(cls, "map", timed(tracer, "executor.map", cls.__dict__["map"]), undo)
        _patch(cls, "close", timed(tracer, "executor.start", cls.__dict__["close"]), undo)
    _patch(pipeline.MetaPrep, "run", timed(tracer, root, pipeline.MetaPrep.run), undo)
    if service:
        from repro.service.store import ArtifactStore

        # ArtifactStore.index_for imports index_create from its defining
        # module at call time
        _patch(create, "index_create", timed(tracer, "index.create", create.index_create), undo)
        for attr in ("get", "index_for", "put_partition"):
            method = ArtifactStore.__dict__[attr]
            _patch(ArtifactStore, attr, timed(tracer, "service.store", method), undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def lane_segments(spans: Sequence[Tuple[str, int, int]]) -> List[Tuple[int, int, str]]:
    """Split one lane's (properly nested) spans into innermost-label
    segments: each instant belongs to the most recently opened span
    still open."""
    events = []
    for i, (_, t0, t1) in enumerate(spans):
        events.append((t0, 1, -t1, i))
        events.append((t1, 0, 0, i))  # ends sort before starts at a tie
    events.sort()
    stack: List[int] = []
    out: List[Tuple[int, int, str]] = []
    last = None
    for t, is_start, _, i in events:
        if stack and last is not None and t > last:
            out.append((last, t, spans[stack[-1]][0]))
        last = t
        if is_start:
            stack.append(i)
        else:
            stack.remove(i)
    return out


def attribute(spans: Iterable[Span], t_begin: int, t_end: int) -> Tuple[Dict[str, float], float]:
    """Share the traced wall ``[t_begin, t_end)`` out among span names.

    Every instant goes to the innermost open span of each lane (one
    thread of one process) that is busy, split evenly among those lanes;
    :data:`WAITING` spans get it only while no other lane is busy; an
    instant no span covers, or only :data:`ROOT` covers, is residual.
    The returned self times plus the residual equal the wall exactly
    (up to float rounding).
    """
    by_lane: Dict[Tuple[int, int], List[Tuple[str, int, int]]] = defaultdict(list)
    for lane, name, t0, t1 in spans:
        t0, t1 = max(t0, t_begin), min(t1, t_end)
        if t1 > t0:
            by_lane[lane].append((name, t0, t1))
    events = []
    for lane, lane_spans in by_lane.items():
        for a, b, name in lane_segments(lane_spans):
            events.append((a, 1, lane, name))
            events.append((b, 0, lane, name))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[Tuple[int, int], str] = {}
    self_ns: Dict[str, float] = defaultdict(float)
    residual = 0.0
    last = t_begin
    for t, is_start, lane, name in events + [(t_end, 0, None, None)]:
        if t > last:
            width = t - last
            busy = [n for n in active.values() if n not in WAITING and n != ROOT]
            if not busy:
                busy = [n for n in active.values() if n in WAITING]
            if busy:
                for n in busy:
                    self_ns[n] += width / len(busy)
            else:
                residual += width
            last = t
        if lane is None:
            break
        if is_start:
            active[lane] = name
        elif active.get(lane) == name:
            del active[lane]
    return {n: v / 1e9 for n, v in self_ns.items()}, residual / 1e9


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length of the union of ``(t0, t1)`` intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


#: span-name prefixes of the pipeline layers that executor jobs run
JOB_LAYERS = ("index.", "kmers.", "sort.", "cc.", "partition.", "transport.", "spill.")


def worker_busy_share(spans: Sequence[Span], main_pid: int, n_workers: int) -> float:
    """Job time ÷ (workers × ``executor.map`` time).

    Job time is the union, per lane, of the pipeline-layer spans that lie
    inside one of the main process's ``executor.map`` intervals: the pool
    workers' lanes under the process engine, the main process's own lane under
    the serial engine.
    """
    maps = [(t0, t1) for lane, name, t0, t1 in spans if name == "executor.map" and lane[0] == main_pid]
    map_ns = union_ns(maps)
    if map_ns == 0:
        return 0.0
    by_lane: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
    for lane, name, t0, t1 in spans:
        if name.startswith(JOB_LAYERS) and any(m0 <= t0 and t1 <= m1 for m0, m1 in maps):
            by_lane[lane].append((t0, t1))
    job_ns = sum(union_ns(iv) for iv in by_lane.values())
    return job_ns / (n_workers * map_ns)


#: span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "index.create": "index.create_s",
    "index.load_chunk": "index.load_chunk_s",
    "index.offsets": "index.offsets_s",
    "kmers.enumerate": "kmers.enumerate_s",
    "sort.partition": "sort.partition_s",
    "sort.radix": "sort.radix_s",
    "cc.localcc": "cc.localcc_s",
    "cc.relabel": "cc.relabel_s",
    "cc.mergecc": "cc.mergecc_s",
    "partition.write": "partition.write_s",
    "transport.publish": "transport.publish_s",
    "transport.write_region": "transport.write_region_s",
    "transport.resolve": "transport.resolve_s",
    "transport.ids_rw": "transport.ids_rw_s",
    "spill.write_region": "spill.write_region_s",
    "spill.rewrite_ids": "spill.rewrite_ids_s",
    "spill.publish": "spill.publish_s",
    "spill.attach": "spill.attach_s",
    "executor.start": "executor.start_s",
    "executor.map": "executor.map_s",
    "service.run": "service.run_s",
    "service.store": "service.store_s",
    "gateway.submit": "gateway.submit_s",
    "gateway.status": "gateway.status_s",
    "gateway.wait": "gateway.wait_s",
    "gateway.stream": "gateway.stream_s",
}


def layer_metrics(spans, t_begin: int, t_end: int, main_pid: int, n_workers: int) -> Dict:
    """Self times of every layer over the traced wall, plus the trace's
    own residual and coverage."""
    self_s, residual = attribute(spans, t_begin, t_end)
    unknown = set(self_s) - set(SELF_TIME_METRICS)
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    wall = (t_end - t_begin) / 1e9
    metrics = {metric: self_s.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
    covered = sum(self_s.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.residual_s"] = residual
    metrics["trace.coverage_share"] = covered / wall
    metrics["executor.worker_busy_share"] = worker_busy_share(spans, main_pid, n_workers)
    return metrics
