"""Driver-side spool collection and the merged run record.

The driver owns one :class:`TelemetryCollector` per run.  Workers append
records to per-(process, thread) spool files under the collector's
spool directory; the driver calls :meth:`TelemetryCollector.merge` at
stage barriers (after each ``executor.map`` returns, i.e. when every
writer of the stage has finished its records), which folds complete
records into the in-memory accumulators and remembers per-file offsets
so each merge reads only the new tail.

Crash safety mirrors :class:`~repro.runtime.buffers.SharedMemoryBufferPool`:
:meth:`close` sweeps the spool directory and is called from the
pipeline's ``finally``; an abandoned collector is swept by a
``weakref.finalize`` at GC/interpreter exit.  Either way a run — clean
or crashed — leaves no orphaned spool files behind.

:class:`RunTelemetry` is the merged, JSON-serializable product: spans,
counter totals and gauge high-water marks keyed by (name, task), the
run's clock origin, and optionally the run's
:class:`~repro.runtime.timing.ProjectedTimes` so the measured-vs-
projected report (:mod:`repro.telemetry.compare`) and the standalone
``metaprep trace`` verb need nothing else.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.runtime.timing import ProjectedTimes
from repro.runtime.work import StepNames
from repro.telemetry.events import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_SPAN,
    read_spool,
)
from repro.telemetry.runtime import TelemetrySettings
from repro.util.timers import TimeBreakdown

#: task id used for driver-side events
DRIVER_TASK = -1

#: steps every task runs together over one shared interval (the tree
#: merge): each task row carries the span, the work view counts it once
COLLECTIVE_STEPS = frozenset({StepNames.MERGECC})

SPOOL_SUBDIR = "spool"
RUN_FILENAME = "telemetry.json"


@dataclass(frozen=True)
class SpanEvent:
    """One merged span on the run's monotonic timeline."""

    name: str
    task: int
    aux: int
    t0_ns: int
    t1_ns: int
    #: spool host identity (the emitting worker daemon's address);
    #: "" for in-host spools — see ``TelemetrySettings.host_id``
    host: str = ""

    @property
    def seconds(self) -> float:
        return (self.t1_ns - self.t0_ns) / 1e9


def spool_host(filename: str) -> str:
    """Host identity encoded in a spool filename.

    ``w<pid>-<tid>.evt`` -> ``""`` (in-host spool);
    ``w<pid>-<tid>@<host>.evt`` -> ``"<host>"``.
    """
    stem = filename[: -len(".evt")] if filename.endswith(".evt") else filename
    _, sep, host = stem.partition("@")
    return host if sep else ""


@dataclass
class RunTelemetry:
    """Everything the spools said about one run, merged."""

    t0_ns: int
    n_tasks: int
    spans: List[SpanEvent] = field(default_factory=list)
    #: counter name -> task -> summed value
    counters: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: gauge name -> task -> max observed value
    gauges: Dict[str, Dict[int, int]] = field(default_factory=dict)
    projected: Optional[ProjectedTimes] = None

    # ------------------------------------------------------------------
    # span aggregation: the critical-path view (barrier semantics,
    # matching ProjectedTimes) and the work view (summed over tasks)
    # ------------------------------------------------------------------
    def per_task_step_seconds(self, step: str) -> Dict[int, float]:
        """Summed span seconds per task for one step."""
        out: Dict[int, float] = {}
        for s in self.spans:
            if s.name == step:
                out[s.task] = out.get(s.task, 0.0) + s.seconds
        return out

    def step_seconds(self, step: str) -> float:
        """Critical-path time of a step: max over tasks of that task's
        summed span time — the same barrier semantics as
        :meth:`ProjectedTimes.step_seconds`."""
        per_task = self.per_task_step_seconds(step)
        return max(per_task.values()) if per_task else 0.0

    def step_names(self) -> List[str]:
        """Steps with spans, paper order first, extras appended."""
        seen = {s.name for s in self.spans}
        ordered = [s for s in StepNames.ORDER if s in seen]
        extras = sorted(seen.difference(StepNames.ORDER))
        return ordered + extras

    def work_seconds(self, step: str) -> float:
        """Work time of a step: span seconds summed over every task, a
        :data:`COLLECTIVE_STEPS` interval counted once."""
        per_task = self.per_task_step_seconds(step).values()
        if step in COLLECTIVE_STEPS:
            return max(per_task, default=0.0)
        return sum(per_task)

    def breakdown(self) -> TimeBreakdown:
        """Critical-path seconds per step (what the gap report joins
        against the projection)."""
        bd = TimeBreakdown()
        for step in self.step_names():
            bd.add(step, self.step_seconds(step))
        return bd

    def work_breakdown(self) -> TimeBreakdown:
        """Work seconds per step (``PipelineResult.measured``)."""
        bd = TimeBreakdown()
        for step in self.step_names():
            bd.add(step, self.work_seconds(step))
        return bd

    def tasks_seen(self) -> List[int]:
        return sorted({s.task for s in self.spans})

    def hosts_seen(self) -> List[str]:
        """Distinct non-empty span host identities (worker addresses)."""
        return sorted({s.host for s in self.spans if s.host})

    # ------------------------------------------------------------------
    # counters / gauges
    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> int:
        return sum(self.counters.get(name, {}).values())

    def counter_totals(self) -> Dict[str, int]:
        return {name: self.counter_total(name) for name in sorted(self.counters)}

    def gauge_max(self, name: str) -> int:
        per_task = self.gauges.get(name, {})
        return max(per_task.values()) if per_task else 0

    def gauge_maxima(self) -> Dict[str, int]:
        return {name: self.gauge_max(name) for name in sorted(self.gauges)}

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        doc: Dict = {
            "t0_ns": self.t0_ns,
            "n_tasks": self.n_tasks,
            "spans": [
                # the 6th (host) element appears only on spans merged
                # from host-stamped spools, keeping in-host documents
                # byte-compatible with the pre-distributed format
                (
                    [s.name, s.task, s.aux, s.t0_ns, s.t1_ns, s.host]
                    if s.host
                    else [s.name, s.task, s.aux, s.t0_ns, s.t1_ns]
                )
                for s in self.spans
            ],
            "counters": {
                name: {str(task): v for task, v in sorted(per.items())}
                for name, per in sorted(self.counters.items())
            },
            "gauges": {
                name: {str(task): v for task, v in sorted(per.items())}
                for name, per in sorted(self.gauges.items())
            },
        }
        if self.projected is not None:
            doc["projected"] = {
                "machine": self.projected.machine,
                "n_tasks": self.projected.n_tasks,
                "per_task": {
                    step: [float(x) for x in arr]
                    for step, arr in self.projected.per_task.items()
                },
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "RunTelemetry":
        projected = None
        if "projected" in doc:
            p = doc["projected"]
            projected = ProjectedTimes(
                machine=p["machine"],
                n_tasks=int(p["n_tasks"]),
                per_task={
                    step: np.asarray(arr, dtype=np.float64)
                    for step, arr in p["per_task"].items()
                },
            )
        return cls(
            t0_ns=int(doc["t0_ns"]),
            n_tasks=int(doc["n_tasks"]),
            spans=[
                SpanEvent(
                    row[0],
                    int(row[1]),
                    int(row[2]),
                    int(row[3]),
                    int(row[4]),
                    host=str(row[5]) if len(row) > 5 else "",
                )
                for row in doc.get("spans", [])
            ],
            counters={
                name: {int(task): int(v) for task, v in per.items()}
                for name, per in doc.get("counters", {}).items()
            },
            gauges={
                name: {int(task): int(v) for task, v in per.items()}
                for name, per in doc.get("gauges", {}).items()
            },
            projected=projected,
        )

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(self.as_dict(), sort_keys=True))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunTelemetry":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _sweep_spool(spool_dir: str, owned_root: Optional[str]) -> None:
    """Remove the spool directory (and a collector-owned temp root)."""
    shutil.rmtree(spool_dir, ignore_errors=True)
    if owned_root is not None:
        shutil.rmtree(owned_root, ignore_errors=True)


class TelemetryCollector:
    """Owns one run's spool directory and merges its records.

    ``directory=None`` spools under a private temp directory that is
    removed entirely on :meth:`close` (telemetry consumed in memory);
    otherwise ``directory`` is created if needed, the spool lives in a
    ``spool/`` subdirectory, and only the spool is swept — exported
    artifacts written next to it persist.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            self.root = Path(tempfile.mkdtemp(prefix="metaprep-telemetry-"))
            owned_root = str(self.root)
        else:
            self.root = Path(directory)
            self.root.mkdir(parents=True, exist_ok=True)
            owned_root = None
        self.spool_dir = self.root / SPOOL_SUBDIR
        self.spool_dir.mkdir(exist_ok=True)
        self.t0_ns = time.perf_counter_ns()
        self._offsets: Dict[str, int] = {}
        self._spans: List[SpanEvent] = []
        self._counters: Dict[str, Dict[int, int]] = {}
        self._gauges: Dict[str, Dict[int, int]] = {}
        self._finalizer = weakref.finalize(
            self, _sweep_spool, str(self.spool_dir), owned_root
        )

    @property
    def settings(self) -> TelemetrySettings:
        return TelemetrySettings(spool_dir=str(self.spool_dir))

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    # ------------------------------------------------------------------
    def merge(self) -> int:
        """Fold new complete spool records into the accumulators.

        Called at stage barriers (every writer of the preceding stage
        has returned, so its records are fully on disk).  Incremental:
        per-file offsets make each call read only bytes appended since
        the previous one.  Returns the number of records merged.
        """
        if not self.spool_dir.is_dir():
            return 0
        n = 0
        for path in sorted(self.spool_dir.glob("*.evt")):
            key = path.name
            host = spool_host(key)
            records, offset = read_spool(path, self._offsets.get(key, 0))
            self._offsets[key] = offset
            for rec in records:
                if rec.kind == KIND_SPAN:
                    self._spans.append(
                        SpanEvent(
                            name=rec.name,
                            task=rec.task,
                            aux=rec.aux,
                            t0_ns=rec.value_a,
                            t1_ns=rec.value_b,
                            host=host,
                        )
                    )
                elif rec.kind == KIND_COUNTER:
                    per = self._counters.setdefault(rec.name, {})
                    per[rec.task] = per.get(rec.task, 0) + rec.value_a
                elif rec.kind == KIND_GAUGE:
                    per = self._gauges.setdefault(rec.name, {})
                    per[rec.task] = max(per.get(rec.task, 0), rec.value_a)
                # unknown kinds: forward-compatibly ignored
            n += len(records)
        return n

    def finalize(
        self, n_tasks: int, projected: ProjectedTimes | None = None
    ) -> RunTelemetry:
        """One last merge, then the immutable run record."""
        self.merge()
        return RunTelemetry(
            t0_ns=self.t0_ns,
            n_tasks=n_tasks,
            spans=sorted(self._spans, key=lambda s: (s.t0_ns, s.task, s.name)),
            counters={k: dict(v) for k, v in self._counters.items()},
            gauges={k: dict(v) for k, v in self._gauges.items()},
            projected=projected,
        )

    def close(self) -> None:
        """Sweep the spool (idempotent; the pipeline's ``finally``)."""
        self._finalizer()
