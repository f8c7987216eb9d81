"""Runner of the pipeline workloads: FASTQ in -> partitions out.

Every pipeline run happens in a fresh program process (:mod:`child`),
so set-up and peak memory belong to that process tree alone.  Each run
is checked against the workload's reference (:func:`reference`).
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from common import (
    SETUP_PROBES,
    WORK,
    Outcome,
    cached_json,
    dataset_units,
    key_of,
    median,
    reference_partition,
    run_child,
    src_sha256,
)
import oracle
import tracing


@dataclass(frozen=True)
class PipelineWorkload:
    dataset: str
    scale: float
    #: ``PipelineConfig`` keywords of the measured runs
    config: Dict = field(default_factory=dict)

    def serial_config(self) -> Dict:
        """The same decomposition and spill mode on the serial engine."""
        cfg = dict(self.config)
        cfg.update(executor="serial", dataplane="heap")
        cfg.pop("max_workers", None)
        return cfg

    @property
    def n_workers(self) -> int:
        if self.config.get("executor") == "process":
            return self.config["max_workers"]
        return 1


def reference(workload: PipelineWorkload, units, seed: int) -> Dict:
    """The label digest and work counters every run must give.

    All but one come from the input alone: the digest, ``kmers.tuples``
    and ``cc.components`` from :mod:`oracle`; ``partition.bytes_written``
    is the input's size, as every read is written once as it was read;
    ``spill.bytes`` is every tuple once under ``spill=always`` and 0
    under ``spill=never``.  ``sort.radix_calls`` depends on how the
    program splits its work, so it comes from one run of the program on
    the serial engine, cached per input and seed; the source it came from
    is recorded with it.
    """
    cfg = workload.serial_config()
    key = key_of(workload.dataset, workload.scale, seed, cfg)

    def serial_run() -> Dict:
        _, result, error = run_child({"config": cfg, "units": units}, WORK / "ref" / key)
        if result is None:
            raise RuntimeError(f"reference run failed: {error}")
        return {"sort.radix_calls": result["counters"]["sort.radix_calls"], "src_sha256": src_sha256()}

    serial = cached_json(WORK / "ref" / f"radix-{key}.json", serial_run)
    part = reference_partition(units, cfg["k"])
    spilled = {"never": 0, "always": part["tuples"] * oracle.TUPLE_BYTES}[cfg["spill"]]
    return {
        "digest": part["digest"],
        "counters": {
            "kmers.tuples": part["tuples"],
            "sort.radix_calls": serial["sort.radix_calls"],
            "cc.components": part["n_components"],
            "partition.bytes_written": sum(os.path.getsize(path) for path in units[0]),
            "spill.bytes": spilled,
        },
        "sort.radix_calls from src_sha256": serial["src_sha256"],
    }


def check(result: Dict | None, ref: Dict) -> str:
    """'' when the run matches the reference, else what differs."""
    if result is None:
        return "run failed"
    if result["digest"] != ref["digest"]:
        return "label digest differs from the reference"
    bad = {k: v for k, v in result["counters"].items() if ref["counters"].get(k) != v}
    if bad:
        return f"work counters differ from the reference: {bad}"
    return ""


def _one_run(workload, units, ref, rundir: Path, outcome: Outcome, trace_dir=None):
    request = {"config": workload.config, "units": units, "output_dir": str(rundir / "out")}
    if trace_dir is not None:
        request["trace_dir"] = str(trace_dir)
    _, result, error = run_child(request, rundir)
    shutil.rmtree(rundir / "out", ignore_errors=True)
    mismatch = check(result, ref) if result is not None else ""
    outcome.add(error or mismatch, wrong=bool(mismatch))
    return result if not (error or mismatch) else None


def measure(workload: PipelineWorkload, seed: int, seconds: float, outcome: Outcome) -> Dict:
    """End-to-end metrics of closed-loop runs for ``seconds``; set-up is
    timed on launches made before the input exists."""
    rundir = WORK / "runs" / f"p{seed}"
    setups = [
        run_child({"config": workload.config, "setup_only": True}, rundir)[0]
        for _ in range(SETUP_PROBES)
    ]
    units = dataset_units(workload.dataset, workload.scale, seed)
    ref = reference(workload, units, seed)
    walls, rss = [], []
    t0 = time.perf_counter()
    while True:
        result = _one_run(workload, units, ref, rundir, outcome)
        if result is not None:
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        if time.perf_counter() - t0 >= seconds:
            break
    elapsed = time.perf_counter() - t0
    shutil.rmtree(rundir, ignore_errors=True)
    return {
        "wall_s": median(walls),
        "ops_per_s": len(walls) / elapsed,
        "peak_rss_mb": median(rss),
        "setup_s": median(setups),
        "_counts": {"runs": len(walls), "setup": len(setups)},
        "_walls_s": walls,
        "_setups_s": setups,
        "_reference": ref,
    }


def traced(workload: PipelineWorkload, seed: int, outcome: Outcome) -> Dict:
    """Per-layer metrics: one untraced run, then one traced run."""
    units = dataset_units(workload.dataset, workload.scale, seed)
    ref = reference(workload, units, seed)
    rundir = WORK / "runs" / f"t{seed}"
    plain = _one_run(workload, units, ref, rundir, outcome)
    trace_dir = rundir / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    result = _one_run(workload, units, ref, rundir, outcome, trace_dir=trace_dir)
    spans = tracing.read_spans(trace_dir)
    shutil.rmtree(rundir, ignore_errors=True)
    if plain is None or result is None:
        return {"trace.wall_s": math.nan}  # no per-layer figures: not correct
    root = next(s for s in spans if s[1] == tracing.ROOT)
    metrics = tracing.layer_metrics(spans, root[2], root[3], main_pid=root[0][0], n_workers=workload.n_workers)
    metrics["trace.overhead_share"] = (root[3] - root[2]) / 1e9 / plain["wall_s"] - 1.0
    metrics.update(result["counters"], _reference=ref)
    return metrics
