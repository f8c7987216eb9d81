"""Executor backend speedup: serial vs a real multiprocessing pool.

The ``process`` engine exists to spend real cores on the per-chunk
KmerGen and per-owner Sort+CC loops.  This benchmark times identical
pipeline runs under both engines on the HG analogue, asserts they remain
bit-identical, and records the wall-clock ratio to the reports directory.

The >1.3x speedup acceptance bar is only enforced where it is physically
possible — on hosts with at least 4 CPU cores.  On smaller hosts the
ratio is still measured and reported (pool overhead typically makes it
< 1 there), but only bit-identity is asserted.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_M
from benchmarks.reporting import table_lines, write_report
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep

N_WORKERS = 4
SPEEDUP_BAR = 1.3


def _timed_run(ctx, executor):
    ds = ctx.dataset("HG")
    index = ctx.index("HG", k=27, n_chunks=32, m=BENCH_M)
    cfg = PipelineConfig(
        k=27,
        m=BENCH_M,
        n_tasks=4,
        n_threads=2,
        n_passes=2,
        n_chunks=32,
        executor=executor,
        max_workers=N_WORKERS,
    )
    start = time.perf_counter()
    result = MetaPrep(cfg).run(ds.units, index=index)
    return result, time.perf_counter() - start


@pytest.mark.benchmark(group="executor")
def test_executor_speedup(ctx, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    serial, t_serial = _timed_run(ctx, "serial")
    process, t_process = _timed_run(ctx, "process")

    # the engines must agree bit-for-bit regardless of how fast they are
    assert np.array_equal(
        serial.partition.labels, process.partition.labels
    )
    assert np.array_equal(
        serial.partition.parent, process.partition.parent
    )
    assert serial.partition.summary == process.partition.summary

    cores = os.cpu_count() or 1
    speedup = t_serial / t_process if t_process > 0 else float("inf")
    rows = [
        ["serial", 1, f"{t_serial:.3f}", "1.00"],
        ["process", N_WORKERS, f"{t_process:.3f}", f"{speedup:.2f}"],
    ]
    write_report(
        "executor_speedup",
        f"executor wall time, HG analogue, P=4 T=2 S=2 ({cores} cores)",
        table_lines(["engine", "workers", "seconds", "speedup"], rows),
    )

    if cores >= N_WORKERS:
        assert speedup > SPEEDUP_BAR, (
            f"process engine with {N_WORKERS} workers on {cores} cores "
            f"achieved only {speedup:.2f}x over serial"
        )
