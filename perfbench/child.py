"""One program process: import, start the engine, then one pipeline run.

Started by ``common.run_child`` as ``python child.py <request.json>``.  The
request names the input files, the ``PipelineConfig`` keywords, the
output directory and, for a traced run, the trace directory.  The
process prints ``READY`` once imports and the engine start are done
(the parent times launch -> ``READY`` as set-up), then one JSON line
with the run's wall time, its outputs' digest, the work counters and
the peak memory: this process's peak plus that of its largest reaped
child (``getrusage`` reports only the largest), so under the process
engine the second pool worker is left out.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def work_counters(result) -> dict:
    """The deterministic work counters every measured run is checked on."""
    from repro.sort.radix import radix_passes_for

    written = result.partition.bytes_written  # None when no outputs were written
    spilled = sum(
        int(result.comm_stats[s].bytes_matrix.sum()) for s in result.spilled_passes
    )
    return {
        "kmers.tuples": int(result.total_tuples),
        # each radix_sort_block call adds its nominal pass count
        "sort.radix_calls": int(
            result.sort_stats.passes_nominal // radix_passes_for(result.config.k)
        ),
        "cc.components": int(result.partition.summary.n_components),
        "partition.bytes_written": int(written.sum()) if written is not None else 0,
        "spill.bytes": spilled,
    }


def label_digest(labels) -> str:
    """SHA-256 of the partition the labels describe: components renumbered
    in the order of their smallest read id, as :mod:`oracle` numbers them,
    so the digest does not depend on which id a union-find kept as root."""
    import numpy as np

    _, first, inverse = np.unique(np.asarray(labels), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return hashlib.sha256(rank[inverse.ravel()].tobytes()).hexdigest()


def peak_rss_kb() -> int:
    """This process's own peak (``VmHWM``).  ``getrusage(RUSAGE_SELF)``
    would not do: Linux carries the peak of the process image replaced
    by ``exec`` into it, here the benchmark process that spawned this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(request_path: str) -> int:
    with open(request_path) as fh:
        request = json.load(fh)
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import MetaPrep
    from repro.runtime.executor import create_engine

    config = PipelineConfig(**request["config"])
    engine = create_engine(config.executor, config.max_workers)
    engine.set_shared(None)
    engine.map(abs, [0, 1])  # the process engine forks its pool here
    engine.close()
    uninstall = None
    if request.get("trace_dir"):
        from tracing import Tracer, install

        uninstall = install(Tracer(request["trace_dir"]))
    print("READY", flush=True)
    if request.get("setup_only"):
        return 0

    units = [tuple(u) for u in request["units"]]
    t0 = time.perf_counter()
    result = MetaPrep(config).run(units, output_dir=request.get("output_dir"))
    wall = time.perf_counter() - t0
    if uninstall is not None:
        uninstall()
    rss_kb = peak_rss_kb() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(
        json.dumps(
            {
                "wall_s": wall,
                "digest": label_digest(result.partition.labels),
                "counters": work_counters(result),
                "peak_rss_mb": rss_kb / 1024.0,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
