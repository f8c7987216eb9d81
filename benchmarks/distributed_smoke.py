"""Distributed smoke: two loopback workers, bit-identity, wire accounting.

CI driver for the ``distributed-smoke`` job (also runnable locally):

1. builds the IS smoke analogue and spawns two real ``metaprep worker``
   daemon *subprocesses* on loopback (ephemeral ports, addresses parsed
   from their announce lines),
2. runs the same prebuilt index through the ``serial`` reference engine
   and the ``distributed`` engine with telemetry on, and asserts

   * partition labels and parent arrays are **bit-identical**,
   * every shared counter total is **engine-equal** (the work the
     algorithm does cannot depend on where it runs),
   * metered wire traffic equals the byte-accounting model:
     ``net.bytes_sent == net.bytes_recv == comm.wire_bytes`` and both
     equal the ``block_exchange_stats`` prediction summed over passes,

3. writes ``BENCH_distributed.json`` (wall times, counters, hosts) and
   leaves the distributed run's telemetry directory behind for the job
   to upload (the gap report is re-exported with ``metaprep trace``).

Environment knobs::

    METAPREP_DIST_SMOKE_SCALE   dataset scale (default 0.2)
    METAPREP_DIST_SMOKE_DIR     working directory (default ./dist-smoke)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

K = 27
M_MER = 6
N_TASKS = 2
N_THREADS = 2
N_PASSES = 2

SHARED_COUNTERS = (
    "kmergen.tuples_routed",
    "comm.bytes_moved",
    "comm.wire_bytes",
    "buffers.bytes_allocated",
    "sort.radix_passes",
    "sort.histogram_fills",
    "cc.unions",
    "cc.find_steps",
)


def _spawn_worker() -> tuple[subprocess.Popen, str]:
    """Start one daemon subprocess; returns (process, announced address)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    line = proc.stdout.readline().strip()
    prefix = "metaprep worker listening on "
    assert line.startswith(prefix), f"unexpected announce line: {line!r}"
    return proc, line[len(prefix):]


def main() -> int:
    import numpy as np

    from repro.core.config import PipelineConfig
    from repro.core.pipeline import MetaPrep
    from repro.datasets.registry import build_dataset
    from repro.index.create import index_create

    scale = float(os.environ.get("METAPREP_DIST_SMOKE_SCALE", "0.2"))
    root = Path(os.environ.get("METAPREP_DIST_SMOKE_DIR", "dist-smoke"))
    root.mkdir(parents=True, exist_ok=True)
    telemetry_dir = root / "telemetry-dist"

    built = build_dataset("IS", root / "data", seed=11, scale=scale)
    index = index_create(built.units, k=K, m=M_MER, n_chunks=8)
    print(
        f"dist-smoke: IS x{scale:g}: {index.merhist.total_tuples} tuples"
    )

    workers = [_spawn_worker(), _spawn_worker()]
    addresses = tuple(address for _, address in workers)
    print(f"dist-smoke: workers at {', '.join(addresses)}")

    def run(executor, **overrides):
        cfg = PipelineConfig(
            k=K,
            m=M_MER,
            n_tasks=N_TASKS,
            n_threads=N_THREADS,
            n_passes=N_PASSES,
            executor=executor,
            max_workers=2,
            **overrides,
        )
        t0 = time.perf_counter()
        result = MetaPrep(cfg).run(built.units, index=index)
        return result, time.perf_counter() - t0

    try:
        serial, serial_seconds = run("serial")
        dist, dist_seconds = run(
            "distributed",
            worker_addresses=addresses,
            telemetry_dir=str(telemetry_dir),
        )
    finally:
        for proc, _ in workers:
            proc.terminate()
        for proc, _ in workers:
            proc.wait(timeout=10)

    # --- bit-identity -------------------------------------------------
    assert np.array_equal(serial.partition.labels, dist.partition.labels), (
        "distributed partition labels diverge from serial"
    )
    assert np.array_equal(serial.partition.parent, dist.partition.parent)
    assert serial.partition.summary == dist.partition.summary
    print("dist-smoke: partition bit-identical across engines")

    # --- engine-equal counter totals ---------------------------------
    st = serial.telemetry.counter_totals()
    dt = dist.telemetry.counter_totals()
    for name in SHARED_COUNTERS:
        assert st.get(name) == dt.get(name), (
            f"counter {name} diverges: serial {st.get(name)} "
            f"!= distributed {dt.get(name)}"
        )
    print(f"dist-smoke: {len(SHARED_COUNTERS)} counter totals engine-equal")

    # --- wire accounting == the model --------------------------------
    predicted = sum(s.wire_bytes_total for s in dist.comm_stats)
    sent = dt["net.bytes_sent"]
    recv = dt["net.bytes_recv"]
    assert sent == recv == dt["comm.wire_bytes"] == predicted, (
        f"wire accounting diverges: sent {sent}, recv {recv}, "
        f"counted {dt['comm.wire_bytes']}, predicted {predicted}"
    )
    hosts = dist.telemetry.hosts_seen()
    assert set(hosts) == set(addresses), (
        f"span host attribution {hosts} != worker registry {addresses}"
    )
    print(
        f"dist-smoke: net.bytes_sent == net.bytes_recv == comm.wire_bytes "
        f"== predicted == {sent}"
    )

    doc = {
        "dataset": "IS",
        "scale": scale,
        "config": {
            "k": K,
            "m": M_MER,
            "n_tasks": N_TASKS,
            "n_threads": N_THREADS,
            "n_passes": N_PASSES,
        },
        "n_workers": len(addresses),
        "wall_seconds_serial": round(serial_seconds, 4),
        "wall_seconds_distributed": round(dist_seconds, 4),
        "bit_identical": True,
        "wire_bytes_predicted": int(predicted),
        "net": {
            "bytes_sent": int(sent),
            "bytes_recv": int(recv),
            "frames": int(dt["net.frames"]),
            "worker_connects": int(dt["worker.connects"]),
        },
        "hosts_seen": len(hosts),
    }
    out = Path("BENCH_distributed.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"dist-smoke: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
