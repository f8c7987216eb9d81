"""Machine models for timing projection.

Two machines from the paper (section 4):

* **Edison** — NERSC Cray XC30: two 12-core Xeon E5-2695v2 per node (24
  cores), 64 GB/node, STREAM Triad 99 GB/s, 8 GB/s point-to-point links,
  Lustre scratch with scalable parallel I/O.
* **Ganga** — Penn State cluster node: two 6-core Xeon E5-2620 (12 cores),
  64 GB/node, a shared NFS-style file system whose *writes do not scale
  with threads* (the paper: "Parallel file writes do not scale well on the
  shared file system of Ganga, resulting in poor overall scalability").

The per-core rate constants are calibration inputs, not measurements of
this Python implementation: they set the absolute scale so projected times
land in the same range as the paper's; every *relative* effect (speedup
curves, step mix, crossovers) comes from work volumes measured on the real
algorithm run.  Constants were chosen once from the paper's own numbers
(e.g. LocalSort at 154M tuples/s on 24 cores => ~51M tuple-passes/s/core)
and are not tuned per-experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1_000_000_000


@dataclass(frozen=True)
class MachineSpec:
    """Projection constants for one machine."""

    name: str
    cores_per_node: int
    memory_per_node: int  # bytes

    # memory system
    stream_bw: float  # bytes/s, STREAM Triad per node

    # interconnect
    link_bw: float  # bytes/s point-to-point
    link_latency: float  # seconds per message
    comm_setup_first_pass: float  # one-time all-to-all setup (paper 4.1.4)
    comm_setup_next_pass: float

    # file system
    fs_read_bw: float  # aggregate bytes/s across the whole system
    fs_write_bw: float
    node_io_bw: float  # per-node injection cap
    #: bandwidth a single thread's stream achieves; parallel per-thread
    #: files are how METAPREP saturates node_io_bw (Lustre).  On a shared
    #: FS set this >= fs bandwidth: extra threads then buy nothing.
    io_stream_bw: float
    io_scales_with_nodes: bool  # Lustre yes; Ganga shared FS no

    # per-core algorithmic rates (ops/s/core)
    kmer_rate: float  # canonical k-mer tuples generated
    sort_rate: float  # tuple-passes (one tuple through one radix pass)
    partition_rate: float  # tuples range-partitioned
    uf_rate: float  # union-find edge operations
    merge_rate: float  # component-array entries folded in MergeCC
    fastq_parse_rate: float  # input bytes parsed (beyond raw I/O)

    # fixed overheads
    pass_overhead: float  # seconds of per-pass orchestration
    localcc_opt_speedup: float  # rate multiplier for passes >= 2 (sec 3.5.1)

    #: memory traffic per unit of work, per kernel class.  Streaming
    #: kernels (KmerGen) touch little; random-scatter kernels (radix
    #: passes, range partitioning) pay whole cache lines per element,
    #: which is what saturates STREAM bandwidth and bends the 24-thread
    #: speedup below ideal (Fig. 5's 14.5x).
    kmer_bytes_touched: float = 24.0
    sort_bytes_touched: float = 128.0
    partition_bytes_touched: float = 128.0

    #: shared-FS contention: effective bandwidth divides by
    #: ``1 + alpha * (streams - 1)`` when the FS does not scale
    #: (the paper's Ganga write pathology).  0 for scalable FS.
    io_contention_alpha: float = 0.0

    #: communication slowdown under memory pressure.  The paper's Table 3
    #: measures KmerGen-Comm *decreasing* as passes increase (20.9s at 1
    #: pass vs 8.6s at 8, same wire volume): at 1 pass the tuple buffers
    #: fill ~50 of 64 GB/node and transferring huge resident buffers
    #: thrashes.  Volume term multiplier:
    #: ``1 + penalty * max(0, util - floor) / (1 - floor)``.
    comm_memory_pressure_penalty: float = 6.0
    comm_pressure_floor: float = 0.1

    #: how many threads usefully parallelize the MergeCC fold (the
    #: received component array is processed in contiguous slices; gains
    #: taper well before the full core count because the union targets
    #: contend).
    merge_parallel_max: int = 8

    def task_io_read_bw(self, n_tasks: int) -> float:
        """Effective read bandwidth available to one task."""
        # Lustre: aggregate splits across nodes but each node also has an
        # injection cap; shared FS: the aggregate does not grow, same split.
        share = self.fs_read_bw / n_tasks
        return min(self.node_io_bw, max(share, 1.0))

    def task_io_write_bw(self, n_tasks: int) -> float:
        share = self.fs_write_bw / n_tasks
        return min(self.node_io_bw, max(share, 1.0))

    def core_rate_with_saturation(
        self, base_rate: float, threads: int, bytes_touched: float | None = None
    ) -> float:
        """Per-thread rate once ``threads`` contend for cores + memory BW.

        Threads beyond the physical core count add no throughput
        (hyperthread sweeps like the paper's Ganga 24-thread runs on 12
        cores), and aggregate ``rate * bytes_touched`` demand is capped by
        STREAM bandwidth.
        """
        if bytes_touched is None:
            bytes_touched = self.kmer_bytes_touched
        effective = base_rate * min(1.0, self.cores_per_node / threads)
        demand = effective * bytes_touched * threads
        if demand <= self.stream_bw:
            return effective
        return self.stream_bw / (bytes_touched * threads)


EDISON = MachineSpec(
    name="edison",
    cores_per_node=24,
    memory_per_node=64 * 2**30,
    stream_bw=99 * GB,
    link_bw=8 * GB,
    link_latency=5e-6,
    comm_setup_first_pass=2.5,
    comm_setup_next_pass=0.05,
    fs_read_bw=48 * GB,
    fs_write_bw=32 * GB,
    node_io_bw=2.2 * GB,
    io_stream_bw=0.3 * GB,
    io_scales_with_nodes=True,
    kmer_rate=38e6,
    sort_rate=51e6,
    partition_rate=120e6,
    uf_rate=28e6,
    merge_rate=90e6,
    fastq_parse_rate=900e6,
    pass_overhead=0.12,
    localcc_opt_speedup=2.2,
)

GANGA = MachineSpec(
    name="ganga",
    cores_per_node=12,
    memory_per_node=64 * 2**30,
    stream_bw=42 * GB,
    link_bw=1 * GB,
    link_latency=2e-5,
    comm_setup_first_pass=3.0,
    comm_setup_next_pass=0.4,
    fs_read_bw=1.2 * GB,
    fs_write_bw=0.35 * GB,
    node_io_bw=1.2 * GB,
    io_stream_bw=1.2 * GB,
    io_scales_with_nodes=False,
    kmer_rate=19e6,
    sort_rate=26e6,
    partition_rate=60e6,
    uf_rate=15e6,
    merge_rate=45e6,
    fastq_parse_rate=450e6,
    pass_overhead=0.2,
    localcc_opt_speedup=2.2,
    io_contention_alpha=0.10,
)

_MACHINES = {m.name: m for m in (EDISON, GANGA)}

#: registered machine-model names, in registration order
MACHINE_NAMES = tuple(_MACHINES)


def get_machine(name: str) -> MachineSpec:
    """Look up a machine model by name (``"edison"`` or ``"ganga"``)."""
    try:
        return _MACHINES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; available: {sorted(_MACHINES)}"
        ) from None
