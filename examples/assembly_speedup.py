#!/usr/bin/env python
"""Preprocessing + assembly: the Tables 8/9 workflow.

Partitions a mock-community analogue with METAPREP (with the paper's
k-mer frequency filter), assembles the whole dataset, the largest
component, and the remainder independently with the de Bruijn unitig
assembler, and compares times and assembly quality.

Run:  python examples/assembly_speedup.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro import MetaPrep, PipelineConfig, build_dataset
from repro.assembly.assembler import AssemblyConfig, MiniAssembler
from repro.core.report import format_table
from repro.kmers.filter import FrequencyFilter


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="metaprep_assembly_")
    )
    dataset = build_dataset("MM", workdir / "data", seed=2, scale=0.6)
    print(
        f"MM analogue: {dataset.n_pairs} pairs, "
        f"{dataset.total_bases / 1e6:.2f} Mbp"
    )

    # Partition with the paper's KF < 30 frequency filter.
    config = PipelineConfig(
        k=27,
        m=6,
        n_threads=4,
        kmer_filter=FrequencyFilter(max_freq=30),
    )
    prep = MetaPrep(config).run(dataset.units, output_dir=workdir / "parts")
    print(
        f"METAPREP ({prep.measured.total:.2f}s): LC holds "
        f"{prep.partition.summary.largest_component_percent:.1f}% of reads "
        f"(filter: {config.kmer_filter.describe()})"
    )

    assembler = MiniAssembler(AssemblyConfig(k=16, min_count=2, min_contig_length=50))
    full = assembler.assemble_units(dataset.units)
    lc = assembler.assemble_files(prep.partition.lc_files)
    other = assembler.assemble_files(prep.partition.other_files)

    rows = []
    for label, result in (
        ("No Preproc", full),
        ("LC", lc),
        ("Other", other),
    ):
        s = result.stats
        rows.append(
            [
                label,
                result.n_reads,
                f"{result.seconds:.2f}s",
                s.n_contigs,
                f"{s.total_bp / 1e3:.1f} kbp",
                s.max_bp,
                s.n50,
            ]
        )
    print()
    print(
        format_table(
            ["assembly", "reads", "time", "contigs", "total", "max", "N50"],
            rows,
        )
    )

    speedup = full.seconds / (prep.measured.total + lc.seconds)
    print(
        f"\nLC and Other can be assembled in parallel on 2 nodes; "
        f"end-to-end speedup metric (paper Table 8): {speedup:.2f}x"
    )
    print(
        "(at paper scale assembly dwarfs preprocessing, giving 1.22-1.36x;"
        " at this scale the preprocessing share is proportionally larger)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
