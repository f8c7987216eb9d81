#!/usr/bin/env python
"""Paired-end scaffolding: closing the loop on preserved pair information.

METAPREP assigns both mates of a pair one read id precisely so that
partitioned outputs remain usable as paired-end data (paper section 3.2).
This example exercises the payoff end to end:

1. partition a dataset with METAPREP (pairs stay together by
   construction),
2. assemble the largest component into contigs,
3. use the pairs' insert-size information to join contigs into scaffolds,
4. score contigs and scaffolds against the ground-truth genomes.

Run:  python examples/scaffolding.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro import MetaPrep, PipelineConfig, build_dataset
from repro.assembly.assembler import AssemblyConfig, MiniAssembler
from repro.assembly.evaluation import evaluate_against_community
from repro.assembly.scaffold import ScaffoldConfig, scaffold_contigs
from repro.assembly.stats import contig_stats
from repro.seqio.fastq import read_fastq


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="metaprep_scaffold_")
    )
    dataset = build_dataset("HG", workdir / "data", seed=8, scale=1.2)
    print(f"HG analogue: {dataset.n_pairs} pairs")

    # 1. partition
    prep = MetaPrep(
        PipelineConfig(k=27, m=6, n_threads=4)
    ).run(dataset.units, output_dir=workdir / "parts")
    print(
        f"partitioned: LC {prep.partition.summary.largest_component_percent:.1f}%"
    )

    # 2. assemble the largest component
    assembler = MiniAssembler(
        AssemblyConfig(k=20, min_count=2, min_contig_length=60, clean=True)
    )
    lc = assembler.assemble_files(prep.partition.lc_files)
    print(
        f"assembly: {lc.stats.n_contigs} contigs, N50 {lc.stats.n50} bp, "
        f"max {lc.stats.max_bp} bp"
    )

    # 3. scaffold with the preserved pairs (reconstruct mate tuples from
    # the partitioned per-thread files: mates share the name prefix)
    by_name = {}
    for path in prep.partition.lc_files:
        for rec in read_fastq(path):
            stem, mate = rec.name.rsplit("/", 1)
            by_name.setdefault(stem, {})[mate] = rec.sequence
    pairs = [
        (mates["1"], mates["2"])
        for mates in by_name.values()
        if "1" in mates and "2" in mates
    ]
    print(f"pairs preserved through partitioning: {len(pairs)}")
    scaffolds, sstats = scaffold_contigs(
        lc.contigs,
        pairs,
        ScaffoldConfig(
            k_anchor=16,
            min_links=3,
            insert_mean=dataset.spec.insert_mean,
        ),
    )
    sc_stats = contig_stats(scaffolds)
    print(
        f"scaffolding: {sstats.n_links_kept} joins -> "
        f"{sc_stats.n_contigs} scaffolds, N50 {sc_stats.n50} bp "
        f"(contig N50 was {lc.stats.n50})"
    )

    # 4. truth check
    contig_eval = evaluate_against_community(lc.contigs, dataset.community, k=16)
    print(
        f"\nground truth: {100 * contig_eval.correctness_rate:.1f}% of "
        f"contigs exact, genome fraction "
        f"{100 * contig_eval.genome_fraction:.1f}%, "
        f"{contig_eval.n_misassembled} misassemblies"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
