"""Integration of preprocessing with the assembler substrate: the Table
8/9 workflow (partition, then assemble LC and Other independently)."""

import pytest

from repro.assembly.assembler import AssemblyConfig, MiniAssembler
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.kmers.filter import FrequencyFilter


@pytest.fixture(scope="module")
def partitioned(tiny_hg, tmp_path_factory):
    out = tmp_path_factory.mktemp("t89")
    cfg = PipelineConfig(k=27, m=5, n_tasks=1, n_threads=2)
    res = MetaPrep(cfg).run(tiny_hg.units, output_dir=out)
    return res


@pytest.fixture(scope="module")
def assembler():
    return MiniAssembler(AssemblyConfig(k=16, min_count=2, min_contig_length=50))


class TestPartitionThenAssemble:
    def test_partitions_assemble_independently(self, partitioned, assembler, tiny_hg):
        full = assembler.assemble_units(tiny_hg.units)
        lc = assembler.assemble_files(partitioned.partition.lc_files)
        other = assembler.assemble_files(partitioned.partition.other_files)
        assert lc.n_reads + other.n_reads == full.n_reads
        # LC dominates the assembly
        assert lc.stats.total_bp > other.stats.total_bp

    def test_no_filter_quality_similar(self, partitioned, assembler, tiny_hg):
        """Table 9: 'No Preproc' vs 'No Filter' produce very similar
        qualitative results — partitioning alone loses almost nothing."""
        full = assembler.assemble_units(tiny_hg.units)
        lc = assembler.assemble_files(partitioned.partition.lc_files)
        other = assembler.assemble_files(partitioned.partition.other_files)
        combined_bp = lc.stats.total_bp + other.stats.total_bp
        assert combined_bp == pytest.approx(full.stats.total_bp, rel=0.10)
        assert max(lc.stats.max_bp, other.stats.max_bp) == pytest.approx(
            full.stats.max_bp, rel=0.15
        )

    def test_lc_assembly_faster_than_full(self, partitioned, assembler, tiny_hg):
        """Table 8's speedup source: assembling the (smaller) LC costs less
        than assembling everything."""
        full = assembler.assemble_units(tiny_hg.units)
        lc = assembler.assemble_files(partitioned.partition.lc_files)
        assert lc.n_reads <= full.n_reads
        # runtime ordering is noisy at this scale; require input ordering
        # plus non-degenerate times
        assert full.seconds > 0 and lc.seconds > 0


class TestFilteredPartitionAssembly:
    def test_filter_shrinks_lc_input(self, tiny_hg, tmp_path_factory):
        out = tmp_path_factory.mktemp("t89f")
        base_cfg = PipelineConfig(
            k=27, m=5, n_threads=2
        )
        base = MetaPrep(base_cfg).run(tiny_hg.units)
        cfg = PipelineConfig(
            k=27,
            m=5,
            n_threads=2,
            kmer_filter=FrequencyFilter(max_freq=12),
        )
        res = MetaPrep(cfg).run(tiny_hg.units, output_dir=out)
        assert (
            res.partition.summary.largest_component_size
            <= base.partition.summary.largest_component_size
        )
