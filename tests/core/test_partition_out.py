import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.seqio.fastq import read_fastq


@pytest.fixture(scope="module")
def written(tiny_hg, tmp_path_factory):
    out = tmp_path_factory.mktemp("parts")
    cfg = PipelineConfig(
        k=27, m=5, n_tasks=2, n_threads=2
    )
    res = MetaPrep(cfg).run(tiny_hg.units, output_dir=out)
    return res, out


class TestPartitionOutput:
    def test_files_per_thread(self, written):
        res, _ = written
        # 2 tasks x 2 threads -> 4 LC files + 4 other files
        assert len(res.partition.lc_files) == 4
        assert len(res.partition.other_files) == 4

    def test_every_read_exactly_once(self, written, tiny_hg):
        res, _ = written
        total = res.partition.lc_reads_written + res.partition.other_reads_written
        assert total == 2 * tiny_hg.n_pairs  # both mates of every pair

    def test_pairs_stay_together(self, written):
        """Both mates of a pair share a read id, hence a component, hence a
        file class — the property that keeps paired-end assembly possible."""
        res, _ = written
        lc_names = set()
        for f in res.partition.lc_files:
            lc_names.update(r.name.rsplit("/", 1)[0] for r in read_fastq(f))
        other_names = set()
        for f in res.partition.other_files:
            other_names.update(r.name.rsplit("/", 1)[0] for r in read_fastq(f))
        assert not (lc_names & other_names)

    def test_lc_reads_belong_to_largest(self, written):
        res, _ = written
        lc_count = res.partition.lc_reads_written
        # both mates of each LC pair
        assert lc_count == 2 * res.partition.summary.largest_component_size

    def test_bytes_accounted(self, written):
        res, _ = written
        assert res.partition.bytes_written is not None
        assert res.partition.bytes_written.sum() > 0
        assert res.work.ccio_bytes.sum() == res.partition.bytes_written.sum()

    def test_sequences_roundtrip(self, written, tiny_hg):
        res, _ = written
        original = {
            r.name: r.sequence
            for path in (tiny_hg.r1_path, tiny_hg.r2_path)
            for r in read_fastq(path)
        }
        for f in res.partition.lc_files + res.partition.other_files:
            for rec in read_fastq(f):
                assert original[rec.name] == rec.sequence

    def test_rerun_truncates_stale_outputs(self, tiny_hg, tmp_path):
        cfg = PipelineConfig(k=27, m=5, n_tasks=1, n_threads=1)
        res1 = MetaPrep(cfg).run(tiny_hg.units, output_dir=tmp_path)
        n1 = res1.partition.lc_reads_written + res1.partition.other_reads_written
        res2 = MetaPrep(cfg).run(tiny_hg.units, output_dir=tmp_path)
        n2 = res2.partition.lc_reads_written + res2.partition.other_reads_written
        assert n1 == n2
        total_on_disk = 0
        for f in res2.partition.lc_files + res2.partition.other_files:
            total_on_disk += len(read_fastq(f))
        assert total_on_disk == n2
