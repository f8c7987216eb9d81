import numpy as np
import pytest

from repro.index.fastqpart import build_fastqpart, load_chunk_reads
from repro.index.offsets import (
    chunk_assignment,
    chunk_send_counts,
    recv_write_offsets,
    send_counts_matrix,
)
from repro.index.passplan import balanced_boundaries
from repro.kmers.engine import enumerate_canonical_kmers
from repro.seqio.fastq import write_fastq
from repro.seqio.records import FastqRecord


K, M = 9, 4


@pytest.fixture()
def table(tmp_path, rng):
    from tests.conftest import random_reads

    recs = [
        FastqRecord(f"r{i}", s, "I" * len(s))
        for i, s in enumerate(random_reads(rng, 40, 30))
    ]
    p = tmp_path / "reads.fastq"
    write_fastq(p, recs)
    return build_fastqpart([str(p)], k=K, m=M, n_chunks=8)


class TestChunkAssignment:
    def test_round_robin(self):
        a = chunk_assignment(10, 2, 2)
        assert a.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_every_slot_used_when_enough_chunks(self):
        a = chunk_assignment(16, 2, 4)
        assert set(a.tolist()) == set(range(8))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            chunk_assignment(4, 0, 2)


class TestSendCounts:
    def _actual_counts(self, table, assignment, edges, P, T, lo=0, hi=None):
        """Ground truth by running the actual enumeration."""
        hi = hi if hi is not None else table.n_bins
        actual = np.zeros((P, T, P), dtype=np.int64)
        for c in range(table.n_chunks):
            p, t = divmod(int(assignment[c]), T)
            batch = load_chunk_reads(table, c, keep_metadata=False)
            tuples = enumerate_canonical_kmers(batch, K)
            bins = tuples.kmers.mmer_prefix(M).astype(np.int64)
            bins = bins[(bins >= lo) & (bins < hi)]
            dest = np.clip(np.searchsorted(edges, bins, side="right") - 1, 0, P - 1)
            for d in range(P):
                actual[p, t, d] += int((dest == d).sum())
        return actual

    def test_exactly_predicts_production(self, table):
        P, T = 2, 2
        assignment = chunk_assignment(table.n_chunks, P, T)
        edges = balanced_boundaries(table.global_histogram(), P)
        predicted = send_counts_matrix(table, assignment, edges, P, T)
        actual = self._actual_counts(table, assignment, edges, P, T)
        assert np.array_equal(predicted, actual)

    def test_with_pass_range_restriction(self, table):
        P, T = 2, 2
        assignment = chunk_assignment(table.n_chunks, P, T)
        hist = table.global_histogram()
        lo, hi = 30, 200
        edges = balanced_boundaries(hist, P, lo, hi)
        predicted = send_counts_matrix(
            table, assignment, edges, P, T, pass_lo=lo, pass_hi=hi
        )
        actual = self._actual_counts(table, assignment, edges, P, T, lo, hi)
        assert np.array_equal(predicted, actual)

    def test_total_preserved(self, table):
        P, T = 3, 2
        assignment = chunk_assignment(table.n_chunks, P, T)
        edges = balanced_boundaries(table.global_histogram(), P)
        counts = send_counts_matrix(table, assignment, edges, P, T)
        assert counts.sum() == table.global_histogram().sum()

    def test_wrong_edge_count_rejected(self, table):
        with pytest.raises(ValueError):
            send_counts_matrix(
                table,
                chunk_assignment(table.n_chunks, 2, 2),
                np.array([0, table.n_bins]),
                2,
                2,
            )


def _layout(table, P, T):
    """The pipeline's pass layout: per-chunk counts, their receive-side
    offsets, and the per-thread send counts of the same decomposition."""
    assignment = chunk_assignment(table.n_chunks, P, T)
    edges = balanced_boundaries(table.global_histogram(), P)
    per_chunk = chunk_send_counts(table, edges, P)
    send = send_counts_matrix(table, assignment, edges, P, T)
    return assignment, per_chunk, send, recv_write_offsets(per_chunk, assignment, P, T)


class TestRecvCounts:
    def test_transpose_relation(self, table):
        P, T = 2, 2
        _, _, send, (_, sender_splits, _) = _layout(table, P, T)
        # source p's region in destination d's block holds what p's
        # threads send to d
        for p in range(P):
            for d in range(P):
                region = sender_splits[p + 1, d] - sender_splits[p, d]
                assert region == send[p, :, d].sum()

    def test_conservation(self, table):
        P, T = 4, 1
        _, per_chunk, send, (_, _, totals) = _layout(table, P, T)
        assert np.array_equal(totals, send.sum(axis=(0, 1)))
        assert totals.sum() == per_chunk.sum() == send.sum()


class TestRecvWriteOffsets:
    def test_layout_source_major_chunk_minor(self, table):
        P, T = 2, 3
        assignment, per_chunk, _, (offsets, sender_splits, totals) = _layout(
            table, P, T
        )
        tasks = assignment // T
        for d in range(P):
            # chunks in receive order tile the block exactly: source task
            # ascending, then chunk id ascending, no gaps, no overlap
            order = sorted(range(table.n_chunks), key=lambda c: (tasks[c], c))
            end = 0
            for c in order:
                assert offsets[c, d] == end
                end += per_chunk[c, d]
            assert end == totals[d]
            # every chunk writes inside its source task's region
            for c in range(table.n_chunks):
                p = tasks[c]
                assert sender_splits[p, d] <= offsets[c, d]
                assert offsets[c, d] + per_chunk[c, d] <= sender_splits[p + 1, d]

    def test_offsets_start_at_zero(self, table):
        P, T = 2, 3
        assignment, _, _, (offsets, sender_splits, _) = _layout(table, P, T)
        first = min(range(table.n_chunks), key=lambda c: (assignment[c] // T, c))
        assert np.all(offsets[first] == 0)
        assert np.all(sender_splits[0] == 0)

    def test_assignment_length_mismatch_rejected(self, table):
        P, T = 2, 2
        _, per_chunk, _, _ = _layout(table, P, T)
        with pytest.raises(ValueError, match="assignment covers"):
            recv_write_offsets(per_chunk, np.zeros(1, dtype=np.int64), P, T)
