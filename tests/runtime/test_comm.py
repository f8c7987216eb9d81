import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.comm import AllToAllStats, all_to_all_schedule, block_exchange_stats


def custom_all_to_all(send_blocks, nbytes_of):
    """The P-stage all-to-all, moving real payloads: the oracle for
    :func:`block_exchange_stats`.

    ``send_blocks[p][d]`` is the payload task ``p`` sends to task ``d``
    (``nbytes_of`` sizes it).  Returns ``recv_blocks`` with
    ``recv_blocks[d][p]`` = the payload from ``p`` (ordered by source
    rank, whatever stage it landed in), plus the exchange stats.
    """
    n_tasks = len(send_blocks)
    for p, blocks in enumerate(send_blocks):
        if len(blocks) != n_tasks:
            raise ValueError(
                f"task {p} has {len(blocks)} destination blocks, "
                f"expected {n_tasks}"
            )
    stats = AllToAllStats(n_tasks=n_tasks)
    stats.bytes_matrix = np.zeros((n_tasks, n_tasks), dtype=np.int64)
    recv = [[None] * n_tasks for _ in range(n_tasks)]
    schedule = all_to_all_schedule(n_tasks)
    stats.n_stages = len(schedule)
    for pairs in schedule:
        stage_max = 0
        for sender, receiver in pairs:
            payload = send_blocks[sender][receiver]
            size = nbytes_of(payload)
            stats.bytes_matrix[sender, receiver] += size
            if sender != receiver:
                stats.wire_bytes_total += size
                stats.n_messages += 1
                stage_max = max(stage_max, size)
            recv[receiver][sender] = payload
        stats.max_message_bytes_per_stage.append(stage_max)
    return recv, stats


class TestSchedule:
    def test_stage_structure(self):
        sched = all_to_all_schedule(4)
        assert len(sched) == 4
        # stage i: p -> (p+i) mod P
        assert sched[1] == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_each_stage_contention_free(self):
        """In every stage each task sends exactly once and receives exactly
        once — the property that makes the custom all-to-all bandwidth-
        optimal on a full-duplex network."""
        for p in [1, 2, 5, 8, 16]:
            for pairs in all_to_all_schedule(p):
                senders = [s for s, _ in pairs]
                receivers = [r for _, r in pairs]
                assert sorted(senders) == list(range(p))
                assert sorted(receivers) == list(range(p))

    def test_all_pairs_covered_once(self):
        p = 6
        seen = set()
        for pairs in all_to_all_schedule(p):
            seen.update(pairs)
        assert len(seen) == p * p

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            all_to_all_schedule(0)


class TestCustomAllToAll:
    """The oracle itself: delivery and byte accounting of the schedule."""

    def _blocks(self, p, rng):
        return [
            [rng.integers(0, 100, size=int(rng.integers(0, 20))) for _ in range(p)]
            for _ in range(p)
        ]

    def test_delivery_complete_and_ordered(self, rng):
        p = 4
        blocks = self._blocks(p, rng)
        recv, stats = custom_all_to_all(blocks, nbytes_of=lambda a: a.nbytes)
        for d in range(p):
            for s in range(p):
                assert np.array_equal(recv[d][s], blocks[s][d])

    def test_stats_byte_matrix(self, rng):
        p = 3
        blocks = self._blocks(p, rng)
        _, stats = custom_all_to_all(blocks, nbytes_of=lambda a: a.nbytes)
        for s in range(p):
            for d in range(p):
                assert stats.bytes_matrix[s, d] == blocks[s][d].nbytes

    def test_wire_bytes_exclude_self(self, rng):
        p = 3
        blocks = self._blocks(p, rng)
        _, stats = custom_all_to_all(blocks, nbytes_of=lambda a: a.nbytes)
        expected = sum(
            blocks[s][d].nbytes for s in range(p) for d in range(p) if s != d
        )
        assert stats.wire_bytes_total == expected

    def test_message_count(self, rng):
        p = 4
        blocks = self._blocks(p, rng)
        _, stats = custom_all_to_all(blocks, nbytes_of=lambda a: a.nbytes)
        assert stats.n_messages == p * (p - 1)
        assert stats.n_stages == p

    def test_stage_max_bytes(self, rng):
        p = 3
        blocks = self._blocks(p, rng)
        _, stats = custom_all_to_all(blocks, nbytes_of=lambda a: a.nbytes)
        assert len(stats.max_message_bytes_per_stage) == p
        assert stats.max_message_bytes_per_stage[0] == 0  # self-sends only

    def test_single_task(self):
        blocks = [[np.arange(5)]]
        recv, stats = custom_all_to_all(blocks, nbytes_of=lambda a: a.nbytes)
        assert np.array_equal(recv[0][0], np.arange(5))
        assert stats.wire_bytes_total == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            custom_all_to_all([[1, 2], [1]], nbytes_of=lambda x: 0)


@st.composite
def count_matrices(draw):
    p = draw(st.integers(min_value=1, max_value=8))
    cells = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**40),
            min_size=p * p,
            max_size=p * p,
        )
    )
    return np.asarray(cells, dtype=np.int64).reshape(p, p)


@settings(max_examples=100, deadline=None)
@given(counts=count_matrices(), tuple_bytes=st.sampled_from([12, 20]))
def test_block_exchange_stats_equal_payload_simulation(counts, tuple_bytes):
    """The count-only accounting the pipeline uses equals moving payloads
    of ``counts[p, d] * tuple_bytes`` bytes through the P-stage schedule."""
    p = counts.shape[0]
    sizes = counts * tuple_bytes
    blocks = [[int(sizes[s, d]) for d in range(p)] for s in range(p)]
    _, expected = custom_all_to_all(blocks, nbytes_of=lambda size: size)
    got = block_exchange_stats(counts, tuple_bytes)
    assert np.array_equal(got.bytes_matrix, expected.bytes_matrix)
    assert got.wire_bytes_total == expected.wire_bytes_total
    assert got.n_messages == expected.n_messages
    assert got.n_stages == expected.n_stages
    assert got.max_message_bytes_per_stage == expected.max_message_bytes_per_stage
