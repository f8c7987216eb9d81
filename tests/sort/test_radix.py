import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmers.codec import KmerArray
from repro.kmers.engine import KmerTuples, enumerate_canonical_kmers
from repro.sort.radix import (
    RADIX_BUCKETS,
    RadixSortStats,
    radix_passes_for,
    radix_sort_tuples,
)
from repro.sort.validate import is_sorted_kmers, verify_sort


def counting_sort_by_digit(digit: np.ndarray, buckets: int = RADIX_BUCKETS) -> np.ndarray:
    """Oracle: explicit counting sort of one digit column, structured as
    the paper's per-pass kernel — bucket counts, an exclusive prefix sum
    fixing each bucket's output range, then a stable scatter filling each
    occupied bucket's range with its members in input order.  Returns the
    gather permutation ``order`` such that ``digit[order]`` is sorted and
    equal digits keep their input order."""
    digit = np.ascontiguousarray(digit)
    counts = np.bincount(digit, minlength=buckets)
    bounds = np.zeros(buckets + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    order = np.empty(len(digit), dtype=np.int64)
    for b in np.flatnonzero(counts):
        order[bounds[b] : bounds[b + 1]] = np.flatnonzero(digit == b)
    return order


def radix_sort_oracle(tuples, skip_constant=True, digit_bits=8):
    """Oracle: the LSD pass loop over :func:`counting_sort_by_digit`."""
    key_bits = 128 if tuples.kmers.two_limb else 64
    nominal = key_bits // digit_bits
    stats = RadixSortStats(
        n_tuples=len(tuples), passes_nominal=nominal, bucket_bits=digit_bits
    )
    if len(tuples) <= 1:
        stats.passes_skipped = nominal
        return tuples, stats
    limbs = [tuples.kmers.lo.copy()]
    if tuples.kmers.hi is not None:
        limbs.append(tuples.kmers.hi.copy())
    ids = tuples.read_ids.copy()
    per_limb = 64 // digit_bits
    for digit_index in range(nominal):
        limb, pos = divmod(digit_index, per_limb)
        digit = (limbs[limb] >> np.uint64(digit_bits * pos)) & np.uint64(
            (1 << digit_bits) - 1
        )
        if skip_constant and np.all(digit == digit[0]):
            stats.passes_skipped += 1
            continue
        order = counting_sort_by_digit(digit.astype(np.int64), 1 << digit_bits)
        limbs = [x[order] for x in limbs]
        ids = ids[order]
        stats.passes_executed += 1
        stats.digits_histogrammed.append(digit_index)
    hi = limbs[1] if len(limbs) > 1 else None
    return KmerTuples(KmerArray(tuples.k, limbs[0], hi), ids), stats


def make_tuples(rng, n, k=27):
    if k <= 31:
        lo = rng.integers(0, 1 << (2 * k), size=n, dtype=np.uint64)
        kmers = KmerArray(k, lo)
    else:
        lo = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        hi = rng.integers(0, 1 << (2 * k - 64), size=n, dtype=np.uint64)
        kmers = KmerArray(k, lo, hi)
    ids = rng.integers(0, n, size=n, dtype=np.uint32)
    return KmerTuples(kmers, ids)


class TestRadixPassesFor:
    def test_paper_pass_counts(self):
        assert radix_passes_for(27) == 8
        assert radix_passes_for(31) == 8
        assert radix_passes_for(32) == 16
        assert radix_passes_for(63) == 16


class TestCountingSort:
    def test_sorted_and_stable(self, rng):
        digits = rng.integers(0, RADIX_BUCKETS, size=500).astype(np.uint8)
        order = counting_sort_by_digit(digits)
        out = digits[order]
        assert np.all(out[:-1] <= out[1:])
        # stability: equal digits keep original relative order
        for d in np.unique(digits):
            positions = order[out == d]
            assert np.all(np.diff(positions) > 0)


@st.composite
def tuple_columns(draw):
    """Random tuples, one- or two-limb, with keys drawn from a narrow or a
    full range so both skipped and executed passes occur."""
    k = draw(st.sampled_from([5, 13, 27, 31, 32, 40, 63]))
    n = draw(st.integers(0, 300))
    key_bits = draw(st.sampled_from([8, 20, 64]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    lo_bits = min(key_bits, 2 * k, 64)
    lo = rng.integers(0, 2**lo_bits, size=n, dtype=np.uint64, endpoint=False)
    hi = None
    if k > 31:
        hi_bits = min(key_bits, 2 * k - 64) if k > 32 else 0
        hi = rng.integers(0, 2**hi_bits, size=n, dtype=np.uint64)
    ids = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    return KmerTuples(KmerArray(k, lo, hi), ids)


@settings(max_examples=80, deadline=None)
@given(
    tuple_columns(),
    st.sampled_from([8, 16]),
    st.booleans(),
)
def test_radix_passes_equal_counting_sort_oracle(tuples, digit_bits, skip):
    out, stats = radix_sort_tuples(tuples, skip_constant=skip, digit_bits=digit_bits)
    ref, ref_stats = radix_sort_oracle(tuples, skip_constant=skip, digit_bits=digit_bits)
    assert np.array_equal(out.kmers.lo, ref.kmers.lo)
    if tuples.kmers.two_limb:
        assert np.array_equal(out.kmers.hi, ref.kmers.hi)
    assert np.array_equal(out.read_ids, ref.read_ids)
    assert stats == ref_stats


class TestRadixSort:
    @pytest.mark.parametrize("k", [27, 31])
    def test_one_limb_sorted_permutation(self, rng, k):
        tuples = make_tuples(rng, 2000, k)
        out, stats = radix_sort_tuples(tuples)
        verify_sort(tuples, out)
        assert stats.n_tuples == 2000
        assert stats.passes_nominal == 8

    @pytest.mark.parametrize("k", [35, 63])
    def test_two_limb_sorted_permutation(self, rng, k):
        tuples = make_tuples(rng, 1500, k)
        out, stats = radix_sort_tuples(tuples)
        verify_sort(tuples, out)
        assert stats.passes_nominal == 16

    def test_matches_numpy_reference(self, rng):
        tuples = make_tuples(rng, 1000, 27)
        out, _ = radix_sort_tuples(tuples)
        assert np.array_equal(out.kmers.lo, np.sort(tuples.kmers.lo))

    def test_stability_on_payload(self):
        # equal keys: payload order must be preserved
        lo = np.array([5, 5, 5, 2, 2], dtype=np.uint64)
        ids = np.array([10, 11, 12, 20, 21], dtype=np.uint32)
        tuples = KmerTuples(KmerArray(5, lo), ids)
        out, _ = radix_sort_tuples(tuples)
        assert out.read_ids.tolist() == [20, 21, 10, 11, 12]

    def test_skip_constant_digit_optimization(self, rng):
        # keys confined to one byte: 7 of 8 passes skippable
        lo = rng.integers(0, 256, size=300, dtype=np.uint64)
        tuples = KmerTuples(
            KmerArray(27, lo), np.arange(300, dtype=np.uint32)
        )
        out, stats = radix_sort_tuples(tuples, skip_constant=True)
        assert is_sorted_kmers(out.kmers)
        assert stats.passes_skipped >= 7

    def test_no_skip_runs_all_passes(self, rng):
        tuples = make_tuples(rng, 300, 27)
        _, stats = radix_sort_tuples(tuples, skip_constant=False)
        assert stats.passes_executed == 8
        assert stats.passes_skipped == 0

    def test_empty_and_singleton(self):
        empty = KmerTuples.empty(27)
        out, stats = radix_sort_tuples(empty)
        assert len(out) == 0
        single = KmerTuples(
            KmerArray(27, np.array([7], dtype=np.uint64)),
            np.array([1], dtype=np.uint32),
        )
        out, _ = radix_sort_tuples(single)
        assert out.kmers.lo.tolist() == [7]

    def test_real_enumeration_sorts(self, tiny_hg_batch):
        tuples = enumerate_canonical_kmers(tiny_hg_batch, 27)
        out, _ = radix_sort_tuples(tuples)
        verify_sort(tuples, out)

    def test_input_not_mutated(self, rng):
        tuples = make_tuples(rng, 100, 27)
        before = tuples.kmers.lo.copy()
        radix_sort_tuples(tuples)
        assert np.array_equal(tuples.kmers.lo, before)

    def test_stats_merge(self, rng):
        a = make_tuples(rng, 50, 27)
        _, s1 = radix_sort_tuples(a)
        _, s2 = radix_sort_tuples(make_tuples(rng, 70, 27))
        total = s1.merge(s2)
        assert total.n_tuples == 120
