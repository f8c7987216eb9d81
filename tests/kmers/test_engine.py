import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmers.codec import MAX_K_ONE_LIMB, KmerArray, KmerCodec
from repro.kmers.engine import KmerTuples, enumerate_canonical_kmers
from repro.seqio.fastq import parse_fastq_region
from repro.seqio.records import ReadBatch


def count_kmer_positions(batch: ReadBatch, k: int) -> int:
    """Oracle: number of canonical k-mers :func:`enumerate_canonical_kmers`
    emits, by a per-read loop."""
    if batch.n_reads == 0:
        return 0
    total = 0
    codes = batch.codes
    for i in range(batch.n_reads):
        lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
        length = hi - lo
        if length < k:
            continue
        invalid = codes[lo:hi] > 3
        if not invalid.any():
            total += length - k + 1
            continue
        bad = np.concatenate(([0], np.cumsum(invalid)))
        windows = bad[k:] - bad[: length - k + 1]
        total += int((windows == 0).sum())
    return total


def shift_loop_kmers(batch: ReadBatch, k: int) -> KmerTuples:
    """Oracle: the k-step shift loop building every forward k-mer and
    reverse complement one base per whole-array step."""
    two, three, sixtytwo = np.uint64(2), np.uint64(3), np.uint64(62)
    codes = batch.codes
    npos = len(codes) - k + 1
    if batch.n_reads == 0 or npos <= 0:
        return KmerTuples.empty(k)
    base_read = np.repeat(np.arange(batch.n_reads), batch.lengths)
    bad = np.concatenate(([0], np.cumsum(codes > 3)))
    valid = (base_read[:npos] == base_read[k - 1 :]) & (bad[k:] == bad[:npos])
    c64 = codes.astype(np.uint64)
    fwd_hi = np.zeros(npos, dtype=np.uint64)
    fwd_lo = np.zeros(npos, dtype=np.uint64)
    rc_hi = np.zeros(npos, dtype=np.uint64)
    rc_lo = np.zeros(npos, dtype=np.uint64)
    for j in range(k):
        fwd_hi = (fwd_hi << two) | (fwd_lo >> sixtytwo)
        fwd_lo = (fwd_lo << two) | (c64[j : j + npos] & three)
        off = k - 1 - j
        rc_hi = (rc_hi << two) | (rc_lo >> sixtytwo)
        rc_lo = (rc_lo << two) | ((three - c64[off : off + npos]) & three)
    if k <= MAX_K_ONE_LIMB:
        fwd, rc = KmerArray(k, fwd_lo), KmerArray(k, rc_lo)
    else:
        mask = np.uint64((1 << (2 * k - 64)) - 1)
        fwd = KmerArray(k, fwd_lo, fwd_hi & mask)
        rc = KmerArray(k, rc_lo, rc_hi & mask)
    keep = np.flatnonzero(valid)
    return KmerTuples(
        fwd.minimum(rc).take(keep), batch.read_ids[base_read[keep]]
    )


def assert_same_tuples(a: KmerTuples, b: KmerTuples) -> None:
    assert a.k == b.k
    assert np.array_equal(a.kmers.lo, b.kmers.lo)
    assert (a.kmers.hi is None) == (b.kmers.hi is None)
    if a.kmers.hi is not None:
        assert np.array_equal(a.kmers.hi, b.kmers.hi)
    assert np.array_equal(a.read_ids, b.read_ids)


@st.composite
def reads_and_k(draw):
    """A k in 1..63 and reads around k long (some shorter), mixed case,
    with N at a drawn rate."""
    k = draw(st.integers(1, 63))
    lengths = draw(st.lists(st.integers(0, 2 * k + 8), max_size=8))
    n_rate = draw(st.sampled_from([0.0, 0.02, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = []
    for length in lengths:
        bases = rng.choice(list("ACGTacgt"), size=length)
        bases[rng.random(length) < n_rate] = "N"
        seqs.append("".join(bases))
    return seqs, k


@settings(max_examples=150, deadline=None)
@given(reads_and_k())
def test_windows_equal_shift_loop_oracle(case):
    """Reads with N, reads shorter than k, mixed case; every k."""
    seqs, k = case
    batch = ReadBatch.from_sequences(seqs, read_ids=range(7, 7 + len(seqs)))
    got = enumerate_canonical_kmers(batch, k)
    assert_same_tuples(got, shift_loop_kmers(batch, k))
    assert len(got) == count_kmer_positions(batch, k)


@settings(max_examples=60, deadline=None)
@given(reads_and_k(), st.booleans())
def test_windows_of_parsed_crlf_lowercase_fastq(case, crlf):
    """Chunk-parsed CRLF/lowercase FASTQ enumerates as its upper-case reads."""
    seqs, k = case
    seqs = [s for s in seqs if s]  # a FASTQ record has a non-empty sequence
    eol = "\r\n" if crlf else "\n"
    text = "".join(
        f"@r{i}{eol}{seq}{eol}+{eol}{'I' * len(seq)}{eol}" for i, seq in enumerate(seqs)
    )
    ids = np.arange(len(seqs))
    parsed = parse_fastq_region(text.encode("ascii"), "mem").to_batch(ids, False)
    upper = ReadBatch.from_sequences([s.upper() for s in seqs])
    assert_same_tuples(
        enumerate_canonical_kmers(parsed, k), shift_loop_kmers(upper, k)
    )


def brute_force_kmers(seqs, k, read_ids=None):
    """Reference enumeration: python loop, canonical via codec."""
    codec = KmerCodec(k)
    out = []
    ids = read_ids or list(range(len(seqs)))
    for rid, seq in zip(ids, seqs):
        for i in range(len(seq) - k + 1):
            window = seq[i : i + k]
            if "N" in window:
                continue
            out.append((codec.canonical(window), rid))
    return out


def tuples_as_pairs(tuples: KmerTuples):
    codec = KmerCodec(tuples.k)
    return list(zip(codec.decode_array(tuples.kmers), tuples.read_ids.tolist()))


class TestEnumerationCorrectness:
    @pytest.mark.parametrize("k", [3, 5, 11, 27, 31])
    def test_matches_brute_force_one_limb(self, rng, k):
        seqs = []
        for _ in range(6):
            length = int(rng.integers(k, 3 * k + 10))
            seqs.append("".join(rng.choice(list("ACGT"), size=length)))
        batch = ReadBatch.from_sequences(seqs)
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, k))
        assert got == brute_force_kmers(seqs, k)

    @pytest.mark.parametrize("k", [33, 45, 63])
    def test_matches_brute_force_two_limb(self, rng, k):
        seqs = []
        for _ in range(4):
            length = int(rng.integers(k, 2 * k + 8))
            seqs.append("".join(rng.choice(list("ACGT"), size=length)))
        batch = ReadBatch.from_sequences(seqs)
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, k))
        assert got == brute_force_kmers(seqs, k)

    def test_n_windows_skipped(self):
        batch = ReadBatch.from_sequences(["ACGNACGT"])
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, 3))
        assert got == brute_force_kmers(["ACGNACGT"], 3)
        # windows covering position 3 are absent
        assert len(got) == 3  # ACG + ACG, CGT -> positions 0, 4, 5

    def test_all_n_read(self):
        batch = ReadBatch.from_sequences(["NNNNNN"])
        assert len(enumerate_canonical_kmers(batch, 3)) == 0

    def test_read_shorter_than_k(self):
        batch = ReadBatch.from_sequences(["ACG", "ACGTACGT"])
        tuples = enumerate_canonical_kmers(batch, 5)
        assert set(tuples.read_ids.tolist()) == {1}

    def test_windows_do_not_cross_reads(self):
        # "AC" + "GT" must NOT produce "ACGT"-spanning k-mers
        batch = ReadBatch.from_sequences(["ACAC", "GTGT"])
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, 4))
        assert got == brute_force_kmers(["ACAC", "GTGT"], 4)

    def test_empty_batch(self):
        assert len(enumerate_canonical_kmers(ReadBatch.empty(), 5)) == 0

    def test_read_ids_respected(self):
        batch = ReadBatch.from_sequences(["ACGTA", "ACGTA"], read_ids=[9, 9])
        tuples = enumerate_canonical_kmers(batch, 4)
        assert set(tuples.read_ids.tolist()) == {9}

    def test_canonical_strand_invariance(self):
        from repro.seqio.alphabet import reverse_complement

        seq = "ACCGTAGGTAC"
        fwd = enumerate_canonical_kmers(ReadBatch.from_sequences([seq]), 5)
        rev = enumerate_canonical_kmers(
            ReadBatch.from_sequences([reverse_complement(seq)]), 5
        )
        codec = KmerCodec(5)
        assert sorted(codec.decode_array(fwd.kmers)) == sorted(
            codec.decode_array(rev.kmers)
        )

    def test_deterministic_order(self):
        batch = ReadBatch.from_sequences(["ACGTACG", "TTGGCCA"])
        a = enumerate_canonical_kmers(batch, 4)
        b = enumerate_canonical_kmers(batch, 4)
        assert np.array_equal(a.kmers.lo, b.kmers.lo)
        assert np.array_equal(a.read_ids, b.read_ids)


class TestKmerTuples:
    def test_nbytes_one_limb(self):
        batch = ReadBatch.from_sequences(["ACGTACGTAC"])
        t = enumerate_canonical_kmers(batch, 5)
        assert t.nbytes == 12 * len(t)

    def test_nbytes_two_limb(self):
        batch = ReadBatch.from_sequences(["ACGT" * 20])
        t = enumerate_canonical_kmers(batch, 35)
        assert t.nbytes == 20 * len(t)

    def test_length_mismatch_rejected(self):
        from repro.kmers.codec import KmerArray

        with pytest.raises(ValueError):
            KmerTuples(
                KmerArray(5, np.zeros(3, dtype=np.uint64)),
                np.zeros(2, dtype=np.uint32),
            )

    def test_concatenate_and_slice(self):
        batch = ReadBatch.from_sequences(["ACGTAC", "GGTTCC"])
        t = enumerate_canonical_kmers(batch, 4)
        parts = [t.slice(0, 2), t.slice(2, len(t))]
        merged = KmerTuples.concatenate(parts)
        assert np.array_equal(merged.kmers.lo, t.kmers.lo)
        assert np.array_equal(merged.read_ids, t.read_ids)

    def test_take(self):
        batch = ReadBatch.from_sequences(["ACGTAC"])
        t = enumerate_canonical_kmers(batch, 4)
        sub = t.take(np.array([0, 2]))
        assert len(sub) == 2

    def test_empty(self):
        t = KmerTuples.empty(27)
        assert len(t) == 0
        assert t.k == 27


class TestCountKmerPositions:
    @pytest.mark.parametrize("nprob", [0.0, 0.1])
    def test_matches_enumeration(self, rng, nprob):
        from tests.conftest import random_reads

        seqs = random_reads(rng, 8, 30, n_prob=nprob)
        batch = ReadBatch.from_sequences(seqs)
        assert count_kmer_positions(batch, 7) == len(
            enumerate_canonical_kmers(batch, 7)
        )

    def test_empty(self):
        assert count_kmer_positions(ReadBatch.empty(), 5) == 0
