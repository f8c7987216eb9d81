"""The array FASTQ region parser against the streaming parser."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.fastqpart import build_fastqpart, load_chunk_reads
from repro.seqio.fastq import (
    FastqParseError,
    _iter_fastq_handle,
    parse_fastq_region,
    write_fastq,
)
from repro.seqio.records import FastqRecord, ReadBatch


def streaming_records(data: bytes):
    """Oracle: the streaming parser over the region as universal-newline
    text, exactly as a text-mode file read presents it."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    return list(_iter_fastq_handle(text, "oracle"))


def assert_same_batch(got: ReadBatch, want: ReadBatch) -> None:
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.read_ids, want.read_ids)
    assert got.names == want.names
    assert got.quals == want.quals


record_strategy = st.tuples(
    st.text(alphabet="abcXYZ019/:_ .-", max_size=12),  # name
    st.text(alphabet="ACGTNacgtnRY", min_size=1, max_size=40),  # sequence
    st.integers(0, 2),  # blank lines before the record
    st.text(alphabet="ab", max_size=3),  # text after '+'
)


def fastq_bytes(records, eol: str, final_eol: bool) -> tuple:
    """The FASTQ text of ``records`` and the byte offset of each record
    (blank lines before a record belong to it)."""
    parts, starts, pos = [], [], 0
    for name, seq, blanks, plus in records:
        qual = "".join(chr(33 + (ord(c) % 40)) for c in seq)
        part = eol * blanks + eol.join(["@" + name, seq, "+" + plus, qual]) + eol
        starts.append(pos)
        parts.append(part)
        pos += len(part)
    starts.append(pos)
    data = "".join(parts).encode("ascii")
    if not final_eol and data.endswith(eol.encode()):
        data = data[: -len(eol)]
        starts[-1] = len(data)
    return data, starts


@settings(max_examples=150, deadline=None)
@given(
    st.lists(record_strategy, max_size=12),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
    st.data(),
)
def test_region_parse_equals_streaming_parser(records, eol, final_eol, data):
    blob, starts = fastq_bytes(records, eol, final_eol)
    lo = data.draw(st.integers(0, len(records)))
    hi = data.draw(st.integers(lo, len(records)))
    region = blob[starts[lo] : starts[hi]]
    want = streaming_records(region)
    parsed = parse_fastq_region(region, "region")
    assert parsed.records() == want
    ids = np.arange(100 + lo, 100 + lo + len(want))
    for keep in (True, False):
        assert_same_batch(
            parsed.to_batch(ids, keep_metadata=keep),
            ReadBatch.from_records(want, ids, keep_metadata=keep),
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(record_strategy, min_size=1, max_size=6),
    st.sampled_from(["\n", "\r\n"]),
    st.integers(0, 10_000),
    st.sampled_from(["", "\n", "@", "+", "x", "A"]),
    st.integers(0, 2),
)
def test_malformed_region_rejected_like_streaming_parser(records, eol, at, insert, cut):
    """Random edits: accepted with equal records, or rejected by both."""
    blob, _ = fastq_bytes(records, eol, True)
    at %= len(blob) + 1
    edited = blob[:at] + insert.encode() + blob[at + cut :]
    try:
        want = streaming_records(edited)
    except FastqParseError:
        with pytest.raises(FastqParseError):
            parse_fastq_region(edited, "edited")
    else:
        assert parse_fastq_region(edited, "edited").records() == want


def test_non_ascii_rejected():
    with pytest.raises(FastqParseError, match="non-ASCII"):
        parse_fastq_region("@r\nACé\n+\nIII\n".encode("utf-8"), "x")


@pytest.fixture()
def paired_table(tmp_path, rng):
    from tests.conftest import random_reads

    paths = []
    for mate in (1, 2):
        recs = [
            FastqRecord(f"p{i}/{mate}", s, "I" * len(s))
            for i, s in enumerate(random_reads(rng, 30, 25, n_prob=0.05))
        ]
        path = tmp_path / f"x_R{mate}.fastq"
        write_fastq(path, recs)
        paths.append(str(path))
    return build_fastqpart([tuple(paths)], k=9, m=3, n_chunks=4)


class TestLoadChunkReads:
    def test_paired_chunk_equals_streamed_records(self, paired_table):
        for c in range(paired_table.n_chunks):
            u = paired_table.units[int(paired_table.unit[c])]
            mates = []
            for path, off, size in (
                (u.r1, paired_table.offset1[c], paired_table.size1[c]),
                (u.r2, paired_table.offset2[c], paired_table.size2[c]),
            ):
                with open(path, "rb") as fh:
                    fh.seek(int(off))
                    mates.append(streaming_records(fh.read(int(size))))
            recs, ids = [], []
            for i, (a, b) in enumerate(zip(*mates)):
                recs.extend((a, b))
                ids.extend([int(paired_table.read_lo[c]) + i] * 2)
            assert_same_batch(
                load_chunk_reads(paired_table, c),
                ReadBatch.from_records(recs, ids),
            )

    def test_crlf_file_chunks_like_lf_file(self, tmp_path):
        """Chunk byte ranges of a CRLF file are parsed as bytes, not as
        newline-translated characters that would run past the chunk."""
        batches = []
        for eol in (b"\n", b"\r\n"):
            path = tmp_path / f"x{len(eol)}.fastq"
            path.write_bytes(
                b"".join(
                    eol.join([b"@r%d" % i, b"ACGTACGTAC", b"+", b"IIIIIIIIII", b""])
                    for i in range(40)
                )
            )
            table = build_fastqpart([str(path)], k=5, m=2, n_chunks=4)
            batches.append([load_chunk_reads(table, c) for c in range(4)])
        for lf, crlf in zip(*batches):
            assert_same_batch(crlf, lf)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b.replace(b"\n+\n", b"\n-\n", 1),
            lambda b: b.replace(b"\n@", b"\nX", 1),
            lambda b: b.replace(b"I\n", b"\n", 1),
            lambda b: b.replace(b"\n", b"\n\n", 2)[: len(b)],
        ],
    )
    def test_corrupted_chunk_raises_parse_error(self, paired_table, corrupt):
        path = paired_table.units[0].r2
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(corrupt(data))
        with pytest.raises(FastqParseError):
            load_chunk_reads(paired_table, 0)
