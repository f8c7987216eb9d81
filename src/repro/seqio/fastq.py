"""FASTQ reading and writing.

The pipeline performs genuine file I/O (the paper times KmerGen-I/O and
CC-I/O separately), so this module provides both a streaming whole-file
reader and the byte-region parser used for chunked parallel access: given a
byte offset and size from the FASTQPart table, :func:`load_fastq_region`
parses exactly the records of that chunk with whole-array operations
(newline index, header/separator checks, length check) into a
:class:`FastqRegion`, which gathers the chunk's 2-bit codes in one lookup.
The region parser accepts and rejects exactly what the streaming parser
does.
"""

from __future__ import annotations

import gzip
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.seqio.alphabet import _ENCODE_LUT
from repro.seqio.records import FastqRecord, ReadBatch


class FastqParseError(ValueError):
    """Raised on malformed FASTQ input."""


def _is_gzip(path: str | os.PathLike) -> bool:
    return str(path).endswith(".gz")


def _open_text(path: str | os.PathLike, mode: str = "rt"):
    """Open plain or gzip-compressed text transparently by suffix."""
    if _is_gzip(path):
        return gzip.open(path, mode, encoding="ascii")
    return open(path, mode, encoding="ascii")


def iter_fastq(path: str | os.PathLike) -> Iterator[FastqRecord]:
    """Stream records from a FASTQ file (``.gz`` handled transparently).

    Raises :class:`FastqParseError` on structural problems (missing ``@``,
    truncated record, length mismatch).
    """
    with _open_text(path) as fh:
        yield from _iter_fastq_handle(fh, str(path))


def _iter_fastq_handle(fh: io.TextIOBase, label: str) -> Iterator[FastqRecord]:
    lineno = 0
    while True:
        header = fh.readline()
        if not header:
            return
        lineno += 1
        header = header.rstrip("\n")
        if not header:
            # tolerate trailing blank lines
            continue
        if not header.startswith("@"):
            raise FastqParseError(
                f"{label}:{lineno}: expected '@' header, got {header[:30]!r}"
            )
        seq = fh.readline().rstrip("\n")
        plus = fh.readline().rstrip("\n")
        qual = fh.readline().rstrip("\n")
        lineno += 3
        if not qual and not seq:
            raise FastqParseError(f"{label}:{lineno}: truncated record")
        if not plus.startswith("+"):
            raise FastqParseError(
                f"{label}:{lineno - 1}: expected '+' separator, got {plus[:30]!r}"
            )
        if len(seq) != len(qual):
            raise FastqParseError(
                f"{label}:{lineno}: sequence/quality length mismatch "
                f"({len(seq)} vs {len(qual)})"
            )
        yield FastqRecord(header[1:], seq, qual)


def read_fastq(path: str | os.PathLike) -> List[FastqRecord]:
    """Read an entire FASTQ file into memory."""
    return list(iter_fastq(path))


def count_reads(path: str | os.PathLike) -> int:
    """Count records without materializing them."""
    n = 0
    for _ in iter_fastq(path):
        n += 1
    return n


def write_fastq(
    path: str | os.PathLike, records: Iterable[FastqRecord], append: bool = False
) -> int:
    """Write records to ``path`` (gzipped if it ends in ``.gz``); returns
    the number written."""
    mode = "at" if append else "wt"
    n = 0
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with _open_text(path, mode) as fh:
        for rec in records:
            fh.write(rec.to_fastq())
            n += 1
    return n


@dataclass(frozen=True)
class FastqRegion:
    """The records of a parsed FASTQ byte region, as line bounds into one
    buffer.

    ``start[i, j]``/``end[i, j]`` bound line ``j`` (0 header, 1 sequence,
    2 separator, 3 quality) of record ``i`` in ``buf``, newline excluded;
    every line of ``buf`` ends with a newline.
    """

    buf: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    def _select(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Bytes of the disjoint, ascending ranges ``[start, end)``."""
        bounds = np.empty(2 * len(start) + 2, dtype=np.int64)
        bounds[0], bounds[-1] = 0, len(self.buf)
        bounds[1:-1:2], bounds[2:-1:2] = start, end
        inside = np.zeros(len(bounds) - 1, dtype=bool)
        inside[1::2] = True
        return self.buf[np.repeat(inside, np.diff(bounds))]

    def lines(self, j: int, skip: int = 0) -> List[str]:
        """Line ``j`` of every record, minus its first ``skip`` characters."""
        text = self._select(self.start[:, j] + skip, self.end[:, j] + 1)
        return text.tobytes().decode("ascii").split("\n")[:-1]

    def records(self) -> List[FastqRecord]:
        fields = self.lines(0, skip=1), self.lines(1), self.lines(3)
        return [FastqRecord(*f) for f in zip(*fields)]

    def to_batch(self, read_ids: np.ndarray, keep_metadata: bool = True) -> ReadBatch:
        """The region as a :class:`ReadBatch` (codes via one table lookup)."""
        offsets = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(self.end[:, 1] - self.start[:, 1], out=offsets[1:])
        codes = _ENCODE_LUT[self._select(self.start[:, 1], self.end[:, 1])]
        names = self.lines(0, skip=1) if keep_metadata else None
        quals = self.lines(3) if keep_metadata else None
        return ReadBatch(codes, offsets, read_ids, names, quals)


def parse_fastq_region(data: bytes, label: str) -> FastqRegion:
    """Parse the FASTQ records of ``data`` with array operations.

    Accepts exactly the input :func:`iter_fastq` accepts: universal
    newlines, and blank lines only where a header is expected (a blank
    line inside a record always fails the streaming parser's checks).
    Raises :class:`FastqParseError` otherwise.
    """
    if not data.isascii():
        raise FastqParseError(f"{label}: non-ASCII byte in FASTQ input")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    end = np.flatnonzero(buf == ord("\n"))
    start = np.zeros_like(end)
    start[1:] = end[:-1] + 1
    filled = end > start
    # blank lines may only precede a header: 4k filled lines before each
    if np.any(np.cumsum(filled)[~filled] % 4) or np.count_nonzero(filled) % 4:
        raise FastqParseError(f"{label}: truncated record")
    kept = np.flatnonzero(filled).reshape(-1, 4)
    start, end = start[kept], end[kept]
    length = end - start
    for j, problem, ok in (
        (0, "expected '@' header", buf[start[:, 0]] == ord("@")),
        (2, "expected '+' separator", buf[start[:, 2]] == ord("+")),
        (3, "sequence/quality length mismatch", length[:, 1] == length[:, 3]),
    ):
        if not ok.all():
            i = int(np.argmin(ok))
            got = data[start[i, j] : end[i, j]][:30].decode("ascii")
            raise FastqParseError(f"{label}:{kept[i, j] + 1}: {problem}, got {got!r}")
    return FastqRegion(buf, start, end)


def load_fastq_region(path: str | os.PathLike, offset: int, size: int) -> FastqRegion:
    """Parse the FASTQ records contained in ``[offset, offset + size)``.

    The region must start exactly at a record boundary and end on one
    (the FASTQPart chunker guarantees both, as chunks tile the file).

    Gzipped inputs are rejected: byte-offset chunked access needs a
    seekable uncompressed file (decompress first, as the paper's tool
    requires of its inputs).
    """
    if _is_gzip(path):
        raise FastqParseError(
            f"{path}: chunked region access requires an uncompressed FASTQ "
            "(gzip streams are not byte-seekable); decompress first"
        )
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read(size)
    return parse_fastq_region(data, f"{path}@{offset}")


def read_fastq_region(
    path: str | os.PathLike, offset: int, size: int
) -> List[FastqRecord]:
    """The records of :func:`load_fastq_region` as :class:`FastqRecord`."""
    return load_fastq_region(path, offset, size).records()


def record_boundaries(path: str | os.PathLike) -> List[int]:
    """Return the byte offset of every record start plus the file size.

    Used by the FASTQPart chunker to place chunk boundaries on record
    starts.  Offsets are byte positions of '@' header lines.  Gzipped
    inputs are rejected (see :func:`read_fastq_region`).
    """
    if _is_gzip(path):
        raise FastqParseError(
            f"{path}: chunk-boundary discovery requires an uncompressed "
            "FASTQ; decompress first"
        )
    boundaries: List[int] = []
    pos = 0
    with open(path, "rb") as fh:
        while True:
            start = pos
            header = fh.readline()
            if not header:
                break
            pos += len(header)
            if header.strip() and header.startswith(b"@"):
                boundaries.append(start)
                for _ in range(3):
                    line = fh.readline()
                    if not line:
                        raise FastqParseError(f"{path}: truncated final record")
                    pos += len(line)
    boundaries.append(pos)
    return boundaries


def interleave_paired(
    r1: Sequence[FastqRecord], r2: Sequence[FastqRecord]
) -> List[FastqRecord]:
    """Interleave mate files (r1[0], r2[0], r1[1], ...)."""
    if len(r1) != len(r2):
        raise ValueError(f"mate files differ in length: {len(r1)} vs {len(r2)}")
    out: List[FastqRecord] = []
    for a, b in zip(r1, r2):
        out.append(a)
        out.append(b)
    return out
