"""Vectorized canonical k-mer enumeration (the KmerGen inner kernel).

The paper's SIMD kernel (section 3.2.1) keeps four k-mers in flight in
128-bit registers and advances them one base per step.  The NumPy analogue
keeps *every* k-mer of a read chunk in flight: the packed value of every
k-base window of the chunk's concatenated code array is built by binary
doubling over ``k`` (windows of 1, 2, 4, ... bases, each the shifted
concatenation of two halves, then joined along the set bits of ``k``), so
about ``2 log2 k`` whole-array operations replace a ``k``-step shift loop.
Reverse complements are the same windows over the reversed complement
codes, and canonicalization is an elementwise minimum.  Per-element work
is the SIMD kernel's; the "vector width" is the chunk length instead of 4.

Windows that cross a read boundary or contain an ``N`` are masked out
(section 3.2: "We do not enumerate k-mers that contain the N symbol").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.kmers.codec import MAX_K_ONE_LIMB, MAX_K_TWO_LIMB, KmerArray
from repro.seqio.records import ReadBatch
from repro.util.validation import check_in_range

_U64 = np.uint64


@dataclass
class KmerTuples:
    """A flat array of (canonical k-mer, read id) tuples.

    ``read_ids`` are 32-bit, as in the paper (12-byte tuples for k <= 31,
    20-byte for k <= 63).  During the LocalCC-Opt multipass optimization the
    id column holds *component* ids instead of read ids; the layout is
    unchanged.
    """

    kmers: KmerArray
    read_ids: np.ndarray

    def __post_init__(self) -> None:
        self.read_ids = np.ascontiguousarray(self.read_ids, dtype=np.uint32)
        if len(self.read_ids) != len(self.kmers):
            raise ValueError(
                f"tuple column length mismatch: {len(self.kmers)} k-mers vs "
                f"{len(self.read_ids)} ids"
            )

    def __len__(self) -> int:
        return len(self.read_ids)

    @property
    def k(self) -> int:
        return self.kmers.k

    @property
    def nbytes(self) -> int:
        """Logical tuple bytes (12 or 20 per tuple), as the paper accounts."""
        per = (16 if self.kmers.two_limb else 8) + 4
        return per * len(self)

    def take(self, indices: np.ndarray) -> "KmerTuples":
        return KmerTuples(self.kmers.take(indices), self.read_ids[indices])

    def slice(self, lo: int, hi: int) -> "KmerTuples":
        return KmerTuples(self.kmers.slice(lo, hi), self.read_ids[lo:hi])

    def split_by_destination(
        self, dest: np.ndarray, n_dest: int
    ) -> "tuple[List[KmerTuples], np.ndarray]":
        """Group tuples by destination task, preserving scan order.

        ``dest[i]`` is the owner task of tuple ``i``.  Returns
        ``(parts, counts)`` where ``parts[d]`` holds the tuples bound for
        ``d`` in their original relative order (the grouping is stable —
        the property the deterministic exchange layout rests on) and
        ``counts[d] == len(parts[d])``.
        """
        counts = np.bincount(dest, minlength=n_dest).astype(np.int64)
        if len(counts) > n_dest:
            raise ValueError(
                f"dest contains values >= n_dest ({n_dest})"
            )
        order = np.argsort(dest, kind="stable")
        gathered = self.take(order)
        parts: "List[KmerTuples]" = []
        start = 0
        for d in range(n_dest):
            end = start + int(counts[d])
            parts.append(gathered.slice(start, end))
            start = end
        return parts, counts

    @staticmethod
    def concatenate(parts: "List[KmerTuples]") -> "KmerTuples":
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            raise ValueError("cannot concatenate zero non-empty KmerTuples")
        kmers = KmerArray.concatenate([p.kmers for p in parts])
        ids = np.concatenate([p.read_ids for p in parts])
        return KmerTuples(kmers, ids)

    @staticmethod
    def empty(k: int) -> "KmerTuples":
        return KmerTuples(KmerArray.empty(k), np.empty(0, dtype=np.uint32))


def enumerate_canonical_kmers(batch: ReadBatch, k: int) -> KmerTuples:
    """Enumerate all canonical k-mers of ``batch`` with their read ids.

    Output order is deterministic: reads in batch order, positions left to
    right within each read — the same order a sequential scan would produce.
    """
    check_in_range("k", k, 1, MAX_K_TWO_LIMB)
    codes = batch.codes
    n_bases = len(codes)
    npos = n_bases - k + 1
    if batch.n_reads == 0 or npos <= 0:
        return KmerTuples.empty(k)

    # Which read does each base belong to?
    base_read = np.repeat(
        np.arange(batch.n_reads, dtype=np.int64), batch.lengths
    )
    # Window validity: stays within one read, and contains no invalid code.
    within_read = base_read[:npos] == base_read[k - 1 :]
    bad = np.zeros(n_bases + 1, dtype=np.int64)
    np.cumsum(codes > 3, out=bad[1:])
    clean = (bad[k:] - bad[:npos]) == 0
    valid = within_read & clean

    keep = np.flatnonzero(valid)
    # masking N to a base only alters windows ``valid`` already drops
    fwd_codes = (codes & 3).astype(np.uint64)
    rc_codes = (_U64(3) - fwd_codes)[::-1]
    # the reverse complement of window i is window npos-1-i of rc_codes
    fwd = KmerArray(k, *_window_limbs(fwd_codes, k, keep))
    rc = KmerArray(k, *_window_limbs(rc_codes, k, (npos - 1) - keep))
    kmers = fwd.minimum(rc)
    read_ids = batch.read_ids[base_read[keep]].astype(np.uint32)
    return KmerTuples(kmers, read_ids)


def _window_limbs(codes: np.ndarray, k: int, at: np.ndarray):
    """``(lo, hi)`` limbs of the k-base windows of ``codes`` starting at
    ``at``: one limb for k <= 31; else ``lo`` is the last 32 bases and
    ``hi`` the first k - 32."""
    if k <= MAX_K_ONE_LIMB:
        return _windows(codes, k)[at], None
    lo = _windows(codes[k - 32 :], 32)[at]
    if k == 32:
        return lo, np.zeros(len(at), dtype=np.uint64)
    return lo, _windows(codes, k - 32)[at]


def _windows(codes: np.ndarray, w: int) -> np.ndarray:
    """Packed value of every ``w``-base window (1 <= w <= 32) of the 2-bit
    ``uint64`` codes, ``len(codes) - w + 1`` values, by binary doubling.

    ``piece`` holds the windows of ``piece_len`` bases (1, 2, 4, ...);
    each set bit of ``w`` appends the current piece to ``acc``.
    """
    acc, acc_len = None, 0
    piece, piece_len = codes, 1
    while True:
        if w & piece_len:
            if acc is None:
                acc, acc_len = piece, piece_len
            else:
                n = len(codes) - acc_len - piece_len + 1
                acc = (acc[:n] << _U64(2 * piece_len)) | piece[acc_len : acc_len + n]
                acc_len += piece_len
        if 2 * piece_len > w:
            return acc
        n = len(piece) - piece_len
        piece = (piece[:n] << _U64(2 * piece_len)) | piece[piece_len:]
        piece_len *= 2
