"""Packed k-mer representation.

A k-mer is a ``2k``-bit unsigned integer, two bits per base, most significant
bits first (so integer order == lexicographic order over ACGT).  For
``k <= 31`` a single ``uint64`` limb suffices and a tuple is 12 bytes
(8-byte k-mer + 4-byte read id), exactly the paper's layout.  For
``32 <= k <= 63`` two limbs are used (``hi`` holds bits ``[64, 2k)``), the
paper's 128-bit k-mer / 20-byte tuple variant (section 4.4, Table 6).

:class:`KmerArray` is the vector type flowing through the pipeline: a pair
of parallel ``uint64`` arrays (``hi`` is ``None`` in 1-limb mode) with
elementwise lexicographic operations.  :class:`KmerCodec` carries the
per-``k`` constants and scalar string conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.seqio.alphabet import BASES, encode_sequence
from repro.util.validation import check_in_range

MAX_K_ONE_LIMB = 31
MAX_K_TWO_LIMB = 63

_U64 = np.uint64
_ONE = _U64(1)


class KmerArray:
    """A vector of packed k-mers (one or two ``uint64`` limbs per element).

    Immutable by convention: operations return new arrays.
    """

    __slots__ = ("k", "lo", "hi")

    def __init__(self, k: int, lo: np.ndarray, hi: np.ndarray | None = None):
        check_in_range("k", k, 1, MAX_K_TWO_LIMB)
        lo = np.ascontiguousarray(lo, dtype=np.uint64)
        two_limb = k > MAX_K_ONE_LIMB
        if two_limb and hi is None:
            raise ValueError(f"k={k} requires two limbs but hi is None")
        if not two_limb and hi is not None:
            raise ValueError(f"k={k} fits one limb; hi must be None")
        if hi is not None:
            hi = np.ascontiguousarray(hi, dtype=np.uint64)
            if hi.shape != lo.shape:
                raise ValueError("hi/lo shape mismatch")
        self.k = int(k)
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    @property
    def two_limb(self) -> bool:
        return self.hi is not None

    @property
    def total_bits(self) -> int:
        return 2 * self.k

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def nbytes_per_element(self) -> int:
        return 16 if self.two_limb else 8

    # ------------------------------------------------------------------
    # elementwise relational operators (lexicographic = numeric on packed)
    # ------------------------------------------------------------------
    def less_than(self, other: "KmerArray") -> np.ndarray:
        self._check_compatible(other)
        if not self.two_limb:
            return self.lo < other.lo
        assert self.hi is not None and other.hi is not None
        return (self.hi < other.hi) | ((self.hi == other.hi) & (self.lo < other.lo))

    def equals(self, other: "KmerArray") -> np.ndarray:
        self._check_compatible(other)
        if not self.two_limb:
            return self.lo == other.lo
        assert self.hi is not None and other.hi is not None
        return (self.hi == other.hi) & (self.lo == other.lo)

    def minimum(self, other: "KmerArray") -> "KmerArray":
        """Elementwise lexicographic minimum (canonicalization kernel)."""
        self._check_compatible(other)
        if not self.two_limb:
            return KmerArray(self.k, np.minimum(self.lo, other.lo))
        take_self = self.less_than(other) | self.equals(other)
        lo = np.where(take_self, self.lo, other.lo)
        assert self.hi is not None and other.hi is not None
        hi = np.where(take_self, self.hi, other.hi)
        return KmerArray(self.k, lo, hi)

    def _check_compatible(self, other: "KmerArray") -> None:
        if self.k != other.k:
            raise ValueError(f"k mismatch: {self.k} vs {other.k}")
        if self.lo.shape != other.lo.shape:
            raise ValueError("length mismatch")

    # ------------------------------------------------------------------
    # bit extraction
    # ------------------------------------------------------------------
    def high_bits(self, nbits: int) -> np.ndarray:
        """Extract the ``nbits`` most significant bits of each k-mer.

        This is the m-mer prefix used by merHist binning: an m-mer prefix is
        ``high_bits(2 * m)``.  Result fits in ``uint64`` (``nbits <= 64``).
        """
        check_in_range("nbits", nbits, 1, min(64, self.total_bits))
        shift = self.total_bits - nbits
        if not self.two_limb:
            return self.lo >> _U64(shift)
        assert self.hi is not None
        if shift >= 64:
            return self.hi >> _U64(shift - 64)
        # bits straddle both limbs: take low (64 - shift) bits of hi and
        # high bits of lo.
        hi_part = self.hi << _U64(64 - shift) if shift else self.hi
        lo_part = self.lo >> _U64(shift) if shift else self.lo
        mask = (_ONE << _U64(nbits)) - _ONE if nbits < 64 else _U64(0xFFFFFFFFFFFFFFFF)
        return (hi_part | lo_part) & mask

    def mmer_prefix(self, m: int) -> np.ndarray:
        """The m-mer prefix (first ``m`` bases) of each k-mer as ``uint64``."""
        check_in_range("m", m, 1, min(32, self.k))
        return self.high_bits(2 * m)

    def radix_digit(self, index: int, bits: int = 8) -> np.ndarray:
        """The ``index``-th least significant ``bits``-bit digit as ``uint64``.

        Digits of ``lo`` come first, then those of ``hi`` (two-limb mode).
        Used by the LSD radix sort: with 8-bit digits, 8 passes for one
        limb, 16 for two (paper sections 3.4 and 4.4).
        """
        per_limb = 64 // bits
        check_in_range("index", index, 0, per_limb * (2 if self.two_limb else 1) - 1)
        limb, pos = divmod(index, per_limb)
        src = self.hi if limb else self.lo
        return (src >> _U64(bits * pos)) & _U64((1 << bits) - 1)

    @property
    def n_radix_bytes(self) -> int:
        return 16 if self.two_limb else 8

    # ------------------------------------------------------------------
    # gather / concat
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "KmerArray":
        hi = self.hi[indices] if self.hi is not None else None
        return KmerArray(self.k, self.lo[indices], hi)

    def slice(self, lo_idx: int, hi_idx: int) -> "KmerArray":
        hi = self.hi[lo_idx:hi_idx] if self.hi is not None else None
        return KmerArray(self.k, self.lo[lo_idx:hi_idx], hi)

    @staticmethod
    def concatenate(parts: "list[KmerArray]") -> "KmerArray":
        if not parts:
            raise ValueError("cannot concatenate zero KmerArrays")
        k = parts[0].k
        if any(p.k != k for p in parts):
            raise ValueError("k mismatch in concatenate")
        lo = np.concatenate([p.lo for p in parts])
        hi = (
            np.concatenate([p.hi for p in parts])
            if parts[0].hi is not None
            else None
        )
        return KmerArray(k, lo, hi)

    @staticmethod
    def empty(k: int) -> "KmerArray":
        lo = np.empty(0, dtype=np.uint64)
        hi = np.empty(0, dtype=np.uint64) if k > MAX_K_ONE_LIMB else None
        return KmerArray(k, lo, hi)

    # ------------------------------------------------------------------
    # sort-key helpers
    # ------------------------------------------------------------------
    def argsort(self) -> np.ndarray:
        """Stable lexicographic argsort (reference implementation; the
        pipeline uses :mod:`repro.sort` instead)."""
        if not self.two_limb:
            return np.argsort(self.lo, kind="stable")
        assert self.hi is not None
        return np.lexsort((self.lo, self.hi))

    def run_boundaries(self) -> np.ndarray:
        """For a *sorted* array, indices where a new distinct k-mer starts,
        plus the final length.  ``len(result) - 1`` distinct k-mers."""
        n = len(self.lo)
        if n == 0:
            return np.zeros(1, dtype=np.int64)
        if not self.two_limb:
            new = self.lo[1:] != self.lo[:-1]
        else:
            assert self.hi is not None
            new = (self.lo[1:] != self.lo[:-1]) | (self.hi[1:] != self.hi[:-1])
        starts = np.flatnonzero(new) + 1
        return np.concatenate(([0], starts, [n])).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KmerArray(k={self.k}, n={len(self)}, limbs={2 if self.two_limb else 1})"


@dataclass(frozen=True)
class KmerCodec:
    """Scalar conversions and constants for a fixed ``k``."""

    k: int

    def __post_init__(self) -> None:
        check_in_range("k", self.k, 1, MAX_K_TWO_LIMB)

    @property
    def two_limb(self) -> bool:
        return self.k > MAX_K_ONE_LIMB

    @property
    def tuple_bytes(self) -> int:
        """Bytes per (k-mer, read id) tuple: 12 for k<=31, 20 for k<=63."""
        return 20 if self.two_limb else 12

    def encode(self, seq: str) -> Tuple[int, int]:
        """Pack a length-``k`` string into ``(hi, lo)`` Python ints."""
        if len(seq) != self.k:
            raise ValueError(f"expected length {self.k}, got {len(seq)}")
        codes = encode_sequence(seq)
        if (codes > 3).any():
            raise ValueError(f"k-mer contains non-ACGT base: {seq!r}")
        value = 0
        for c in codes:
            value = (value << 2) | int(c)
        return value >> 64, value & 0xFFFFFFFFFFFFFFFF

    def decode(self, hi: int, lo: int) -> str:
        """Unpack ``(hi, lo)`` into the k-mer string."""
        value = (int(hi) << 64) | int(lo)
        out = []
        for i in range(self.k):
            shift = 2 * (self.k - 1 - i)
            out.append(BASES[(value >> shift) & 3])
        return "".join(out)

    def decode_array(self, kmers: KmerArray) -> "list[str]":
        """Decode every element of a :class:`KmerArray` (tests/debugging)."""
        if kmers.k != self.k:
            raise ValueError(f"k mismatch: codec {self.k}, array {kmers.k}")
        his = kmers.hi if kmers.hi is not None else np.zeros_like(kmers.lo)
        return [self.decode(int(h), int(l)) for h, l in zip(his, kmers.lo)]

    def revcomp(self, hi: int, lo: int) -> Tuple[int, int]:
        """Reverse complement of a packed k-mer, as ``(hi, lo)``."""
        value = (int(hi) << 64) | int(lo)
        rc = 0
        for _ in range(self.k):
            rc = (rc << 2) | (3 - (value & 3))
            value >>= 2
        return rc >> 64, rc & 0xFFFFFFFFFFFFFFFF

    def canonical(self, seq: str) -> str:
        """Canonical form of a k-mer string (min of itself and revcomp)."""
        hi, lo = self.encode(seq)
        rhi, rlo = self.revcomp(hi, lo)
        if (rhi, rlo) < (hi, lo):
            hi, lo = rhi, rlo
        return self.decode(hi, lo)

    def from_strings(self, kmers: "list[str]") -> KmerArray:
        """Pack a list of k-mer strings into a :class:`KmerArray`."""
        n = len(kmers)
        lo = np.empty(n, dtype=np.uint64)
        hi = np.empty(n, dtype=np.uint64) if self.two_limb else None
        for i, s in enumerate(kmers):
            h, l = self.encode(s)
            lo[i] = l
            if hi is not None:
                hi[i] = h
        return KmerArray(self.k, lo, hi)
