"""The benchmark's own reference outputs, computed from the FASTQ files
with none of the program's code.

The read graph is the paper's: both mates of pair ``i`` are read ``i``;
two reads are joined when they share a canonical k-mer (the smaller, in
ACGT order, of a k-mer and its reverse complement; a window holding any
other symbol is not a k-mer).  Components are numbered by their smallest
read id, the program's canonical labelling, so a correct run's labels
equal :func:`partition`'s exactly.  The k-mers are built here with
NumPy and the components found with SciPy's graph search, so a fault in
the program's k-mer, sort or union-find kernels cannot hide in the
reference.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List

import numpy as np

#: base -> 2-bit code (A, C, G, T in either case); anything else is 4
_CODE = np.full(256, 4, dtype=np.uint8)
for _i, _b in enumerate(b"ACGT"):
    _CODE[_b] = _CODE[_b + 32] = _i

#: bytes per (k-mer, read id) tuple for k <= 31: a 64-bit k-mer and a
#: 32-bit id, as the paper accounts them
TUPLE_BYTES = 12


def sequences(path: str | Path) -> List[bytes]:
    """Sequence lines of a four-line FASTQ file."""
    return Path(path).read_bytes().split(b"\n")[1::4]


def canonical_kmers(seqs: List[bytes], ids: np.ndarray, k: int):
    """``(kmers, read_ids)`` of every k-mer of ``seqs``; ``ids[i]`` is
    the read id of ``seqs[i]``."""
    if not 1 <= k <= 31:
        raise ValueError(f"the reference handles k <= 31, got {k}")
    # a separator (code 4) between sequences keeps windows inside one
    codes = _CODE[np.frombuffer(b"\n".join(seqs), dtype=np.uint8)].astype(np.uint64)
    lengths = np.fromiter((len(s) + 1 for s in seqs), dtype=np.int64, count=len(seqs))
    owner = np.repeat(ids, lengths)
    npos = len(codes) - k + 1
    if npos <= 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    invalid = np.concatenate(([0], np.cumsum(codes > 3)))
    valid = invalid[k:] == invalid[:npos]
    fwd = np.zeros(npos, np.uint64)
    rev = np.zeros(npos, np.uint64)
    for j in range(k):
        window = codes[j : j + npos] & np.uint64(3)
        fwd = (fwd << np.uint64(2)) | window
        rev |= (np.uint64(3) - window) << np.uint64(2 * j)
    return np.minimum(fwd, rev)[valid], owner[:npos][valid]


def partition(r1: str | Path, r2: str | Path, k: int) -> Dict:
    """Labels and counts of the read partition of one FASTQ pair."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    mates1, mates2 = sequences(r1), sequences(r2)
    if len(mates1) != len(mates2):
        raise ValueError(f"{r1} and {r2} hold different numbers of reads")
    n = len(mates1)
    pair = np.arange(n, dtype=np.int64)
    kmers, owners = canonical_kmers(mates1 + mates2, np.concatenate([pair, pair]), k)
    _, kmer_node = np.unique(kmers, return_inverse=True)
    # bipartite graph: read i is node i, distinct k-mer j is node n + j
    n_nodes = n + int(kmer_node.max(initial=-1)) + 1
    graph = coo_matrix(
        (np.ones(len(owners), np.int8), (owners, n + kmer_node.ravel())),
        shape=(n_nodes, n_nodes),
    )
    _, component = connected_components(graph, directed=False)
    _, first = np.unique(component[:n], return_index=True)
    rank = np.empty(n_nodes, np.int64)
    rank[component[np.sort(first)]] = np.arange(len(first))
    labels = rank[component[:n]]
    return {
        "digest": hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest(),
        "n_components": len(first),
        "tuples": len(kmers),
    }
