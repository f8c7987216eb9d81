"""Partitioned FASTQ output (the tail of MergeCC, paper section 3.6).

"We currently write the reads corresponding to the largest component to one
file, and all other reads to another file, since we observed a giant
component being formed for most of the datasets...  Each thread extracts
reads from its FASTQ chunks and writes them to the corresponding output
FASTQ files.  Each thread writes to separate FASTQ files."
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.cc.components import ComponentSummary, compact_labels, summarize_components
from repro.index.fastqpart import FastqPartTable, load_chunk_reads


@dataclass
class PartitionResult:
    """The global partition and its output materialization."""

    parent: np.ndarray
    labels: np.ndarray
    summary: ComponentSummary
    largest_label: int
    #: output files per class; empty when output writing was disabled
    lc_files: List[str] = field(default_factory=list)
    other_files: List[str] = field(default_factory=list)
    #: FASTQ bytes written per (task, thread)
    bytes_written: np.ndarray | None = None
    lc_reads_written: int = 0
    other_reads_written: int = 0

    @property
    def largest_component_fraction(self) -> float:
        return self.summary.largest_component_fraction


def partition_from_parent(parent: np.ndarray) -> PartitionResult:
    """Label components and identify the largest one."""
    labels = compact_labels(parent)
    summary = summarize_components(parent)
    if len(labels):
        counts = np.bincount(labels)
        largest = int(np.argmax(counts))
    else:
        largest = -1
    return PartitionResult(
        parent=np.asarray(parent, dtype=np.int64),
        labels=labels,
        summary=summary,
        largest_label=largest,
    )


def write_partitions(
    result: PartitionResult,
    table: FastqPartTable,
    assignment: np.ndarray,
    n_tasks: int,
    n_threads: int,
    output_dir: str | os.PathLike,
) -> PartitionResult:
    """Write the partitioned reads; one LC + one 'other' file per thread.

    Reads are re-extracted chunk by chunk using the same chunk->thread
    assignment as KmerGen, so output I/O parallelism matches the paper's.
    Mutates and returns ``result`` with file lists and byte accounting.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    bytes_written = np.zeros((n_tasks, n_threads), dtype=np.int64)
    lc_total = other_total = 0
    handles: Dict[tuple, List] = {}

    for c in range(table.n_chunks):
        slot = int(assignment[c])
        p, t = divmod(slot, n_threads)
        batch = load_chunk_reads(table, c, keep_metadata=True)
        in_lc = result.labels[batch.read_ids] == result.largest_label
        texts = batch.to_fastq()
        lc_text = "".join(compress(texts, in_lc.tolist()))
        other_text = "".join(compress(texts, (~in_lc).tolist()))
        key = (p, t)
        if key not in handles:
            lc_path = out / f"lc_p{p}_t{t}.fastq"
            other_path = out / f"other_p{p}_t{t}.fastq"
            # truncate any stale files from a prior run
            lc_path.write_text("")
            other_path.write_text("")
            handles[key] = [str(lc_path), str(other_path)]
            result.lc_files.append(str(lc_path))
            result.other_files.append(str(other_path))
        for path, text in zip(handles[key], (lc_text, other_text)):
            with open(path, "a", encoding="ascii") as fh:
                fh.write(text)
        # ASCII text: one byte per character
        bytes_written[p, t] += len(lc_text) + len(other_text)
        n_lc = int(in_lc.sum())
        lc_total += n_lc
        other_total += len(in_lc) - n_lc

    result.bytes_written = bytes_written
    result.lc_reads_written = lc_total
    result.other_reads_written = other_total
    return result
