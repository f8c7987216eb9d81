"""IndexCreate: the sequential once-per-dataset indexing step.

Builds FASTQPart then derives merHist by summing the per-chunk histograms
(one scan of the input, exactly as the paper's Table 5 measures the two
sub-steps separately: chunk-boundary discovery vs. histogramming).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.index.fastqpart import FastqPartTable, fill_histograms, plan_chunks
from repro.index.merhist import MerHist
from repro.util.logging import get_logger

_LOG = get_logger("index.create")


@dataclass
class IndexCreateResult:
    """The two tables plus the timing split reported in paper Table 5."""

    merhist: MerHist
    fastqpart: FastqPartTable
    fastqpart_seconds: float
    merhist_seconds: float
    merhist_path: str | None = None
    fastqpart_path: str | None = None

    @property
    def total_seconds(self) -> float:
        return self.fastqpart_seconds + self.merhist_seconds


def index_create(
    units: Sequence,
    k: int,
    m: int,
    n_chunks: int,
    output_dir: str | os.PathLike | None = None,
) -> IndexCreateResult:
    """Run IndexCreate; optionally persist both tables under ``output_dir``.

    The FASTQPart timing covers chunk-boundary discovery and region setup;
    the merHist timing covers canonical-k-mer histogramming (which the
    paper notes "is similar to the KmerGen preprocessing step and can be
    parallelized in the same manner" — kept sequential here, as published).
    """
    t0 = time.perf_counter()
    table = plan_chunks(units, k=k, m=m, n_chunks=n_chunks)
    t1 = time.perf_counter()
    fill_histograms(table)
    merhist = MerHist(k=k, m=m, counts=table.global_histogram().astype("uint32"))
    t2 = time.perf_counter()

    result = IndexCreateResult(
        merhist=merhist,
        fastqpart=table,
        fastqpart_seconds=t1 - t0,
        merhist_seconds=t2 - t1,
    )
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        mh_path = out / f"merhist_k{k}_m{m}.bin"
        fp_path = out / f"fastqpart_k{k}_m{m}_c{n_chunks}.bin"
        merhist.save(mh_path)
        table.save(fp_path)
        result.merhist_path = str(mh_path)
        result.fastqpart_path = str(fp_path)
        _LOG.info(
            "IndexCreate: %d chunks, %d reads, tables saved to %s",
            table.n_chunks,
            table.total_reads,
            out,
        )
    return result
