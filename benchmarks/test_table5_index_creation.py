"""Paper Table 5: index creation time (sequential).

| Dataset | #Chunks | FASTQPart (s) | merHist (s) |
|   HG    |   384   |      32       |     109     |
|   LL    |   384   |      32       |     154     |
|   MM    |   384   |      33       |     343     |
|   IS    |  1536   |     180       |    5160     |

Directions asserted: merHist (the k-mer histogram scan) costs more than
FASTQPart (boundary discovery); total time grows with dataset size; IS
with 4x the chunks is the most expensive by far.
"""

import pytest

from benchmarks.conftest import BENCH_M
from benchmarks.reporting import table_lines, write_report
from repro.index.create import index_create

CHUNKS = {"HG": 24, "LL": 24, "MM": 24, "IS": 96}  # paper's 384/1536, /16


@pytest.fixture(scope="module")
def index_results(ctx):
    out = {}
    for name, chunks in CHUNKS.items():
        ds = ctx.dataset(name)
        out[name] = index_create(ds.units, k=27, m=BENCH_M, n_chunks=chunks)
    return out


@pytest.mark.benchmark(group="table5")
def test_table5_index_creation_times(ctx, index_results, benchmark):
    benchmark.pedantic(
        lambda: index_create(
            ctx.dataset("HG").units, k=27, m=BENCH_M, n_chunks=CHUNKS["HG"]
        ),
        rounds=1,
        iterations=1,
    )
    rows = []
    for name in ("HG", "LL", "MM", "IS"):
        r = index_results[name]
        rows.append(
            [
                name,
                r.fastqpart.n_chunks,
                f"{r.fastqpart_seconds:.3f}",
                f"{r.merhist_seconds:.3f}",
                f"{r.total_seconds:.3f}",
            ]
        )
    write_report(
        "table5",
        "Table 5: index creation time, sequential (measured seconds)",
        table_lines(
            ["dataset", "chunks", "FASTQPart (s)", "merHist (s)", "total (s)"],
            rows,
        ),
    )

    # histogramming dominates boundary discovery (paper: 109s vs 32s etc.)
    for name in ("HG", "LL", "MM", "IS"):
        r = index_results[name]
        assert r.merhist_seconds > r.fastqpart_seconds, name

    # total grows with dataset size; IS is the most expensive
    totals = [index_results[n].total_seconds for n in ("HG", "LL", "MM", "IS")]
    assert totals[0] < totals[2]
    assert totals[3] == max(totals)


@pytest.mark.benchmark(group="table5")
def test_table5_tables_are_reusable(ctx, index_results, benchmark, tmp_path_factory):
    """The cost is paid once: persisted tables reload and drive a run."""
    import numpy as np

    from repro.core.config import PipelineConfig
    from repro.core.pipeline import MetaPrep
    from repro.index.create import IndexCreateResult
    from repro.index.fastqpart import FastqPartTable
    from repro.index.merhist import MerHist

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    out = tmp_path_factory.mktemp("t5_tables")
    r = index_results["HG"]
    r.merhist.save(out / "mh.bin")
    r.fastqpart.save(out / "fp.bin")
    reloaded = IndexCreateResult(
        merhist=MerHist.load(out / "mh.bin"),
        fastqpart=FastqPartTable.load(out / "fp.bin"),
        fastqpart_seconds=0.0,
        merhist_seconds=0.0,
    )
    cfg = PipelineConfig(
        k=27, m=BENCH_M, n_tasks=2, n_threads=2
    )
    a = MetaPrep(cfg).run(ctx.dataset("HG").units, index=reloaded)
    b = ctx.run("HG", n_tasks=2, n_threads=2, n_passes=1, n_chunks=24)
    assert np.array_equal(a.partition.labels, b.partition.labels)
