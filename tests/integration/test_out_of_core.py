"""Differential memory-bound suite for the out-of-core spill pipeline.

Two claims, both *measured*, never asserted in prose:

1. **Bit identity** — ``spill="always"`` produces exactly the partition
   of ``spill="never"`` on both engines: same labels, same parent array,
   same RunWork counters.  Disk is a different place for the same bytes.
2. **The memory bound** — on an analogue dataset whose tuple volume is
   at least 4x the configured ``memory_budget_per_task``, the spill
   run's peak resident tuple bytes (telemetry high-water marks sampled
   inside the workers, plus ``resource.getrusage`` RSS reported the same
   way) stay under the budget, while the in-memory run's peak provably
   exceeds it.  The budget is real, not aspirational.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep, StaticCountMismatch
from repro.index.create import index_create
from repro.runtime.work import RunWork

K = 21
M = 5
N_CHUNKS = 12
N_TASKS = 4
N_THREADS = 1
N_PASSES = 2


@pytest.fixture(scope="module")
def ooc_index(tiny_hg):
    return index_create(tiny_hg.units, k=K, m=M, n_chunks=N_CHUNKS)


@pytest.fixture(scope="module")
def budget(ooc_index):
    """A per-task budget the dataset overwhelms 4x over.

    With S=2 passes and P=4 owner tasks, one owner's block holds about
    total/8 tuple bytes — comfortably under total/4 — while in-memory
    execution keeps a whole pass (about total/2, i.e. 2x the budget)
    resident.  The bound is therefore beatable by spilling and only by
    spilling.
    """
    tuple_bytes = 12  # one-limb k: 8-byte k-mer + 4-byte read id
    total = int(ooc_index.merhist.total_tuples) * tuple_bytes
    return total // 4


def _config(tmp_path=None, **kw):
    kw.setdefault("spill_dir", str(tmp_path) if tmp_path else None)
    return PipelineConfig(
        k=K,
        m=M,
        n_tasks=N_TASKS,
        n_threads=N_THREADS,
        n_passes=N_PASSES,
        **kw,
    )


def _run(tiny_hg, ooc_index, cfg):
    return MetaPrep(cfg).run(tiny_hg.units, index=ooc_index)


def assert_runwork_identical(a: RunWork, b: RunWork) -> None:
    for f in dataclasses.fields(RunWork):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f"RunWork.{f.name} differs"
        else:
            assert va == vb, f"RunWork.{f.name} differs: {va!r} != {vb!r}"


def test_volume_overwhelms_budget(ooc_index, budget):
    """The premise of the whole suite: tuple volume >= 4x the budget."""
    total = int(ooc_index.merhist.total_tuples) * 12
    assert total >= 4 * budget
    assert budget > 0


@pytest.mark.parametrize("executor", ["serial", "process"])
class TestSpillBitIdentity:
    def test_spill_always_matches_never(
        self, tiny_hg, ooc_index, tmp_path, executor
    ):
        base = _run(
            tiny_hg,
            ooc_index,
            _config(executor=executor, max_workers=2, spill="never"),
        )
        spilled = _run(
            tiny_hg,
            ooc_index,
            _config(
                tmp_path,
                executor=executor,
                max_workers=2,
                spill="always",
                memory_budget_per_task=None,
            ),
        )
        assert spilled.spilled_passes == list(range(N_PASSES))
        assert base.spilled_passes == []
        assert np.array_equal(
            base.partition.labels, spilled.partition.labels
        )
        assert np.array_equal(
            base.partition.parent, spilled.partition.parent
        )
        assert base.partition.summary == spilled.partition.summary
        assert base.partition.largest_label == spilled.partition.largest_label
        assert_runwork_identical(base.work, spilled.work)
        assert base.sort_stats == spilled.sort_stats
        assert base.cc_stats == spilled.cc_stats
        # the comm accounting comes from the same static counts
        assert len(base.comm_stats) == len(spilled.comm_stats)
        for sa, sb in zip(base.comm_stats, spilled.comm_stats):
            assert np.array_equal(sa.bytes_matrix, sb.bytes_matrix)

    def test_spill_dir_left_empty(
        self, tiny_hg, ooc_index, tmp_path, executor
    ):
        _run(
            tiny_hg,
            ooc_index,
            _config(
                tmp_path, executor=executor, max_workers=2, spill="always"
            ),
        )
        leftovers = [
            p
            for p in os.listdir(tmp_path)
            if p.startswith("metaprep-spill-")
        ]
        assert leftovers == []


@pytest.fixture(scope="module")
def spill_telemetry(tiny_hg, ooc_index, budget, tmp_path_factory):
    """One telemetry-instrumented ``spill="always"`` run under the
    budget, on the process engine (real worker processes, real RSS).

    The RSS fixture of the suite: workers sample ``resource.getrusage``
    and the residency ledger into gauges; the merged record carries the
    high-water marks the tests below assert against.
    """
    scratch = tmp_path_factory.mktemp("ooc-spill")
    cfg = _config(
        scratch,
        executor="process",
        max_workers=2,
        spill="always",
        memory_budget_per_task=budget,
    )
    return _run(tiny_hg, ooc_index, cfg)


@pytest.fixture(scope="module")
def inmemory_telemetry(tiny_hg, ooc_index, budget):
    cfg = _config(
        executor="process",
        max_workers=2,
        spill="never",
        memory_budget_per_task=budget,
    )
    return _run(tiny_hg, ooc_index, cfg)


class TestMemoryBound:
    def test_resident_tuple_bytes_under_budget(
        self, spill_telemetry, budget
    ):
        """The headline number: the spill run's peak resident spilled
        tuple bytes — sampled inside the workers at every residency
        change — stay under the per-task budget."""
        peak = spill_telemetry.telemetry.gauge_max(
            "spill.tuple_bytes_resident"
        )
        assert 0 < peak <= budget

    def test_one_block_resident_at_a_time(self, spill_telemetry):
        assert (
            spill_telemetry.telemetry.gauge_max("spill.blocks_resident") == 1
        )

    def test_pool_hwm_under_budget_only_when_spilling(
        self, spill_telemetry, inmemory_telemetry, budget
    ):
        """Same gauge, both modes: the buffer-pool high-water mark.  The
        spill run re-attaches one owner block at a time and stays under
        the budget; the in-memory run keeps whole passes resident and
        exceeds it.  This is what makes the bound non-vacuous."""
        spill_hwm = spill_telemetry.telemetry.gauge_max(
            "buffers.pool_hwm_bytes"
        )
        inmem_hwm = inmemory_telemetry.telemetry.gauge_max(
            "buffers.pool_hwm_bytes"
        )
        assert 0 < spill_hwm <= budget
        assert inmem_hwm > budget

    def test_spill_bytes_cover_the_volume(self, spill_telemetry):
        """Every tuple of every pass went to disk and came back."""
        tuple_bytes = 12
        volume = spill_telemetry.work.total_tuples * tuple_bytes
        written = spill_telemetry.telemetry.counter_total(
            "spill.bytes_written"
        )
        read = spill_telemetry.telemetry.counter_total("spill.bytes_read")
        assert written >= volume
        assert read >= volume

    def test_worker_rss_sampled_per_task(self, spill_telemetry):
        """resource.getrusage peaks, reported through telemetry by the
        workers themselves (ru_maxrss is whole-process and includes the
        interpreter; the *tuple-byte* gauges carry the budget assertion,
        this pins the RSS channel works end to end)."""
        peak_kb = spill_telemetry.telemetry.gauge_max("proc.peak_rss_kb")
        assert peak_kb > 0
        # per-task maxima exist for every owner task
        by_task = spill_telemetry.telemetry.gauges["proc.peak_rss_kb"]
        assert set(by_task) >= set(range(N_TASKS))


class TestAutoMode:
    def test_auto_spills_overbudget_passes(
        self, tiny_hg, ooc_index, tmp_path, budget
    ):
        """auto + a 4x-overwhelmed budget: every pass (~2x budget each)
        must spill."""
        result = _run(
            tiny_hg,
            ooc_index,
            _config(
                tmp_path, spill="auto", memory_budget_per_task=budget
            ),
        )
        assert result.spilled_passes == list(range(N_PASSES))

    def test_auto_without_budget_never_spills(
        self, tiny_hg, ooc_index, tmp_path
    ):
        result = _run(tiny_hg, ooc_index, _config(tmp_path, spill="auto"))
        assert result.spilled_passes == []

    def test_auto_with_roomy_budget_never_spills(
        self, tiny_hg, ooc_index, tmp_path
    ):
        result = _run(
            tiny_hg,
            ooc_index,
            _config(
                tmp_path,
                spill="auto",
                memory_budget_per_task=1 << 40,
            ),
        )
        assert result.spilled_passes == []

    def test_never_overrides_budget(self, tiny_hg, ooc_index, budget):
        result = _run(
            tiny_hg,
            ooc_index,
            _config(spill="never", memory_budget_per_task=budget),
        )
        assert result.spilled_passes == []


class TestCrashHygiene:
    def test_mid_stage_failure_leaves_no_orphans(self, tiny_hg, tmp_path):
        """Crash injection: corrupt the index so KmerGen dies mid-pass
        (StaticCountMismatch fires in the workers, after spill files are
        created); the pipeline's finally must still sweep the spill dir
        to zero orphan files."""
        index = index_create(tiny_hg.units, k=K, m=M, n_chunks=8)
        index.fastqpart.hist[0, :] = index.fastqpart.hist[0, ::-1].copy()
        index.merhist.counts = index.fastqpart.global_histogram().astype(
            np.uint32
        )
        cfg = _config(tmp_path, spill="always")
        with pytest.raises(StaticCountMismatch):
            MetaPrep(cfg).run(tiny_hg.units, index=index)
        leftovers = [
            p
            for p in os.listdir(tmp_path)
            if p.startswith("metaprep-spill-")
        ]
        assert leftovers == []
