"""Collector merging, barrier aggregation semantics, and spool sweeping."""

import gc

import numpy as np
import pytest

from repro import telemetry
from repro.runtime.timing import ProjectedTimes
from repro.runtime.work import StepNames
from repro.telemetry.collect import (
    RUN_FILENAME,
    RunTelemetry,
    SpanEvent,
    TelemetryCollector,
)
from repro.telemetry.runtime import TelemetrySettings


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def emit_into(collector, fn):
    telemetry.activate(collector.settings)
    try:
        fn()
    finally:
        telemetry.deactivate()


class TestMerge:
    def test_counters_sum_gauges_max(self, tmp_path):
        collector = TelemetryCollector(tmp_path)

        def emit():
            telemetry.add_counter("cc.unions", 5, task=0)
            telemetry.add_counter("cc.unions", 7, task=0)
            telemetry.add_counter("cc.unions", 1, task=1)
            telemetry.set_gauge("buffers.pool_hwm_bytes", 100, task=0)
            telemetry.set_gauge("buffers.pool_hwm_bytes", 60, task=0)

        emit_into(collector, emit)
        run = collector.finalize(n_tasks=2)
        assert run.counters["cc.unions"] == {0: 12, 1: 1}
        assert run.counter_total("cc.unions") == 13
        assert run.gauge_max("buffers.pool_hwm_bytes") == 100
        collector.close()

    def test_incremental_merge_reads_only_new_tail(self, tmp_path):
        collector = TelemetryCollector(tmp_path)
        telemetry.activate(collector.settings)
        telemetry.add_counter("cc.unions", 1)
        assert collector.merge() == 1
        assert collector.merge() == 0  # nothing new
        telemetry.add_counter("cc.unions", 2)
        assert collector.merge() == 1
        telemetry.deactivate()
        run = collector.finalize(n_tasks=1)
        assert run.counter_total("cc.unions") == 3  # no double counting
        collector.close()

    def test_spans_sorted_by_start(self, tmp_path):
        collector = TelemetryCollector(tmp_path)

        def emit():
            telemetry.record_span(StepNames.LOCALSORT, 200, 300, task=0)
            telemetry.record_span(StepNames.KMERGEN, 50, 120, task=0)

        emit_into(collector, emit)
        run = collector.finalize(n_tasks=1)
        assert [s.name for s in run.spans] == [
            StepNames.KMERGEN,
            StepNames.LOCALSORT,
        ]
        collector.close()

    def test_finalize_merges_pending_records(self, tmp_path):
        collector = TelemetryCollector(tmp_path)
        emit_into(collector, lambda: telemetry.add_counter("cc.unions", 4))
        # no explicit merge() call
        run = collector.finalize(n_tasks=1)
        assert run.counter_total("cc.unions") == 4
        collector.close()


class TestBarrierSemantics:
    def run_with_spans(self):
        # task 0 works 2s across two spans; task 1 works 3s in one
        return RunTelemetry(
            t0_ns=0,
            n_tasks=2,
            spans=[
                SpanEvent(StepNames.LOCALSORT, 0, 0, 0, 1_000_000_000),
                SpanEvent(StepNames.LOCALSORT, 0, 1, 1_000_000_000, 2_000_000_000),
                SpanEvent(StepNames.LOCALSORT, 1, 0, 0, 3_000_000_000),
            ],
        )

    def test_step_seconds_is_max_over_per_task_sums(self):
        run = self.run_with_spans()
        per_task = run.per_task_step_seconds(StepNames.LOCALSORT)
        assert per_task == {0: pytest.approx(2.0), 1: pytest.approx(3.0)}
        assert run.step_seconds(StepNames.LOCALSORT) == pytest.approx(3.0)

    def test_breakdown_carries_critical_path(self):
        run = self.run_with_spans()
        bd = run.breakdown()
        assert bd.seconds[StepNames.LOCALSORT] == pytest.approx(3.0)

    def test_absent_step_is_zero(self):
        assert self.run_with_spans().step_seconds(StepNames.MERGECC) == 0.0

    def test_work_breakdown_sums_tasks_and_counts_collective_once(self):
        run = self.run_with_spans()
        # the tree merge: one 0.5 s interval carried on both task rows
        run.spans += [
            SpanEvent(StepNames.MERGECC, task, -1, 3_000_000_000, 3_500_000_000)
            for task in (0, 1)
        ]
        bd = run.work_breakdown()
        assert bd.seconds[StepNames.LOCALSORT] == pytest.approx(5.0)
        assert bd.seconds[StepNames.MERGECC] == pytest.approx(0.5)
        assert run.work_seconds(StepNames.CC_IO) == 0.0


class TestSerialization:
    def test_save_load_roundtrip_with_projection(self, tmp_path):
        projected = ProjectedTimes(
            machine="edison",
            n_tasks=2,
            per_task={StepNames.LOCALSORT: np.array([1.5, 2.5])},
        )
        run = RunTelemetry(
            t0_ns=10,
            n_tasks=2,
            spans=[SpanEvent(StepNames.LOCALSORT, 1, -1, 10, 20)],
            counters={"cc.unions": {0: 3}},
            gauges={"buffers.pool_hwm_bytes": {-1: 99}},
            projected=projected,
        )
        path = run.save(tmp_path / RUN_FILENAME)
        loaded = RunTelemetry.load(path)
        assert loaded.spans == run.spans
        assert loaded.counters == run.counters
        assert loaded.gauges == run.gauges
        assert loaded.projected.machine == "edison"
        np.testing.assert_allclose(
            loaded.projected.per_task[StepNames.LOCALSORT], [1.5, 2.5]
        )


class TestSweep:
    def test_close_removes_owned_temp_root(self):
        collector = TelemetryCollector()  # directory=None -> private tmp
        root = collector.root
        assert root.is_dir()
        collector.close()
        assert not root.exists()
        assert collector.closed

    def test_close_keeps_artifact_directory(self, tmp_path):
        collector = TelemetryCollector(tmp_path)
        (tmp_path / "trace.json").write_text("{}")  # an exported artifact
        collector.close()
        assert not collector.spool_dir.exists()  # spool swept...
        assert (tmp_path / "trace.json").exists()  # ...artifacts persist

    def test_close_idempotent(self, tmp_path):
        collector = TelemetryCollector(tmp_path)
        collector.close()
        collector.close()

    def test_abandoned_collector_swept_by_finalizer(self, tmp_path):
        collector = TelemetryCollector(tmp_path)
        spool = collector.spool_dir
        emit_into(collector, lambda: telemetry.add_counter("cc.unions", 1))
        assert any(spool.iterdir())
        del collector  # crash analogue: nobody called close()
        gc.collect()
        assert not spool.exists()
