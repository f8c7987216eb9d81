"""Tests of the benchmark itself, on scaled-down inputs.

    python3 -m pytest -q perfbench/tests

Every workload runs end to end (the program in real subprocesses) on
inputs a few percent of the benchmark's size; the whole file takes about
a minute.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gateway_bench  # noqa: E402
import pipeline_bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 3
SMALL = {"batch-hg4": 0.25, "ooc-hg4": 0.25, "parallel-is": 0.05, "gateway-mixed": 0.1}


@pytest.fixture
def tiny(monkeypatch):
    """Scaled-down inputs, one set-up probe, short gateway job lists."""
    for name, scale in SMALL.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(run.WORKLOADS[name], scale=scale))
    monkeypatch.setattr(pipeline_bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(gateway_bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(gateway_bench, "WARM_PER_COLD", 3)
    monkeypatch.setattr(gateway_bench, "TRACE_CYCLES", 1)


def values(doc):
    return {name: entry["value"] for name, entry in doc["result"]["metrics"].items()}


@pytest.mark.parametrize("name", list(SMALL))
def test_every_end_to_end_metric(tiny, name):
    doc = run.run_workload(name, SEED, 0.5, trace=False)
    result = doc["result"]
    assert result["correct"], doc["errors"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in values(doc).values()), values(doc)


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_adds_up(tiny, name):
    doc = run.run_workload(name, SEED, 0.5, trace=True)
    assert doc["result"]["correct"], doc["errors"]
    m = values(doc)
    served = {k: v for k, v in m.items() if k.startswith(("service.", "gateway.", "gw_"))}
    if name == "gateway-mixed":
        assert set(m) == set(run.PER_LAYER) | set(run.GATEWAY_LAYER)
    else:
        assert set(m) == set(run.PER_LAYER) and not served
    # a self time a workload does not report is that of a layer it never enters
    self_times = sum(m.get(metric, 0.0) for metric in tracing.SELF_TIME_METRICS.values())
    assert self_times + m["trace.residual_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert 0 < m["trace.coverage_share"] <= 1 + 1e-9
    assert 0 < m["executor.worker_busy_share"] <= 1

    spill = {k: v for k, v in m.items() if k.startswith("spill.")}
    if name == "ooc-hg4":
        assert all(v > 0 for v in spill.values()), spill
        assert m["transport.publish_s"] == 0
    else:
        assert not any(spill.values()), spill
    if name == "gateway-mixed":
        assert m["service.run_s"] > 0 and m["gateway.polls_per_job"] >= 1
        assert m["gw_warm_p50_s"] > 0 and m["gw_cold_p50_s"] > 0
    else:
        assert m["kmers.tuples"] > 0 and m["sort.radix_calls"] > 0


def test_oracle_agrees_with_the_repository_networkx_oracle(tiny):
    """Two references written apart give the same partition."""
    from child import label_digest
    from repro.cc.components import reference_components_networkx
    from repro.index.create import index_create
    from repro.index.fastqpart import load_chunk_reads

    import oracle

    workload = run.WORKLOADS["parallel-is"]
    units = pipeline_bench.dataset_units(workload.dataset, workload.scale, SEED)
    table = index_create([tuple(units[0])], 27, 6, 1).fastqpart
    batch = load_chunk_reads(table, 0)
    labels = [0] * table.total_reads
    for n, comp in enumerate(reference_components_networkx(batch, 27)):
        for read in comp:
            labels[read] = n
    mine = oracle.partition(*units[0], 27)
    assert mine["digest"] == label_digest(labels)
    assert mine["n_components"] == len(set(labels)) > 1


def test_wrong_label_is_a_failed_run(tiny, monkeypatch):
    original = pipeline_bench.run_child

    def corrupt(request, workdir):
        setup_s, result, error = original(request, workdir)
        if result is not None:
            result = dict(result, digest="0" * 64)
        return setup_s, result, error

    monkeypatch.setattr(pipeline_bench, "run_child", corrupt)
    result = run.run_workload("batch-hg4", SEED, 0.5, trace=False)["result"]
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]


def test_same_wrong_partition_on_every_run_is_failed(tiny, monkeypatch):
    """The reference does not come from the program, so a fault that
    every run repeats, the serial reference run included, still fails."""
    original = pipeline_bench.run_child

    def merge_two_components(request, workdir):
        setup_s, result, error = original(request, workdir)
        if result is not None:
            counters = dict(result["counters"])
            counters["cc.components"] -= 1
            result = dict(result, digest="1" * 64, counters=counters)
        return setup_s, result, error

    monkeypatch.setattr(pipeline_bench, "run_child", merge_two_components)
    result = run.run_workload("parallel-is", SEED + 1, 0.5, trace=False)["result"]
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]


def test_failed_status_poll_is_a_failed_job(tiny, monkeypatch):
    from repro.gateway.client import GatewayClient
    from repro.service.jobs import JobStateError

    status = GatewayClient.status
    polled = set()

    def first_poll_fails(self, job_id):
        if job_id not in polled:
            polled.add(job_id)
            raise JobStateError(f"unknown job {job_id}")
        return status(self, job_id)

    monkeypatch.setattr(GatewayClient, "status", first_poll_fails)
    doc = run.run_workload("gateway-mixed", SEED, 0.5, trace=False)
    result = doc["result"]
    assert result["failed"] == result["attempted"] >= 1
    assert doc["reported"]["failed_share"]["value"] == 1.0
    assert doc["samples"]["counts"]["ingest_race_failures"] == result["failed"]


def test_failed_stream_is_not_the_ingest_race(tiny, monkeypatch):
    from repro.gateway.client import GatewayClient
    from repro.service.jobs import JobStateError

    def stream_fails(self, job_id):
        raise JobStateError(f"unknown job {job_id}")

    monkeypatch.setattr(GatewayClient, "stream_result", stream_fails)
    doc = run.run_workload("gateway-mixed", SEED, 0.5, trace=False)
    result = doc["result"]
    assert result["failed"] == result["attempted"] >= 1
    assert doc["samples"]["counts"]["ingest_race_failures"] == 0
    assert all(e.startswith("stream failed: unknown job") for e in doc["errors"])


def test_gateway_stops_when_sigint_is_ignored():
    """A background shell starts the benchmark with SIGINT ignored; the
    gateway must still take its clean-stop path, not the kill fallback."""
    import signal
    import time

    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        gw = gateway_bench.Gateway(gateway_bench.WORK / "runs" / "sigint-spool")
    finally:
        signal.signal(signal.SIGINT, previous)
    t0 = time.perf_counter()
    gw.stop()
    assert time.perf_counter() - t0 < 10
    assert gw.proc.returncode != -signal.SIGKILL


def test_harness_matches_definition():
    assert [w["name"] for w in run.SPEC["workloads"]] == [n for n in run.WORKLOADS if n != "gateway-mixed"]
    assert not set(run.PER_LAYER) & set(run.GATEWAY_LAYER)
    assert set(tracing.SELF_TIME_METRICS.values()) <= set(run.PER_LAYER) | set(run.GATEWAY_LAYER)
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_attribution_splits_busy_lanes_and_yields_waiting_spans():
    ms = 1_000_000
    spans = [
        ((1, 1), tracing.ROOT, 0, 100 * ms),
        ((1, 1), "executor.map", 10 * ms, 90 * ms),
        ((2, 1), "sort.radix", 20 * ms, 60 * ms),
        ((3, 1), "cc.localcc", 40 * ms, 80 * ms),
        ((3, 1), "transport.resolve", 50 * ms, 55 * ms),
    ]
    self_s, residual = tracing.attribute(spans, 0, 100 * ms)
    assert residual == pytest.approx(0.020)  # root only: [0, 10) and [90, 100)
    assert self_s["executor.map"] == pytest.approx(0.020)  # no worker busy
    assert self_s["sort.radix"] == pytest.approx(0.020 + 0.015 / 2 + 0.005 / 2)
    assert self_s["transport.resolve"] == pytest.approx(0.005 / 2)
    assert self_s["cc.localcc"] == pytest.approx(0.010 / 2 + 0.005 / 2 + 0.020)
    assert sum(self_s.values()) + residual == pytest.approx(0.100)
    busy = tracing.worker_busy_share(spans, main_pid=1, n_workers=2)
    assert busy == pytest.approx((0.040 + 0.040) / (2 * 0.080))
