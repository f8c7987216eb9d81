"""Runner of ``gateway-mixed``: two closed-loop HTTP clients against one
``metaprep gateway`` process.

Each client walks its own seeded list of distinct job configurations.
For each configuration it submits once cold (the pipeline runs), then
resubmits the identical job :data:`WARM_PER_COLD` times warm (the
partition comes from the artifact store).  Every job is submit -> wait
-> stream, timed from the submit to the last streamed byte.

Known defect, counted and never retried away: ``ServiceClient.status``
replays ``events.jsonl`` before it globs ``submit/``, while the
daemon's ingest appends the event and then unlinks the drop file.  A
status read inside that window answers 404 ``unknown job`` for a job
the gateway accepted.  Such a job counts as failed (and, as
:data:`INGEST_RACE`, apart from other failures); the client then waits
for it to finish, untimed, so that the next resubmit is warm.
"""

from __future__ import annotations

import hashlib
import http.client
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from common import (
    BENCH_DIR,
    SETUP_PROBES,
    WORK,
    Outcome,
    child_env,
    dataset_units,
    median,
    percentile,
    reference_partition,
)
import tracing

#: k of the job configurations; the first cold job of each k also misses
#: the IndexCreate cache
K_SET = (23, 25, 27)
BASE_CONFIG = {"m": 6, "n_tasks": 2, "n_threads": 2, "n_passes": 2}
N_CLIENTS = 2
#: warm resubmits after each cold job: the warm jobs that queue behind
#: the other client's cold job (head-of-line) stay well under the 10%
#: tail that p90 reads
WARM_PER_COLD = 40
#: configurations per client in each pass of a traced run
TRACE_CYCLES = 2
WAIT_TIMEOUT_S = 60.0
ANNOUNCE = "metaprep gateway listening on "
#: how a job lost to the spool ingest race reads: a 404 on the status
#: path (the wait), never on the submit or the stream
INGEST_RACE = "status read failed: unknown job"


@dataclass(frozen=True)
class GatewayWorkload:
    dataset: str
    scale: float


@dataclass
class Job:
    kind: str  # "cold" | "warm"
    latency: float
    error: str
    wrong: bool
    status: Dict | None


def job_configs(seed: int, client: int):
    """Endless seeded list of distinct configurations for one client
    (sampling seeds differ in parity between the two clients)."""
    rng = random.Random(f"{seed}:{client}")
    seen = set()
    j = 0
    while True:
        sampling_seed = 2 * rng.randrange(1 << 30) + client
        if sampling_seed in seen:
            continue
        seen.add(sampling_seed)
        yield dict(BASE_CONFIG, k=K_SET[(j + client) % len(K_SET)], sampling_seed=sampling_seed)
        j += 1


def references(units) -> Dict[int, Dict]:
    """The reference partition per k (:mod:`oracle`).  The partition
    does not depend on the decomposition or the sampling seed, so every
    job of one k must give the same one."""
    return {k: reference_partition(units, k) for k in K_SET}


# ----------------------------------------------------------------------
# the gateway process
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    """Give the gateway the default SIGINT disposition.  A benchmark
    started in the background inherits SIGINT ignored, and Python then
    installs no KeyboardInterrupt handler: the gateway would never take
    its clean-stop path."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Gateway:
    """One gateway process on a fresh spool; ``setup_s`` is spawn ->
    announce line."""

    def __init__(self, spool: Path, trace_dir: Path | None = None) -> None:
        shutil.rmtree(spool, ignore_errors=True)
        spool.mkdir(parents=True)
        args = ["gateway", "--spool", str(spool), "--port", "0", "--max-jobs", "1"]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "gateway_launcher.py"), str(trace_dir), *args]
        self._log = open(spool.parent / f"{spool.name}.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=child_env(),
            cwd=str(spool.parent),
            preexec_fn=_default_sigint,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().strip()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - t0
        if not line.startswith(ANNOUNCE):
            self.stop()
            raise RuntimeError(f"gateway did not start: {line!r}; see {self._log.name}")
        self.address = line[len(ANNOUNCE):]

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


# ----------------------------------------------------------------------
# the clients
# ----------------------------------------------------------------------
class Verifier:
    """Checks one client's streams: the first stream of a configuration
    against the reference labels, every later one byte for byte against
    the first."""

    def __init__(self, refs: Dict[int, Dict], scratch: Path) -> None:
        self.refs = refs
        self.scratch = scratch
        self.first: Dict[int, str] = {}

    def __call__(self, cfg: Dict, data: bytes, status: Dict) -> str:
        digest = hashlib.sha256(data).hexdigest()
        key = cfg["sampling_seed"]
        if key in self.first:
            return "" if self.first[key] == digest else "stream differs from the first stream of its job"
        from child import label_digest
        from repro.seqio.tables import read_table

        self.scratch.write_bytes(data)
        _, arrays = read_table(self.scratch, expect_schema="metaprep/partition-artifact")
        ref = self.refs[cfg["k"]]
        if label_digest(arrays["labels"]) != ref["digest"]:
            return "streamed labels differ from the reference"
        if status["result"].get("n_components") != ref["n_components"]:
            return "component count differs from the reference"
        self.first[key] = digest
        return ""


def _drain(client, job_id: str) -> None:
    """Wait, untimed, until a failed job is terminal."""
    from repro.service.jobs import JobState, JobStateError

    deadline = time.monotonic() + WAIT_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            if client.status(job_id)["state"] in JobState.TERMINAL:
                return
        except JobStateError:
            pass
        time.sleep(0.02)


def one_job(client, units, cfg: Dict, kind: str, verify: Verifier, tracer) -> Job:
    from repro.gateway.client import GatewayError
    from repro.service.jobs import JobStateError

    job_id = None
    status = None
    error = ""
    wrong = False
    # the step under way, named in the failure: each of the three
    # requests answers 404/409 as JobStateError
    step = "submit"
    t0 = time.perf_counter()
    try:
        job_id = client.submit(units, cfg)
        step = "status read"
        status = client.wait(job_id, timeout=WAIT_TIMEOUT_S)
        if status["state"] != "succeeded":
            error = f"job {status['state']}: {status.get('error')}"
        else:
            step = "stream"
            s0 = time.perf_counter_ns()
            data = b"".join(client.stream_result(job_id))
            if tracer is not None:
                tracer.span("gateway.stream", s0, time.perf_counter_ns())
    except JobStateError as exc:
        error = f"{step} failed: {exc}".replace(job_id or "?", "<job>")
    except GatewayError as exc:
        error = f"{step} failed: HTTP {exc.status}"
    except (TimeoutError, OSError, http.client.HTTPException) as exc:
        error = f"{step} failed: {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if not error:
        error = verify(cfg, data, status)
        wrong = bool(error)
    elif job_id is not None:
        _drain(client, job_id)
    return Job(kind, latency, error, wrong, status)


def client_loop(cid, address, units, seed, refs, stop_at=None, cycles=None, tracer=None) -> List[Job]:
    from repro.gateway.client import GatewayClient

    client = GatewayClient(address, timeout=WAIT_TIMEOUT_S)
    verify = Verifier(refs, WORK / "runs" / f"g{seed}-c{cid}.bin")
    jobs: List[Job] = []
    try:
        for n, cfg in enumerate(job_configs(seed, cid)):
            if cycles is not None and n >= cycles:
                break
            for rep in range(1 + WARM_PER_COLD):
                if stop_at is not None and time.perf_counter() >= stop_at:
                    return jobs
                kind = "warm" if rep else "cold"
                jobs.append(one_job(client, units, cfg, kind, verify, tracer))
    finally:
        client.close()
    return jobs


def load(address, units, seed, refs, outcome: Outcome, seconds=None, cycles=None, tracer=None):
    """Run both clients; returns ``(jobs, wall_s)``."""
    stop_at = time.perf_counter() + seconds if seconds is not None else None
    t0 = time.perf_counter()
    with ThreadPoolExecutor(N_CLIENTS) as pool:
        futures = [
            pool.submit(client_loop, cid, address, units, seed, refs, stop_at, cycles, tracer)
            for cid in range(N_CLIENTS)
        ]
        jobs = [job for f in futures for job in f.result()]
    wall = time.perf_counter() - t0
    for job in jobs:
        outcome.add(job.error, wrong=job.wrong)
    return jobs, wall


def latency_metrics(jobs: List[Job], wall: float) -> Dict:
    ok = [j for j in jobs if not j.error]
    cold = [j.latency for j in ok if j.kind == "cold"]
    warm = [j.latency for j in ok if j.kind == "warm"]
    races = sum(j.error.startswith(INGEST_RACE) for j in jobs)
    return {
        "gw_cold_p50_s": median(cold),
        "gw_warm_p50_s": median(warm),
        "gw_warm_p90_s": percentile(warm, 0.9),
        "gw_jobs_per_s": len(ok) / wall,
        "failed_share": (len(jobs) - len(ok)) / max(len(jobs), 1),
        "_counts": {"cold": len(cold), "warm": len(warm), "ingest_race_failures": races},
        "_cold_s": cold,
    }


def measure(workload: GatewayWorkload, seed: int, seconds: float, outcome: Outcome) -> Dict:
    """End-to-end metrics of both clients for ``seconds``; set-up is
    timed on gateways started before the input exists."""
    spool = WORK / "runs" / f"g{seed}-spool"
    setups = []
    for _ in range(SETUP_PROBES):
        gw = Gateway(spool)
        setups.append(gw.setup_s)
        gw.stop()
    units = dataset_units(workload.dataset, workload.scale, seed)
    refs = references(units)
    gw = Gateway(spool)
    try:
        jobs, wall = load(gw.address, units, seed, refs, outcome, seconds=seconds)
        rss = gw.peak_rss_mb()
    finally:
        gw.stop()
    metrics = latency_metrics(jobs, wall)
    metrics.update(
        wall_s=median([j.latency for j in jobs if not j.error]),
        ops_per_s=metrics["gw_jobs_per_s"],
        peak_rss_mb=rss,
        setup_s=median(setups),
    )
    metrics["_counts"]["setup"] = len(setups)
    metrics["_setups_s"] = setups
    metrics["_reference"] = refs
    return metrics


def _client_wrappers(tracer) -> callable:
    from repro.gateway.client import GatewayClient

    saved = {attr: GatewayClient.__dict__[attr] for attr in ("submit", "status", "wait")}
    for attr, fn in saved.items():
        setattr(GatewayClient, attr, tracing.timed(tracer, f"gateway.{attr}", fn))

    def uninstall() -> None:
        for attr, fn in saved.items():
            setattr(GatewayClient, attr, fn)

    return uninstall


def traced(workload: GatewayWorkload, seed: int, outcome: Outcome) -> Dict:
    """Per-layer metrics: the same job lists untraced, then traced."""
    units = dataset_units(workload.dataset, workload.scale, seed)
    refs = references(units)
    spool = WORK / "runs" / f"g{seed}-spool"
    gw = Gateway(spool)
    try:
        plain_jobs, plain_wall = load(gw.address, units, seed, refs, outcome, cycles=TRACE_CYCLES)
    finally:
        gw.stop()
    trace_dir = WORK / "runs" / f"g{seed}-trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    tracer = tracing.Tracer(trace_dir)
    gw = Gateway(spool, trace_dir=trace_dir)
    uninstall = _client_wrappers(tracer)
    try:
        t0 = time.perf_counter_ns()
        jobs, wall = load(gw.address, units, seed, refs, outcome, cycles=TRACE_CYCLES, tracer=tracer)
        t1 = time.perf_counter_ns()
    finally:
        uninstall()
        gw.stop()
    spans = tracing.read_spans(trace_dir)
    metrics = tracing.layer_metrics(spans, t0, t1, main_pid=gw.proc.pid, n_workers=1)
    metrics["trace.overhead_share"] = wall / plain_wall - 1.0
    metrics.update(latency_metrics(plain_jobs, plain_wall))
    metrics.update(service_metrics(jobs, spans, os.getpid()), _reference=refs)
    return metrics


def service_metrics(jobs: List[Job], spans, client_pid: int) -> Dict:
    """Queue, cache and client-call figures of the traced pass."""
    done = [j.status for j in jobs if not j.error]
    misses = [s for s in done if s["metrics"].get("partition_cache") == "miss"]
    durations: Dict[str, List[float]] = {}
    for lane, name, t0, t1 in spans:
        if lane[0] == client_pid:
            durations.setdefault(name, []).append((t1 - t0) / 1e9)
    waits = [(lane, t0, t1) for lane, name, t0, t1 in spans if name == "gateway.wait"]
    polls = sum(
        1
        for lane, name, t0, t1 in spans
        if name == "gateway.status" and any(l == lane and a <= t0 and t1 <= b for l, a, b in waits)
    )
    return {
        "service.queue_wait_p50_s": median([s["started_at"] - s["submitted_at"] for s in done]),
        "service.partition_hit_share": 1.0 - len(misses) / max(len(done), 1),
        "service.index_hit_share": sum(s["metrics"].get("index_cache") == "hit" for s in misses)
        / max(len(misses), 1),
        "gateway.submit_p50_s": median(durations.get("gateway.submit", [])),
        "gateway.status_p50_s": median(durations.get("gateway.status", [])),
        "gateway.stream_p50_s": median(durations.get("gateway.stream", [])),
        "gateway.polls_per_job": polls / max(len(done), 1),
        "kmers.tuples": sum(s["metrics"].get("total_tuples", 0) for s in misses),
        "cc.components": sum(s["result"].get("n_components", 0) for s in misses),
        "sort.radix_calls": sum(1 for s in spans if s[1] == "sort.radix"),
    }
