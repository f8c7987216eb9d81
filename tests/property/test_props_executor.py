"""Property tests for the execution backends.

Three properties, probed over seeded-random read sets:

1. **Engine invariance** — the executor choice is invisible in the
   output: for any input, ``partition_from_parent`` produces the same
   labels, parent array, and summary under both engines.
2. **Loud failure** — a worker that raises, or dies outright, mid-pass
   surfaces a clear error on the driver; it never hangs and never yields
   a silently wrong partition.
3. **No residue** — a crashed pass leaks nothing: every shared-memory
   segment the dataplane created is unlinked by the pipeline's
   ``finally`` sweep, so ``/dev/shm`` is clean and the interpreter exits
   without resource-tracker leak warnings.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.buffers import SEGMENT_PREFIX

import repro.core.pipeline as pipeline_mod
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.runtime.executor import ExecutorError
from repro.seqio.fastq import write_fastq
from repro.seqio.records import FastqRecord

from tests.conftest import random_reads

HAS_FORK = "fork" in mp.get_all_start_methods()


def _random_unit(tmp_path, seed, n_reads=60, length=50, n_prob=0.02):
    rng = np.random.default_rng(seed)
    seqs = random_reads(rng, n_reads, length=length, n_prob=n_prob)
    path = tmp_path / f"reads_{seed}.fastq"
    write_fastq(
        path,
        [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(seqs)],
    )
    return str(path)


def _run(units, index, executor, **overrides):
    kwargs = dict(
        k=21,
        m=4,
        n_tasks=2,
        n_threads=2,
        n_passes=2,
        executor=executor,
        max_workers=2,
    )
    kwargs.update(overrides)
    return MetaPrep(PipelineConfig(**kwargs)).run(units, index=index)


class TestEngineInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_reads_same_partition(self, tmp_path, seed):
        units = [_random_unit(tmp_path, seed)]
        index = index_create(units, k=21, m=4, n_chunks=8)
        serial = _run(units, index, "serial")
        process = _run(units, index, "process")
        assert np.array_equal(
            serial.partition.labels, process.partition.labels
        )
        assert np.array_equal(
            serial.partition.parent, process.partition.parent
        )
        assert serial.partition.summary == process.partition.summary

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_worker_pool_equals_serial(self, tmp_path, seed):
        """Degenerate pool (1 worker) is still the same algorithm."""
        units = [_random_unit(tmp_path, seed, n_reads=40)]
        index = index_create(units, k=21, m=4, n_chunks=8)
        serial = _run(units, index, "serial")
        process = _run(units, index, "process", max_workers=1)
        assert np.array_equal(
            serial.partition.labels, process.partition.labels
        )


# ---- crash injection --------------------------------------------------
# Module-level stand-ins for the pipeline's chunk worker: under the fork
# start method the pool's children inherit the parent's (monkeypatched)
# module state, so these run *inside worker processes*, mid-pass.

_ORIGINAL_CHUNK_TASK = pipeline_mod._kmergen_chunk_task


def _raise_in_worker(job):
    if job.chunk == 3:
        raise RuntimeError("injected worker failure on chunk 3")
    return _ORIGINAL_CHUNK_TASK(job)


def _die_in_worker(job):
    if job.chunk == 2:
        os._exit(23)  # no exception, no result: simulates segfault/OOM-kill
    return _ORIGINAL_CHUNK_TASK(job)


@pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")
class TestWorkerFailure:
    @pytest.fixture()
    def units_and_index(self, tmp_path):
        units = [_random_unit(tmp_path, seed=9)]
        return units, index_create(units, k=21, m=4, n_chunks=8)

    def test_worker_exception_surfaces(
        self, units_and_index, monkeypatch
    ):
        units, index = units_and_index
        monkeypatch.setattr(
            pipeline_mod, "_kmergen_chunk_task", _raise_in_worker
        )
        with pytest.raises(RuntimeError, match="injected worker failure"):
            _run(units, index, "process")

    def test_worker_death_raises_executor_error(
        self, units_and_index, monkeypatch
    ):
        units, index = units_and_index
        monkeypatch.setattr(
            pipeline_mod, "_kmergen_chunk_task", _die_in_worker
        )
        with pytest.raises(ExecutorError, match="worker died"):
            _run(units, index, "process")

    def test_serial_engine_hits_same_injected_error(
        self, units_and_index, monkeypatch
    ):
        """The injection seam is engine-agnostic: serial raises too, so
        the property is about *surfacing*, not executor-specific luck."""
        units, index = units_and_index
        monkeypatch.setattr(
            pipeline_mod, "_kmergen_chunk_task", _raise_in_worker
        )
        with pytest.raises(RuntimeError, match="injected worker failure"):
            _run(units, index, "serial")


# ---- crash residue ----------------------------------------------------


def _our_shm_segments():
    """Names of this process's dataplane segments still in ``/dev/shm``."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        pytest.skip("no /dev/shm on this platform")
    prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    return sorted(p.name for p in shm_dir.iterdir() if p.name.startswith(prefix))


@pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")
class TestCrashResidue:
    @pytest.fixture()
    def units_and_index(self, tmp_path):
        units = [_random_unit(tmp_path, seed=9)]
        return units, index_create(units, k=21, m=4, n_chunks=8)

    def test_worker_exception_leaves_no_shm_segments(
        self, units_and_index, monkeypatch
    ):
        units, index = units_and_index
        monkeypatch.setattr(
            pipeline_mod, "_kmergen_chunk_task", _raise_in_worker
        )
        with pytest.raises(RuntimeError, match="injected worker failure"):
            _run(units, index, "process")
        assert _our_shm_segments() == []

    def test_worker_death_leaves_no_shm_segments(
        self, units_and_index, monkeypatch
    ):
        units, index = units_and_index
        monkeypatch.setattr(
            pipeline_mod, "_kmergen_chunk_task", _die_in_worker
        )
        with pytest.raises(ExecutorError, match="worker died"):
            _run(units, index, "process")
        assert _our_shm_segments() == []

    def test_clean_run_leaves_no_shm_segments(self, units_and_index):
        units, index = units_and_index
        _run(units, index, "process")
        assert _our_shm_segments() == []

    def test_crashed_run_exits_without_tracker_warning(self, tmp_path):
        """The resource tracker reports leaks only at interpreter exit,
        so the whole crash scenario runs in a subprocess and the property
        is asserted on its stderr."""
        script = textwrap.dedent(
            """
            import os

            import repro.core.pipeline as pipeline_mod
            from repro.core.config import PipelineConfig
            from repro.core.pipeline import MetaPrep
            from repro.index.create import index_create
            from repro.runtime.executor import ExecutorError

            _ORIGINAL = pipeline_mod._kmergen_chunk_task

            def _die(job):
                if job.chunk == 2:
                    os._exit(23)
                return _ORIGINAL(job)

            pipeline_mod._kmergen_chunk_task = _die

            units = [os.environ["CRASH_TEST_UNIT"]]
            index = index_create(units, k=21, m=4, n_chunks=8)
            cfg = PipelineConfig(
                k=21, m=4, n_tasks=2, n_threads=2, n_passes=2, executor="process", max_workers=2,
            )
            try:
                MetaPrep(cfg).run(units, index=index)
            except ExecutorError:
                pass
            else:
                raise SystemExit("expected the injected crash")
            """
        )
        unit = _random_unit(tmp_path, seed=9)
        env = dict(os.environ, CRASH_TEST_UNIT=unit)
        src = Path(pipeline_mod.__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH", "")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked shared_memory" not in result.stderr, result.stderr
