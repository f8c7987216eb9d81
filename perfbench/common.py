"""Paths, child processes and statistics shared by the workload runners."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
#: scratch space: datasets, reference outputs, spools, traces, results
WORK = CHECKOUT / ".perfbench"

#: launches of every run timed for set-up, all before any input is made
#: or any operation measured
SETUP_PROBES = 9
#: every wait on a child process is bounded by this
CHILD_TIMEOUT_S = 150.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(request: Dict, workdir: Path) -> tuple[float, Dict | None, str]:
    """Launch :mod:`child` on ``request``.

    Returns ``(setup_s, result, error)``: the launch -> ``READY`` time,
    the run's result document (``None`` for a set-up probe or a failed
    run) and the failure text.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    req_path = workdir / "request.json"
    req_path.write_text(json.dumps(request))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(req_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=str(workdir),
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return math.nan, None, "child timed out"
    if ready.strip() != "READY" or proc.returncode != 0:
        return setup_s, None, (err.strip().splitlines() or ["child failed"])[-1]
    if request.get("setup_only"):
        return setup_s, None, ""
    return setup_s, json.loads(out.strip().splitlines()[-1]), ""


def cached_json(path: Path, compute) -> Dict:
    """``compute()``'s document, stored at ``path`` on first use."""
    if path.exists():
        return json.loads(path.read_text())
    doc = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, path)
    return doc


def key_of(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def identity(seed: int) -> Dict:
    """Machine and run identity, recorded with every result."""
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (CHECKOUT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=CHECKOUT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "commit": commit,
        "src_sha256": src_sha256(),
    }


def src_sha256() -> str:
    """SHA-256 of the program's source, ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_steal_s() -> float:
    """CPU seconds the hypervisor has given to other guests since boot,
    summed over CPUs (``steal`` in ``/proc/stat``; 0 where there is none)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Outcome:
    """Attempted/failed tally of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []
        #: outputs that were produced but wrong (vs. operations that failed)
        self.wrong = 0

    def add(self, error: str, wrong: bool = False) -> None:
        self.attempted += 1
        if error:
            self.errors.append(error)
            self.wrong += wrong

    @property
    def failed(self) -> int:
        return len(self.errors)


def dataset_units(name: str, scale: float, seed: int) -> List[List[str]]:
    """Generate (or reuse) the seeded FASTQ pair; the program sees only
    these files."""
    from repro.datasets.registry import build_dataset

    ds = build_dataset(name, WORK / "data", seed=seed, scale=scale)
    return [[ds.r1_path, ds.r2_path]]


def reference_partition(units: List[List[str]], k: int) -> Dict:
    """:func:`oracle.partition` of the one FASTQ pair in ``units``, cached
    by the files' content, ``k`` and the oracle's own source."""
    import oracle

    [(r1, r2)] = units
    digest = hashlib.sha256(Path(oracle.__file__).read_bytes())
    for path in (r1, r2):
        digest.update(Path(path).read_bytes())
    key = key_of(digest.hexdigest(), k)
    return cached_json(WORK / "ref" / f"oracle-{key}.json", lambda: oracle.partition(r1, r2, k))
