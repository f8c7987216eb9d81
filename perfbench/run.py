"""METAPREP benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload batch-hg4 --seed 7 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 22

``gateway-mixed`` runs by name (and under ``all``) but is not one of
the workloads of ``BENCHMARK.json``; see :data:`GATEWAY_LAYER`.

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` makes one untraced and one traced pass and
reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Lines before it name the machine and print every metric with its unit.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if not (BENCH_DIR.parent / "src" / "repro" / "__init__.py").is_file():
    print("perfbench: no program source at src/repro next to perfbench/", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from common import WORK, Outcome, cpu_steal_s, identity  # noqa: E402
import gateway_bench  # noqa: E402
import pipeline_bench  # noqa: E402
from pipeline_bench import PipelineWorkload  # noqa: E402

#: the decomposition of the HG-analogue workloads (k, m, P, T, S)
HG_CONFIG = {"k": 27, "m": 6, "n_tasks": 4, "n_threads": 2, "n_passes": 2}

WORKLOADS = {
    "batch-hg4": PipelineWorkload(
        "HG", 4.0, dict(HG_CONFIG, executor="serial", dataplane="heap", spill="never")
    ),
    "ooc-hg4": PipelineWorkload(
        "HG", 4.0, dict(HG_CONFIG, executor="serial", dataplane="heap", spill="always")
    ),
    "parallel-is": PipelineWorkload(
        "IS",
        0.4,
        dict(
            HG_CONFIG,
            n_passes=4,
            executor="process",
            max_workers=2,
            dataplane="shared",
            spill="never",
        ),
    ),
    "gateway-mixed": gateway_bench.GatewayWorkload("HG", 0.5),
}

#: metric names and units, from the benchmark's definition
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
#: every end-to-end metric (``--trace 0``)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: every per-layer metric (``--trace 1``); a layer a workload never
#: enters reads 0
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: the per-layer metrics ``gateway-mixed`` reports besides those.  That
#: workload is not in BENCHMARK.json: the program's spool ingest race
#: fails a few of its jobs at random (README, "Known defect"), and a
#: benchmark workload must run without failures.  It stays runnable by
#: name, as the reproducer of the race.
GATEWAY_LAYER = {
    "service.run_s": "s",
    "service.store_s": "s",
    "gateway.submit_s": "s",
    "gateway.status_s": "s",
    "gateway.wait_s": "s",
    "gateway.stream_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.partition_hit_share": "ratio",
    "service.index_hit_share": "ratio",
    "gateway.submit_p50_s": "s",
    "gateway.status_p50_s": "s",
    "gateway.stream_p50_s": "s",
    "gateway.polls_per_job": "ratio",
    "gw_cold_p50_s": "s",
    "gw_warm_p50_s": "s",
    "gw_warm_p90_s": "s",
    "gw_jobs_per_s": "1/s",
    "failed_share": "ratio",
}


#: printed beside the end-to-end metrics where a workload has them
REPORTED = {
    "failed_share": "ratio",
    "gw_cold_p50_s": "s",
    "gw_warm_p50_s": "s",
    "gw_warm_p90_s": "s",
    "gw_jobs_per_s": "1/s",
}


def _number(value):
    """A metric value for the result line: NaN (no sample) becomes null."""
    return None if isinstance(value, float) and math.isnan(value) else value


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result line, the figures printed beside it
    and the raw samples (the runners' keys that start with ``_``)."""
    workload = WORKLOADS[name]
    outcome = Outcome()
    bench = gateway_bench if isinstance(workload, gateway_bench.GatewayWorkload) else pipeline_bench
    steal0, t0 = cpu_steal_s(), time.perf_counter()
    if trace:
        found = bench.traced(workload, seed, outcome)
        units = {**PER_LAYER, **GATEWAY_LAYER} if bench is gateway_bench else PER_LAYER
    else:
        found = bench.measure(workload, seed, seconds, outcome)
        units = END_TO_END
    found.setdefault("failed_share", outcome.failed / max(outcome.attempted, 1))
    # CPU time the hypervisor gave to other guests: a run with a large
    # share was measured on a slower machine than its neighbours
    found["_steal_share"] = (cpu_steal_s() - steal0) / (time.perf_counter() - t0) / len(os.sched_getaffinity(0))
    metrics = {m: {"value": _number(found.get(m, 0.0)), "unit": u} for m, u in units.items()}
    complete = all(v["value"] is not None for v in metrics.values())
    return {
        "result": {
            "correct": outcome.wrong == 0 and outcome.attempted > outcome.failed and complete,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
        "reported": {m: {"value": _number(found[m]), "unit": u} for m, u in REPORTED.items() if m in found},
        "samples": {k[1:]: v for k, v in found.items() if k.startswith("_")},
        "errors": outcome.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ident = identity(args.seed)
    print("# machine " + json.dumps(ident, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = {}
    for name in names:
        doc = docs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = doc["result"]
        print(
            f"# workload {name}: attempted {result['attempted']}, failed {result['failed']}, "
            f"CPU steal share {doc['samples']['steal_share']:.3f}"
        )
        shown = {**result["metrics"], **({} if args.trace else doc["reported"])}
        for metric, entry in shown.items():
            print(f"#   {metric:30s} {entry['value']!s:>22} {entry['unit']}")
        print("#   sample counts " + json.dumps(doc["samples"].get("counts", {}), sort_keys=True))
        print("#   reference " + json.dumps(doc["samples"].get("reference"), sort_keys=True))
        for error in sorted(set(doc["errors"])):
            print(f"#   failure x{doc['errors'].count(error)}: {error}")
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"identity": ident, "workloads": docs}, indent=1, sort_keys=True))
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(docs[names[0]]["result"]))
    else:
        print(json.dumps({n: d["result"] for n, d in docs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
