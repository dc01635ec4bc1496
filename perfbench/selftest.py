"""Self-test of the benchmark on reduced-size workloads.

    python3 perfbench/selftest.py

For each workload it builds the reduced inputs (a 2-cluster city, a few
campaign jobs of every kind), runs one untraced and one traced pass
through the same :func:`run.measure` the benchmark uses, and checks:

* every end-to-end and per-layer metric is emitted with its unit, and
  ``BENCHMARK.json`` names exactly those metrics and units;
* the traced and untraced outputs have the same digest and pass the
  output checks;
* the tracer put every probed module and class attribute back.

Exits non-zero, naming the workload, on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def check_benchmark_file() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        raise AssertionError(f"BENCHMARK.json end_to_end {declared} != {run.END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != run.PER_LAYER_UNITS:
        raise AssertionError("BENCHMARK.json per_layer does not match run.PER_LAYER_UNITS")
    unknown = [w["name"] for w in bench["workloads"] if w["name"] not in run.WORKLOAD_NAMES]
    if unknown:
        raise AssertionError(f"BENCHMARK.json workloads {unknown} are not in {run.WORKLOAD_NAMES}")


def check_workload(workload, workdir: Path) -> None:
    from tracing import Tracer

    untouched = Tracer().snapshot_targets()
    inputs = workload.build(seed=3, small=True)
    result = run.measure(workload, inputs, workdir, 0.0, True, setup_times=[0.1])
    if result.problems:
        raise AssertionError(f"output checks failed: {result.problems}")
    if len(result.digests) != 1:
        raise AssertionError(f"traced and untraced digests differ: {result.digests}")
    after = Tracer().snapshot_targets()
    if not Tracer.unchanged(untouched, after):
        raise AssertionError("tracer left a probed attribute changed")
    for emitted, units in (
        (result.end_to_end, run.END_TO_END_UNITS),
        (result.per_layer, run.PER_LAYER_UNITS),
    ):
        if set(emitted) != set(units):
            missing = sorted(set(units) - set(emitted))
            raise AssertionError(f"metrics missing {missing}, unexpected "
                                 f"{sorted(set(emitted) - set(units))}")
    if result.end_to_end["wall_s"] <= 0 or result.end_to_end["peak_rss_mb"] <= 0:
        raise AssertionError(f"non-positive end-to-end metric: {result.end_to_end}")


def main() -> int:
    run.import_stack()
    check_benchmark_file()
    for name in run.WORKLOAD_NAMES:
        with run.work_directory(f"selftest-{name}") as workdir:
            try:
                check_workload(run.WORKLOADS[name], workdir)
            except (AssertionError, RuntimeError) as exc:
                print(f"self-test failed: workload {name}: {exc}", file=sys.stderr)
                return 1
        print(f"self-test ok: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
