"""Benchmark of the Braidio reproduction stack.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload city-faults --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` adds one traced in-process pass and reports the per-layer
metrics.  Every run prints a table of what it measured, writes a run
record (and, when traced, the span file) under ``--out``, and ends its
standard output with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The run exits non-zero, naming the workload, when an output check
fails.  ``--workload all`` runs every workload, each in a fresh process.
See ``perfbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = tuple(WORKLOADS)

#: Timed fresh-interpreter set-ups per run (after one untimed warm-up
#: that fills the OS file cache and the bytecode cache).
SETUP_REPEATS = 5

#: A fresh interpreter importing the CLI and building one workload's
#: inputs (spec, partition, fault plan, job list) — what ``setup_s`` times.
SETUP_PROBE = (
    "import sys; sys.path[:0] = [sys.argv[3], sys.argv[4]]; "
    "import repro.__main__, workloads; "
    "workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_packets_per_s": "1/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("deploy", "net", "sim", "core", "batch", "faults", "runtime")


def _per_layer_units() -> "dict[str, str]":
    units = {
        "deploy.partition.busy_s": "s",
        "deploy.region.calls": "count",
        "deploy.region.busy_s": "s",
        "deploy.region.max_s": "s",
        "deploy.merge.busy_s": "s",
        "net.session.busy_s": "s",
        "net.session.packets_per_s": "1/s",
        "net.tdma.rebuilds": "count",
        "net.tdma.busy_s": "s",
        "net.session.handoff_calls": "count",
        "sim.events": "count",
        "sim.events_per_s": "1/s",
        "sim.policy.next_packet_per_packet": "ratio",
        "sim.policy.update_energy_per_packet": "ratio",
        "sim.link.ber_per_packet": "ratio",
        "sim.pair.busy_s": "s",
        "sim.pair.packets_per_s": "1/s",
        "core.offload.calls": "count",
        "core.offload.busy_s": "s",
        "batch.grid.busy_s": "s",
        "faults.handoff.calls": "count",
        "faults.handoff.busy_s": "s",
        "runtime.job.busy_s": "s",
        "runtime.job.p50_s": "s",
        "runtime.job.p98_s": "s",
        "runtime.pool.overhead_share": "ratio",
        "runtime.shard.overhead_share": "ratio",
        "runtime.serial.overhead_share": "ratio",
        "runtime.cache.gets": "count",
        "runtime.cache.get_busy_s": "s",
        "runtime.cache.puts": "count",
        "runtime.cache.put_busy_s": "s",
        "runtime.cache.hit_ratio": "ratio",
        "runtime.journal.appends": "count",
        "runtime.journal.busy_s": "s",
        "runtime.shard.startup_s": "s",
        "runtime.shard.steals": "count",
        "runtime.cold_s": "s",
        "runtime.warm_s": "s",
        "runtime.sharded_s": "s",
        "trace.overhead": "ratio",
    }
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()


# --------------------------------------------------------------------------
# Statistics.


def tail_percentile(values: "list[float]") -> "tuple[str, float] | None":
    """The highest of p50/p90/p95/p99 with at least ten samples beyond
    it (nearest rank), or ``None`` when there are too few samples."""
    best = None
    for label, share in (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99)):
        if len(values) - math.ceil(share * len(values)) >= 10:
            best = (label, percentile(values, share))
    return best


def percentile(values: "list[float]", share: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


# --------------------------------------------------------------------------
# Host facts for the run record.


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def host_facts(workdir: Path) -> "dict[str, object]":
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "work_fs": _fs_type(workdir.resolve()),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# Measurement.


def measure_setup(workload: str, seed: int) -> "list[float]":
    """Fresh-interpreter set-up times: one warm-up, then the timed runs."""
    command = [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(SRC), str(BENCH_DIR)]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        # No timeout: a timed wait polls in steps of up to 50 ms, which
        # would quantize the measurement.
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        if attempt:
            times.append(time.perf_counter() - started)
    return times


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every pool worker this process started."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def peak_rss_mb() -> float:
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workload, inputs, workdir: Path, budget_s: float) -> "list":
    """Untraced passes, one at a time, while at least half of a pass of
    typical length still fits in ``budget_s`` (at least one pass runs),
    so long passes cover the budget instead of stopping up to a whole
    pass short of it.  Each pass starts from a collected heap, so
    garbage a previous pass left in reference cycles is not charged to
    the next one."""
    from repro.runtime import CampaignError

    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        try:
            passes.append(workload.run_pass(inputs, workdir))
        except CampaignError as exc:
            raise SystemExit(f"benchmark failed: workload {workload.name}: {exc}") from exc
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - started + typical / 2.0 > budget_s:
            return passes


def traced_pass(workload, inputs, workdir: Path):
    """One in-process pass under the tracer; returns (pass, tracer).

    Raises:
        RuntimeError: if restoring left any probed attribute different
            from the object that was there before the pass.
    """
    from tracing import Tracer

    tracer = Tracer()
    before = tracer.snapshot_targets()
    tracer.pass_id = f"{workload.name}-traced"
    tracer.install()
    try:
        result = workload.run_pass(inputs, workdir, in_process=True)
    finally:
        tracer.restore()
    after = tracer.snapshot_targets()
    if not tracer.unchanged(before, after):
        raise RuntimeError("tracer left wrapped attributes behind")
    return result, tracer


def _median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(passes, traced, tracer, untraced_twin) -> "dict[str, float]":
    """Per-layer metrics from the traced pass (spans, counters) and from
    the untraced passes' public results (job durations, manifests,
    shard journals)."""
    from tracing import PACKETS, span_summary

    summary = span_summary(tracer.spans)
    counters = tracer.counters

    def span(name: str, key: str) -> float:
        return float(summary.get(name, {}).get(key, 0.0))

    def rate(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    packets = counters.get(PACKETS, 0)
    durations = [d for p in passes for d in p.job_durations]
    gets = span("runtime.cache.get", "calls")

    def extra(key: str) -> float:
        return _median([p.extra[key] for p in passes if key in p.extra])

    serial_share = extra("serial_overhead_share")
    if untraced_twin is not None:
        serial_share = untraced_twin.extra["serial_overhead_share"]
    baseline_wall = untraced_twin.wall_s if untraced_twin is not None else _median(
        [p.wall_s for p in passes]
    )
    metrics = {
        "deploy.partition.busy_s": span("deploy.partition", "busy_s"),
        "deploy.region.calls": span("deploy.region", "calls"),
        "deploy.region.busy_s": span("deploy.region", "busy_s"),
        "deploy.region.max_s": span("deploy.region", "max_s"),
        "deploy.merge.busy_s": span("deploy.merge", "busy_s"),
        "net.session.busy_s": span("net.session", "busy_s"),
        "net.session.packets_per_s": rate(
            span("net.session", "packets"), span("net.session", "busy_s")
        ),
        "net.tdma.rebuilds": span("net.tdma", "calls"),
        "net.tdma.busy_s": span("net.tdma", "busy_s"),
        "net.session.handoff_calls": span("net.handoff", "calls"),
        "sim.events": float(counters.get("sim.events", 0)),
        "sim.events_per_s": rate(counters.get("sim.events", 0), span("sim.kernel", "busy_s")),
        "sim.policy.next_packet_per_packet": rate(
            counters.get("sim.policy.next_packet", 0), packets
        ),
        "sim.policy.update_energy_per_packet": rate(
            counters.get("sim.policy.update_energy", 0), packets
        ),
        "sim.link.ber_per_packet": rate(counters.get("sim.link.ber", 0), packets),
        "sim.pair.busy_s": span("sim.pair", "busy_s"),
        "sim.pair.packets_per_s": rate(span("sim.pair", "packets"), span("sim.pair", "busy_s")),
        "core.offload.calls": span("core.offload", "calls"),
        "core.offload.busy_s": span("core.offload", "busy_s"),
        "batch.grid.busy_s": span("batch.grid", "busy_s"),
        "faults.handoff.calls": span("faults.handoff", "calls"),
        "faults.handoff.busy_s": span("faults.handoff", "busy_s"),
        "runtime.job.busy_s": _median([sum(p.job_durations) for p in passes]),
        "runtime.job.p50_s": percentile(durations, 0.50),
        "runtime.job.p98_s": percentile(durations, 0.98),
        "runtime.pool.overhead_share": extra("pool_overhead_share"),
        "runtime.shard.overhead_share": extra("shard_overhead_share"),
        "runtime.serial.overhead_share": serial_share,
        "runtime.cache.gets": gets,
        "runtime.cache.get_busy_s": span("runtime.cache.get", "busy_s"),
        "runtime.cache.puts": span("runtime.cache.put", "calls"),
        "runtime.cache.put_busy_s": span("runtime.cache.put", "busy_s"),
        "runtime.cache.hit_ratio": rate(counters.get("runtime.cache.hits", 0), gets),
        "runtime.journal.appends": span("runtime.journal", "calls"),
        "runtime.journal.busy_s": span("runtime.journal", "busy_s"),
        "runtime.shard.startup_s": extra("shard_startup_s"),
        "runtime.shard.steals": float(sum(p.extra.get("shard_steals", 0.0) for p in passes)),
        "runtime.cold_s": _median([p.phases.get("cold", 0.0) for p in passes]),
        "runtime.warm_s": _median([p.phases.get("warm", 0.0) for p in passes]),
        "runtime.sharded_s": _median([p.phases.get("sharded", 0.0) for p in passes]),
        "trace.overhead": traced.wall_s / baseline_wall - 1.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = span(f"layer:{layer}", "self_s")
    return metrics


@dataclass
class Measurement:
    """Everything one run measured (see :func:`measure`)."""

    passes: list
    end_to_end: "dict[str, float]"
    per_layer: "dict[str, float]"
    problems: "list[str]"
    digests: "set[str]"
    tracer: object = None

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def measure(workload, inputs, workdir: Path, budget_s: float, trace: bool,
            setup_times: "list[float]") -> Measurement:
    """Untraced passes for ``budget_s``, then (with ``trace``) the traced
    pass; checks that every pass produced the same output."""
    passes = run_passes(workload, inputs, workdir, budget_s)
    problems = [f"pass {i}: {text}" for i, p in enumerate(passes) for text in p.problems]
    digests = {d for p in passes for d in p.digests.values()}

    layer: "dict[str, float]" = {}
    tracer = None
    if trace:
        twin = None
        if workload.traced_config_differs:
            # The traced pass runs in-process; time the same untraced.
            gc.collect()
            twin = workload.run_pass(inputs, workdir, in_process=True)
            digests.update(twin.digests.values())
        gc.collect()
        traced, tracer = traced_pass(workload, inputs, workdir)
        digests.update(traced.digests.values())
        problems += [f"traced pass: {text}" for text in traced.problems]
        layer = layer_metrics(passes, traced, tracer, twin)
    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")

    e2e = {
        "setup_s": _median(setup_times),
        "wall_s": _median([p.wall_s for p in passes]),
        # Rates are throughput over the whole run (total work over total
        # time): the host's speed drifts over seconds, and a ratio of
        # sums averages that drift where a median of short ratios does not.
        "sim_packets_per_s": sum(p.packets for p in passes) / sum(p.wall_s for p in passes),
        "jobs_per_s": sum(p.jobs for p in passes) / sum(p.phases["cold"] for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return Measurement(passes, e2e, layer, problems, digests, tracer)


def import_stack() -> None:
    """Put the source tree on ``sys.path`` and import the CLI."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.__main__  # noqa: F401 - the CLI import setup_s also pays


def run_workload(args, workdir: Path) -> int:
    import_stack()
    workload = WORKLOADS[args.workload]
    setup_times = measure_setup(args.workload, args.seed)
    inputs = workload.build(args.seed)
    budget = args.seconds / 2.0 if args.trace else args.seconds
    m = measure(workload, inputs, workdir, budget, bool(args.trace), setup_times)
    walls = [p.wall_s for p in m.passes]

    print(f"workload {workload.name}  seed {args.seed}  passes {len(m.passes)}  "
          f"trace {args.trace}")
    for name, value in m.end_to_end.items():
        print(f"  {name:<38} {value:>14.6g} {END_TO_END_UNITS[name]}")
    for label, samples in (("setup_s", setup_times), ("wall_s", walls)):
        tail = tail_percentile(samples)
        tail_text = f"{tail[0]} {tail[1]:.6g} s" if tail else "no percentile has 10 samples beyond it"
        print(f"  {label} samples n={len(samples)}: {tail_text}")
    for phase in ("cold", "warm", "sharded"):
        values = [p.phases[phase] for p in m.passes if phase in p.phases]
        if values:
            print(f"  {phase + '_s':<38} {_median(values):>14.6g} s")
    print(f"  {'failed_ratio':<38} {m.failed / max(m.attempted, 1):>14.6g} ratio "
          f"({m.failed}/{m.attempted} jobs)")
    for name, value in m.per_layer.items():
        print(f"  {name:<38} {value:>14.6g} {PER_LAYER_UNITS[name]}")
    for text in m.problems:
        print(f"  CHECK FAILED: {text}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not m.problems,
        "problems": m.problems,
        "digest": sorted(m.digests),
        "end_to_end": m.end_to_end,
        "per_layer": m.per_layer,
        "setup_samples_s": setup_times,
        "passes": [
            {
                "wall_s": p.wall_s, "phases": p.phases, "jobs": p.jobs,
                "packets": p.packets, "attempted": p.attempted, "failed": p.failed,
                "job_busy_s": sum(p.job_durations), "extra": p.extra,
            }
            for p in m.passes
        ],
        "work": {
            "packets": sum(p.packets for p in m.passes),
            "jobs": sum(p.jobs for p in m.passes),
            "events_traced": m.tracer.counters.get("sim.events", 0) if m.tracer else None,
        },
        "host": host_facts(workdir),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if m.tracer is not None:
        m.tracer.write_jsonl(out / f"{stem}.spans.jsonl")

    metrics = m.per_layer if args.trace else m.end_to_end
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    if m.problems:
        print(f"benchmark output check failed: workload {workload.name}", file=sys.stderr)
        return 1
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (so peak memory is its own)."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        code = subprocess.run(command, cwd=ROOT).returncode
        if code:
            print(f"benchmark failed: workload {name} exited {code}", file=sys.stderr)
            status = 1
    return status


@contextlib.contextmanager
def work_directory(label: str):
    """A scratch directory inside the checkout, removed afterwards.

    It also becomes the temp dir, so the pool's heartbeat files and the
    shard workers stay inside the checkout; pool workers are reaped
    before it goes.
    """
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=work_root))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    try:
        yield workdir
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure untraced passes for this long (half of it when traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "results"),
                        help="directory for run records and span files")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark cannot run: no source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    with work_directory(args.workload) as workdir:
        return run_workload(args, workdir)


if __name__ == "__main__":
    sys.exit(main())
