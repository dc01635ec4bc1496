"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload puts most of its work on different layers of the stack:

* ``city`` — a clustered 40-hub / 4,000-device city run unarmed and
  serially through ``run_deployment``: the hub-session DES (``net/``,
  ``sim/``, ``energy/``) does almost all the work, the runtime almost
  none;
* ``city-faults`` — the same city with the ``metro-chaos`` region fault
  plan armed: the shared-kernel resilient region path, hub-to-hub
  handoff, TDMA rebuilds under churn storms and interfered links;
* ``paper-campaign`` — every campaignable catalog experiment's job list
  run cold through the process pool, warm against that cache, and cold
  through the shard coordinator: job compute is a fraction of a second,
  so runtime overhead (spawn, pickling, journal fsync, cache checksums,
  leases) dominates.

Passes are a closed loop: the benchmark process runs one pass at a
time and starts the next only after the previous one returned.  All
calls into ``repro`` go through module attributes looked up at call
time, so the tracer's wrappers (:mod:`tracing`) see them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Worker processes of the pooled and sharded phases (a 2-CPU box).
WORKERS = 2
#: Shards of the sharded phase.
SHARDS = 4


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """What one pass measured and produced.

    Attributes:
        wall_s: the whole pass.
        phases: wall time per phase (``cold``, ``warm``, ``sharded``;
            the city has one ``cold`` phase).
        digests: output digest per phase; all must be equal.
        jobs: jobs executed in the cold phase.
        packets: packets the pass simulated.
        job_durations: ``JobOutcome.duration_s`` of every job executed in
            the cold phase.
        attempted: job outcomes settled over all phases.
        failed: failed job outcomes over all phases.
        problems: output checks that failed.
        extra: workload-specific numbers (shard startup, steals, ...).
    """

    wall_s: float
    phases: "dict[str, float]"
    digests: "dict[str, str]"
    jobs: int
    packets: int
    job_durations: "list[float]"
    attempted: int
    failed: int
    problems: "list[str]" = field(default_factory=list)
    extra: "dict[str, float]" = field(default_factory=dict)


# --------------------------------------------------------------------------
# City workloads.


@dataclass(frozen=True)
class CityInputs:
    """A city's inputs.  ``run_deployment`` re-derives the partition and
    job list from the spec; they are built here because ``setup_s``
    times building every input a user of the stack prepares."""

    spec: object
    partition: object
    fault_plan: object
    jobs: "list[object]"


class City:
    """A clustered ``city-10k``-shaped city of 10 four-hub clusters."""

    name = "city"
    armed = False
    #: Whether the traced (in-process) pass differs from an untraced one.
    traced_config_differs = False

    def build(self, seed: int, small: bool = False) -> CityInputs:
        from repro.deploy import city_scenario, partition, region_job_specs
        from repro.faults.region import region_fault_plan_for

        if small:
            spec = city_scenario(
                "bench-city-small", n_clusters=2, devices_per_hub=10,
                warmup_s=0.5, duration_s=1.5, lp_plan=False, seed=seed,
            )
        else:
            spec = city_scenario(
                "bench-city", n_clusters=10, devices_per_hub=100,
                lp_plan=False, seed=seed,
            )
        part = partition(spec)
        plan = region_fault_plan_for("metro-chaos", spec) if self.armed else None
        return CityInputs(spec, part, plan, region_job_specs(spec, part, plan))

    def run_pass(
        self, inputs: CityInputs, workdir: Path, in_process: bool = False
    ) -> PassResult:
        """One serial deployment run (already in-process, so
        ``in_process`` changes nothing)."""
        import repro.deploy.campaign as campaign
        from repro.runtime import CampaignConfig

        started = time.perf_counter()
        run = campaign.run_deployment(
            inputs.spec, CampaignConfig(n_jobs=1), fault_plan=inputs.fault_plan
        )
        wall = time.perf_counter() - started
        manifest = run.manifest
        outcomes = run.campaign.outcomes
        durations = [o.duration_s for o in outcomes if o.status == "completed"]
        result = PassResult(
            wall_s=wall,
            phases={"cold": wall},
            digests={"cold": _digest(campaign.manifest_json(manifest))},
            jobs=run.campaign.manifest.completed,
            packets=int(manifest["packets_attempted"]),
            job_durations=durations,
            attempted=len(outcomes),
            failed=len(run.campaign.failures),
        )
        result.extra["serial_overhead_share"] = 1.0 - sum(durations) / wall
        if result.packets <= 0:
            result.problems.append(f"packets_attempted={result.packets} is not > 0")
        ratio = float(manifest["delivery_ratio"])
        if not 0.0 < ratio <= 1.0:
            result.problems.append(f"delivery_ratio={ratio} is outside (0, 1]")
        if self.armed:
            events = int(manifest.get("resilience", {}).get("fault_events", 0))
            if events <= 0:
                result.problems.append(f"resilience.fault_events={events} is not > 0")
        return result


class CityFaults(City):
    """The same city with the ``metro-chaos`` region fault plan armed."""

    name = "city-faults"
    armed = True


# --------------------------------------------------------------------------
# Paper campaign.


@dataclass(frozen=True)
class CampaignInputs:
    seed: int
    specs: "list[object]"


def _session_packets(outcomes) -> int:
    """Packets simulated by the pair-DES jobs that executed."""
    return sum(
        int(o.metrics.get("packets_attempted", 0))
        for o in outcomes
        if o.status == "completed"
        and o.spec.kind in ("session.energy", "faults.session")
    )


def _lease_times(journal_dir: Path, campaign: str) -> "list[float]":
    """Wall-clock times of every lease record in the shard journals."""
    from repro.runtime.shard import shard_root

    times = []
    for path in sorted(shard_root(journal_dir, campaign).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("event") == "lease":
                times.append(float(record["time"]))
    return times


class PaperCampaign:
    """Every campaignable catalog experiment, run three ways per pass."""

    name = "paper-campaign"
    traced_config_differs = True

    def build(self, seed: int, small: bool = False) -> CampaignInputs:
        from repro.experiments import campaignable_ids
        from repro.runtime.workloads import campaign_specs

        specs = []
        for experiment in campaignable_ids():
            specs.extend(campaign_specs(experiment))
        for experiment in ("fig15", "fig16", "fig17", "fig18"):
            specs.extend(campaign_specs(experiment, backend="vectorized"))
        if small:
            # A few jobs of every kind keep each code path in the pass.
            seen: "dict[str, int]" = {}
            kept = []
            for spec in specs:
                if seen.get(spec.kind, 0) < 2:
                    kept.append(spec)
                    seen[spec.kind] = seen.get(spec.kind, 0) + 1
            specs = kept
        return CampaignInputs(seed, specs)

    @staticmethod
    def _canonical(result) -> str:
        import repro.runtime.shard as shard

        return json.dumps(
            shard.results_manifest(result), sort_keys=True, separators=(",", ":")
        )

    def run_pass(
        self, inputs: CampaignInputs, workdir: Path, in_process: bool = False
    ) -> PassResult:
        """Cold pooled, warm and cold sharded phases.  With ``in_process``
        (the traced pass and its untraced twin) cold and warm run with
        ``n_jobs=1`` and the sharded phase, whose workers no in-process
        probe can reach, is skipped."""
        import repro.runtime.executor as executor
        import repro.runtime.shard as shard

        specs = inputs.specs
        pool_dir = workdir / "pool"
        shard_dir = workdir / "shard"
        for stale in (pool_dir, shard_dir):
            shutil.rmtree(stale, ignore_errors=True)
        workers = 1 if in_process else WORKERS
        pooled = executor.CampaignConfig(
            n_jobs=workers, cache_dir=pool_dir, campaign_seed=inputs.seed
        )
        phases: "dict[str, float]" = {}
        results = {}
        started = time.perf_counter()
        results["cold"] = executor.run_campaign(specs, pooled)
        phases["cold"] = time.perf_counter() - started
        mark = time.perf_counter()
        results["warm"] = executor.run_campaign(specs, pooled)
        phases["warm"] = time.perf_counter() - mark
        lease_call = 0.0
        if not in_process:
            sharded = executor.CampaignConfig(cache_dir=shard_dir, campaign_seed=inputs.seed)
            mark = time.perf_counter()
            lease_call = time.time()
            results["sharded"] = shard.run_sharded_campaign(
                specs, sharded, shard.ShardConfig(shards=SHARDS, workers=WORKERS)
            )
            phases["sharded"] = time.perf_counter() - mark
        wall = time.perf_counter() - started

        cold = results["cold"]
        durations = [o.duration_s for o in cold.outcomes if o.status == "completed"]
        packets = sum(_session_packets(r.outcomes) for r in results.values())
        result = PassResult(
            wall_s=wall,
            phases=phases,
            digests={phase: _digest(self._canonical(r)) for phase, r in results.items()},
            jobs=cold.manifest.completed,
            packets=packets,
            job_durations=durations,
            attempted=sum(len(r.outcomes) for r in results.values()),
            failed=sum(len(r.failures) for r in results.values()),
        )
        busy = sum(durations)
        key = "serial_overhead_share" if in_process else "pool_overhead_share"
        result.extra[key] = 1.0 - busy / (phases["cold"] * workers)
        if "sharded" in results:
            # Shard outcomes carry no duration; the pooled phase ran the
            # identical job list, so its job busy time stands in.
            result.extra["shard_overhead_share"] = 1.0 - busy / (phases["sharded"] * WORKERS)
            sharded_manifest = results["sharded"].manifest
            result.extra["shard_steals"] = float(sharded_manifest.steals)
            leases = _lease_times(shard_dir / "journal", sharded_manifest.campaign)
            if leases:
                result.extra["shard_startup_s"] = min(leases) - lease_call
            else:
                result.problems.append("sharded phase journaled no lease record")
        warm = results["warm"].manifest
        if warm.cached != warm.total or warm.completed != 0:
            result.problems.append(
                f"warm phase cached {warm.cached}/{warm.total} and ran {warm.completed} "
                "(expected all cached, none run)"
            )
        if len(set(result.digests.values())) != 1:
            result.problems.append(f"phase results differ: {result.digests}")
        return result


WORKLOADS = {w.name: w for w in (City(), CityFaults(), PaperCampaign())}
