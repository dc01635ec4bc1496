"""Fan a deployment out across the campaign runtime and merge results.

Each region of the partitioned scenario becomes one ``"deploy.region"``
:class:`~repro.runtime.jobs.JobSpec` carrying the *entire* scenario JSON
plus its region index — workers re-derive the partition (a pure function
of the spec) and simulate their slice.  The jobs ride the full PR-1/PR-5
runtime: process pool, content-addressed result cache, write-ahead
journal, crash-safe ``--resume``.

The merge is deterministic by construction: region reports are keyed by
region index (not completion order), every random stream inside a region
is content-addressed from the scenario fingerprint, and the merged
manifest carries no wall-clock or host state.  Same fingerprint ⇒
bit-identical manifest at any worker count, chunking, execution order or
journal resume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from ..runtime.executor import CampaignConfig, CampaignResult, run_campaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.region import RegionFaultPlan
    from ..runtime.shard import ShardConfig
from ..runtime.jobs import JobSpec
from .partition import DeploymentPartition, partition
from .spec import DEPLOY_SCHEMA_VERSION, DeploymentSpec


def region_job_specs(
    spec: DeploymentSpec,
    part: "DeploymentPartition | None" = None,
    fault_plan: "RegionFaultPlan | None" = None,
) -> "list[JobSpec]":
    """One ``deploy.region`` job per independent region.

    A non-empty ``fault_plan`` rides along as a ``faults`` param (its
    canonical JSON, folded into each job's content fingerprint — armed
    and unarmed runs can never collide in the result cache), tagged
    ``energy=metered`` so cache entries from when armed regions reported
    battery-delta energy are recomputed, not served.  ``None`` or an
    empty plan adds nothing, so unarmed job fingerprints are
    byte-identical to runs with the fault machinery absent.
    """
    if part is None:
        part = partition(spec)
    scenario_json = spec.to_json()
    params: "dict[str, object]" = {"scenario": scenario_json}
    if fault_plan is not None and not fault_plan.is_empty:
        params["faults"] = fault_plan.to_json()
        params["energy"] = "metered"
    return [
        JobSpec.with_params(
            "deploy.region",
            {**params, "region": region.index},
            seed=spec.seed,
        )
        for region in part.regions
    ]


def merge_region_reports(
    spec: DeploymentSpec,
    part: DeploymentPartition,
    reports: "Sequence[Mapping[str, object]]",
    fault_plan: "RegionFaultPlan | None" = None,
) -> "dict[str, object]":
    """Fold per-region reports into one deployment manifest.

    Reports are re-ordered by region index before merging, so the
    manifest is independent of completion order.  A non-empty
    ``fault_plan`` adds its fingerprint and the merged degradation
    block (coverage ratio, orphaned-device-seconds, handoff counts and
    latency); unarmed manifests carry neither key, byte for byte.

    Raises:
        ValueError: if the reports do not cover every region exactly
            once.
    """
    by_region = {int(report["region"]): dict(report) for report in reports}  # type: ignore[arg-type]
    expected = {region.index for region in part.regions}
    if set(by_region) != expected or len(reports) != len(expected):
        raise ValueError(
            f"region reports {sorted(by_region)} do not cover "
            f"regions {sorted(expected)} exactly once"
        )
    ordered = [by_region[index] for index in sorted(by_region)]
    manifest: "dict[str, object]" = {
        "schema": DEPLOY_SCHEMA_VERSION,
        "scenario": spec.name,
        "fingerprint": spec.fingerprint(),
        "seed": spec.seed,
        "hub_count": part.hub_count,
        "device_count": spec.device_count,
        "region_count": len(part.regions),
        "channels": list(part.channels),
        "interference_edges": sorted(list(edge) for edge in part.edges),
        "warmup_s": spec.warmup_s,
        "duration_s": spec.duration_s,
        "bits_delivered": int(sum(r["bits_delivered"] for r in ordered)),  # type: ignore[misc]
        "packets_delivered": int(sum(r["packets_delivered"] for r in ordered)),  # type: ignore[misc]
        "packets_attempted": int(sum(r["packets_attempted"] for r in ordered)),  # type: ignore[misc]
        "client_energy_j": float(sum(r["client_energy_j"] for r in ordered)),  # type: ignore[misc]
        "hub_energy_j": float(sum(r["hub_energy_j"] for r in ordered)),  # type: ignore[misc]
        "suspensions": int(sum(r["suspensions"] for r in ordered)),  # type: ignore[misc]
        "resumes": int(sum(r["resumes"] for r in ordered)),  # type: ignore[misc]
        "interfered_hubs": int(sum(r["interfered_hubs"] for r in ordered)),  # type: ignore[misc]
        "regions": ordered,
    }
    total_bits = manifest["bits_delivered"]
    manifest["goodput_bps"] = float(total_bits) / spec.duration_s  # type: ignore[arg-type]
    attempted = manifest["packets_attempted"]
    manifest["delivery_ratio"] = (
        float(manifest["packets_delivered"]) / float(attempted)  # type: ignore[arg-type]
        if attempted
        else 1.0
    )
    if spec.lp_plan:
        lp_bits = float(sum(r["lp_bits"] for r in ordered))  # type: ignore[misc]
        manifest["lp_bits"] = lp_bits
        manifest["lp_efficiency"] = (
            float(total_bits) / lp_bits if lp_bits > 0.0 else 0.0  # type: ignore[arg-type]
        )
    if fault_plan is not None and not fault_plan.is_empty:
        blocks = [r["resilience"] for r in ordered]  # type: ignore[index]
        orphaned = float(sum(b["orphaned_device_s"] for b in blocks))  # type: ignore[index]
        handoffs = int(sum(b["handoffs"] for b in blocks))  # type: ignore[index]
        latency_total = float(
            sum(
                b["handoff_latency_mean_s"] * b["handoffs"]  # type: ignore[index, operator]
                for b in blocks
            )
        )
        manifest["fault_fingerprint"] = fault_plan.fingerprint()
        manifest["fault_count"] = len(fault_plan)
        manifest["resilience"] = {
            "coverage_ratio": 1.0 - orphaned / (spec.device_count * spec.duration_s),
            "orphaned_device_s": orphaned,
            "dark_hub_s": float(sum(b["dark_hub_s"] for b in blocks)),  # type: ignore[index]
            "handoffs": handoffs,
            "failed_handoffs": int(sum(b["failed_handoffs"] for b in blocks)),  # type: ignore[index]
            "reclaims": int(sum(b["reclaims"] for b in blocks)),  # type: ignore[index]
            "handoff_latency_mean_s": (
                latency_total / handoffs if handoffs else 0.0
            ),
            "fault_events": int(sum(b["fault_events"] for b in blocks)),  # type: ignore[index]
        }
    return manifest


def manifest_json(manifest: "Mapping[str, object]") -> str:
    """Canonical JSON form of a merged manifest (byte-stable)."""
    return json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def write_manifest(path: "Path | str", manifest: "Mapping[str, object]") -> Path:
    """Write the canonical manifest JSON to ``path`` (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(manifest_json(manifest) + "\n", encoding="utf-8")
    return target


@dataclass(frozen=True)
class DeploymentRun:
    """Outcome of one deployment campaign.

    Attributes:
        spec: the scenario that ran.
        partition: its region split.
        manifest: the deterministic merged manifest (no wall-clock state).
        campaign: the runtime's execution record (cache hits, retries,
            wall time — everything that may legitimately differ between
            runs of the same fingerprint).
    """

    spec: DeploymentSpec
    partition: DeploymentPartition
    manifest: "dict[str, object]"
    campaign: CampaignResult


def run_deployment(
    spec: DeploymentSpec,
    config: "CampaignConfig | None" = None,
    resume: "bool | None" = None,
    shard_config: "ShardConfig | None" = None,
    fault_plan: "RegionFaultPlan | None" = None,
) -> DeploymentRun:
    """Partition, fan out, simulate and merge one scenario.

    With ``shard_config`` the region jobs fan through the sharded
    multi-worker path (:func:`repro.runtime.shard.run_sharded_campaign`)
    instead of the in-process pool: region results flow between worker
    processes through the checksum-verified cache, and the merged
    deployment manifest is byte-identical either way.  A non-empty
    ``fault_plan`` arms every region's fault schedule (hub blackouts
    with failover, brownouts, churn storms, noise surges) and surfaces
    the degradation block in the manifest; ``None`` or an empty plan
    is bit-identical to a run with no fault machinery at all.

    Raises:
        CampaignError: if any region job ultimately failed.
    """
    part = partition(spec)
    specs = region_job_specs(spec, part, fault_plan=fault_plan)
    if config is None:
        config = CampaignConfig()
    if shard_config is not None:
        from ..runtime.shard import run_sharded_campaign

        result = run_sharded_campaign(specs, config, shard_config).raise_on_failure()
    else:
        result = run_campaign(specs, config, resume=resume).raise_on_failure()
    reports = [outcome.metrics for outcome in result.outcomes]
    manifest = merge_region_reports(spec, part, reports, fault_plan=fault_plan)  # type: ignore[arg-type]
    return DeploymentRun(
        spec=spec, partition=part, manifest=manifest, campaign=result
    )
