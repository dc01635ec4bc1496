"""Deploy-layer fault tolerance: empty-plan bit-identity, blackout
handoff, manifest byte parity across execution paths, CLI validation."""

import json

import pytest

from repro.__main__ import main
from repro.core.regimes import LinkMap
from repro.deploy import (
    DeviceClass,
    DeploymentSpec,
    HubLayout,
    manifest_json,
    partition,
    region_job_specs,
    run_deployment,
    scenario,
    simulate_region,
)
from repro.deploy.region import _run_hubs
from repro.experiments.catalog import (
    DEPLOY_RESILIENCE_COLUMNS,
    deployment_resilience_rows,
)
from repro.faults import (
    REGION_FAULT_PROFILES,
    RegionFaultKind,
    RegionFaultPlan,
    RegionFaultSpec,
    region_fault_plan_for,
)
from repro.runtime import CampaignConfig, JobSpec, ShardConfig
from repro.runtime.cache import ResultCache


def _pair_spec(**overrides):
    """Two hubs 15 m apart — one shared region, handoff in active range."""
    defaults = dict(
        name="pair",
        hubs=HubLayout(strategy="grid", count=2, spacing_m=15.0),
        classes=(DeviceClass(name="phone", device="iPhone 6S"),),
        devices_per_hub=3,
        warmup_s=0.2,
        duration_s=1.0,
        lp_plan=False,
    )
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def _single_region(spec):
    regions = partition(spec).regions
    assert len(regions) == 1, "pair spec must form one shared region"
    return regions[0]


class TestEmptyPlanBitIdentity:
    def test_region_report_identical_to_unarmed(self):
        spec = _pair_spec()
        region = _single_region(spec)
        unarmed = simulate_region(spec, region)
        empty = simulate_region(spec, region, fault_plan=RegionFaultPlan.empty())
        assert json.dumps(unarmed, sort_keys=True) == json.dumps(
            empty, sort_keys=True
        )

    def test_manifest_identical_to_unarmed(self):
        spec = scenario("smoke")
        unarmed = run_deployment(spec, CampaignConfig(n_jobs=1))
        empty = run_deployment(
            spec, CampaignConfig(n_jobs=1), fault_plan=RegionFaultPlan.empty()
        )
        assert manifest_json(unarmed.manifest) == manifest_json(empty.manifest)
        assert "resilience" not in unarmed.manifest
        assert "fault_fingerprint" not in unarmed.manifest

    def test_unarmed_job_fingerprints_unchanged_by_empty_plan(self):
        spec = scenario("smoke")
        bare = [s.fingerprint() for s in region_job_specs(spec)]
        empty = [
            s.fingerprint()
            for s in region_job_specs(spec, fault_plan=RegionFaultPlan.empty())
        ]
        assert bare == empty

    def test_armed_jobs_fork_the_cache_identity(self):
        spec = scenario("smoke")
        plan = region_fault_plan_for("blackout", spec)
        bare = {s.fingerprint() for s in region_job_specs(spec)}
        armed = {
            s.fingerprint() for s in region_job_specs(spec, fault_plan=plan)
        }
        assert bare.isdisjoint(armed)

    def test_entries_cached_under_the_old_armed_key_are_not_served(
        self, tmp_path
    ):
        # Armed region jobs were once keyed without the energy tag and
        # reported battery-delta energy; such entries must be recomputed.
        spec = scenario("smoke")
        plan = region_fault_plan_for("blackout", spec)
        clean = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan)
        cache = ResultCache(tmp_path)
        for job, region in zip(
            region_job_specs(spec, fault_plan=plan), clean.manifest["regions"]
        ):
            old_key = JobSpec(
                kind=job.kind,
                seed=job.seed,
                params=tuple(p for p in job.params if p[0] != "energy"),
            )
            assert old_key.fingerprint() != job.fingerprint()
            stale = dict(region, client_energy_j=2.0 * region["client_energy_j"])
            cache.put(old_key, stale)
        rerun = run_deployment(
            spec, CampaignConfig(n_jobs=1, cache_dir=tmp_path), fault_plan=plan
        )
        assert rerun.campaign.manifest.cached == 0
        assert manifest_json(rerun.manifest) == manifest_json(clean.manifest)


def _ci_small_region0_with_inert_brownout():
    """ci-small region 0, armed with a brownout aimed at a hub of the
    other region: the plan is non-empty but nothing in it fires here."""
    spec = scenario("ci-small")
    regions = partition(spec).regions
    plan = RegionFaultPlan.of(
        RegionFaultSpec(
            kind=RegionFaultKind.HUB_BROWNOUT,
            start_s=spec.warmup_s + 0.5,
            duration_s=1.0,
            hub=regions[1].hub_indices[0],
        )
    )
    return spec, regions[0], plan


class TestOnePathOneEnergy:
    """The unarmed and armed groupings differ only in speed."""

    COMPARED = (
        "bits_delivered", "packets_delivered", "packets_attempted",
        "client_energy_j", "hub_energy_j",
    )

    @pytest.fixture(scope="class")
    def inert(self):
        spec, region, plan = _ci_small_region0_with_inert_brownout()
        return simulate_region(spec, region), simulate_region(spec, region, plan)

    @pytest.mark.parametrize("key", COMPARED)
    def test_inert_armed_plan_matches_unarmed(self, inert, key):
        unarmed, armed = inert
        assert armed["resilience"]["fault_events"] == 0
        assert armed[key] == unarmed[key]
        assert [h[key] for h in armed["hubs"]] == [
            h[key] for h in unarmed["hubs"]
        ]

    @pytest.mark.parametrize(
        "spec", [_pair_spec(), scenario("ci-small"), scenario("smoke")],
        ids=["pair", "ci-small", "smoke"],
    )
    def test_shared_kernel_matches_per_hub_kernels(self, spec):
        for region in partition(spec).regions:
            shared, block = _run_hubs(
                spec, region, range(region.hub_count), LinkMap()
            )
            assert block is None
            assert shared == simulate_region(spec, region)["hubs"]


class TestBlackoutHandoff:
    @pytest.fixture(scope="class")
    def armed(self):
        spec = _pair_spec()
        plan = region_fault_plan_for("blackout", spec)
        return spec, plan, simulate_region(spec, _single_region(spec), plan)

    def test_coverage_dips_then_recovers(self, armed):
        _, _, report = armed
        block = report["resilience"]
        assert 0.0 < block["coverage_ratio"] < 1.0
        assert block["orphaned_device_s"] > 0.0
        assert block["dark_hub_s"] > 0.0

    def test_devices_fail_over_to_the_neighbor(self, armed):
        spec, plan, report = armed
        dark_hub = next(iter(plan)).hub
        hubs = {h["hub"]: h for h in report["hubs"]}
        assert hubs[dark_hub]["handoffs_out"] > 0
        assert hubs[dark_hub]["reboots"] == 1
        neighbors_in = sum(
            h["handoffs_in"] for g, h in hubs.items() if g != dark_hub
        )
        assert neighbors_in == hubs[dark_hub]["handoffs_out"]

    def test_returning_hub_reclaims_its_flock(self, armed):
        _, _, report = armed
        block = report["resilience"]
        assert block["reclaims"] == block["handoffs"] - block["failed_handoffs"]
        assert block["handoffs"] > 0
        assert block["handoff_latency_mean_s"] > 0.0

    def test_fault_events_are_counted(self, armed):
        _, _, report = armed
        assert report["resilience"]["fault_events"] >= 1
        assert sum(h["fault_events"] for h in report["hubs"]) >= 1


class TestEveryProfileRuns:
    @pytest.mark.parametrize(
        "profile", [p for p in REGION_FAULT_PROFILES if p != "none"]
    )
    def test_armed_region_completes_and_reports(self, profile):
        spec = _pair_spec()
        plan = region_fault_plan_for(profile, spec)
        report = simulate_region(spec, _single_region(spec), plan)
        assert report["resilience"]["fault_events"] >= 1
        assert report["bits_delivered"] > 0
        for key in (
            "coverage_ratio", "orphaned_device_s", "dark_hub_s", "handoffs",
            "failed_handoffs", "reclaims", "handoff_latency_mean_s",
        ):
            assert key in report["resilience"]

    def test_isolated_orphans_fail_handoff(self):
        # A lone hub has no neighbor to adopt its flock: every attempt
        # must fail (bounded retries) and outage accrues instead.
        spec = _pair_spec(
            hubs=HubLayout(strategy="grid", count=1, spacing_m=15.0)
        )
        plan = RegionFaultPlan.of(
            RegionFaultSpec(
                kind=RegionFaultKind.HUB_BLACKOUT,
                start_s=spec.warmup_s + 0.2,
                duration_s=0.4,
                hub=0,
            )
        )
        report = simulate_region(spec, _single_region(spec), plan)
        block = report["resilience"]
        assert block["handoffs"] == 0
        assert block["failed_handoffs"] > 0
        assert block["orphaned_device_s"] > 0.0


class TestArmedDeterminism:
    def test_manifest_bit_identical_across_worker_counts(self):
        spec = scenario("smoke")
        plan = region_fault_plan_for("blackout", spec)
        serial = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan)
        pooled = run_deployment(spec, CampaignConfig(n_jobs=2), fault_plan=plan)
        assert manifest_json(serial.manifest) == manifest_json(pooled.manifest)

    def test_manifest_bit_identical_through_the_sharded_path(self, tmp_path):
        spec = scenario("smoke")
        plan = region_fault_plan_for("blackout", spec)
        serial = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan)
        sharded = run_deployment(
            spec,
            CampaignConfig(n_jobs=1, cache_dir=tmp_path),
            shard_config=ShardConfig(shards=2, workers=1, poll_s=0.01),
            fault_plan=plan,
        )
        assert manifest_json(serial.manifest) == manifest_json(sharded.manifest)

    def test_resilience_csv_rows_are_reproducible(self):
        spec = scenario("smoke")
        plan = region_fault_plan_for("blackout", spec)
        first = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan)
        second = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan)
        rows_a = deployment_resilience_rows(first.manifest, "blackout")
        rows_b = deployment_resilience_rows(second.manifest, "blackout")
        assert rows_a == rows_b
        assert len(rows_a) == spec.hub_count
        assert all(len(row) == len(DEPLOY_RESILIENCE_COLUMNS) for row in rows_a)

    def test_merged_block_aggregates_the_regions(self):
        spec = scenario("smoke")
        plan = region_fault_plan_for("blackout", spec)
        run = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan)
        manifest = run.manifest
        assert manifest["fault_fingerprint"] == plan.fingerprint()
        assert manifest["fault_count"] == len(plan)
        block = manifest["resilience"]
        per_region = [r["resilience"] for r in manifest["regions"]]
        assert block["handoffs"] == sum(b["handoffs"] for b in per_region)
        assert block["orphaned_device_s"] == pytest.approx(
            sum(b["orphaned_device_s"] for b in per_region)
        )
        assert 0.0 < block["coverage_ratio"] < 1.0


class TestCli:
    def test_unknown_deploy_profile_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["deploy", "smoke", "--faults", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown fault profile 'bogus'" in err
        assert "blackout" in err

    def test_deploy_list_profiles(self, capsys):
        assert main(["deploy", "--list-profiles"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(REGION_FAULT_PROFILES)

    def test_unknown_faults_profile_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown faults profile 'bogus'" in err

    def test_faults_list_profiles(self, capsys):
        from repro.faults import FAULT_PROFILES

        assert main(["faults", "--list-profiles"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(FAULT_PROFILES)

    def test_faults_without_profile_exits_2(self, capsys):
        assert main(["faults"]) == 2
        assert "profile name is required" in capsys.readouterr().err

    def test_deploy_faults_prints_resilience(self, capsys):
        assert main(["deploy", "smoke", "--faults", "blackout"]) == 0
        out = capsys.readouterr().out
        assert "faults (blackout): coverage" in out
        assert "handoffs" in out

    def test_deploy_faults_none_prints_no_resilience(self, capsys):
        assert main(["deploy", "smoke", "--faults", "none"]) == 0
        assert "faults (" not in capsys.readouterr().out

    def test_deploy_faults_exporter_writes_both_files(self, tmp_path):
        assert main(["export", "deploy-faults", str(tmp_path)]) == 0
        csv_path = tmp_path / "deploy_resilience.csv"
        manifest_path = tmp_path / "deploy_blackout_manifest.json"
        assert csv_path.is_file() and manifest_path.is_file()
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(DEPLOY_RESILIENCE_COLUMNS)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["resilience"]["handoffs"] > 0
