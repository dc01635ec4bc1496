"""Worker supervision on the lease engine: hung workers, a fully hung
fleet, slow jobs outliving their lease, and cleanup of every worker
process and temporary directory."""

import multiprocessing
import tempfile
import time
from pathlib import Path

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.shard import ShardConfig, run_sharded_campaign


@register_job_runner("test.sup_echo")
def _sup_echo(spec, rng):
    return {"seed": spec.seed, "draw": float(rng.random())}


@register_job_runner("test.sup_fail")
def _sup_fail(spec, rng):
    raise RuntimeError("always broken")


@register_job_runner("test.hang_once")
def _hang_once(spec, rng):
    """Hang (sleep far past any lease) on first execution, succeed on
    the next — the marker file survives the hung worker, so whoever
    takes the shard over completes the job at once."""
    marker = Path(spec.param("marker"))
    if not marker.exists():
        marker.write_text("hung once")
        time.sleep(300.0)
    return {"seed": spec.seed, "recovered": 1.0}


def _count(spec):
    """Append one line per execution to a per-job file (works across
    worker processes)."""
    path = Path(spec.param("dir")) / spec.fingerprint()
    with path.open("a", encoding="utf-8") as handle:
        handle.write("ran\n")


@register_job_runner("test.sleep_then_echo")
def _sleep_then_echo(spec, rng):
    """Sleep only while the marker is absent (so the thief's re-run of a
    stolen job finishes instantly)."""
    _count(spec)
    marker = Path(spec.param("marker"))
    if not marker.exists():
        marker.write_text("slept")
        time.sleep(float(spec.param("sleep_s", "2.0")))
    return {"seed": spec.seed}


@register_job_runner("test.sup_counted")
def _sup_counted(spec, rng):
    _count(spec)
    return {"seed": spec.seed}


def _hang_specs(tmp_path, n):
    return [
        JobSpec.with_params(
            "test.hang_once", {"marker": str(tmp_path / f"hang{i}.marker")}, seed=i
        )
        for i in range(n)
    ]


class TestHungWorkers:
    def test_hung_worker_shard_is_taken_over_and_campaign_completes(self, tmp_path):
        """One worker hangs inside a job: its lease expires, the shard is
        taken over and resumed from its journal, and every job is
        accounted for without waiting out the 300 s sleep."""
        specs = _hang_specs(tmp_path, 1) + [
            JobSpec(kind="test.sup_echo", seed=i) for i in range(6)
        ]
        config = CampaignConfig(
            cache_dir=tmp_path / "cache", max_retries=1, backoff_s=0.01
        )
        started = time.monotonic()
        result = run_sharded_campaign(
            specs, config, ShardConfig(shards=3, workers=2, lease_s=0.5, poll_s=0.02)
        )
        assert time.monotonic() - started < 60.0
        assert [o.status for o in result.outcomes] == ["completed"] * 7
        assert result.outcomes[0].metrics == {"seed": 0, "recovered": 1.0}
        assert result.manifest.steals >= 1
        assert multiprocessing.active_children() == []

    def test_fully_hung_fleet_is_finished_by_the_coordinator(self, tmp_path):
        """Every worker stuck in a job: nobody is left to steal the
        expired leases, so the coordinator claims the shards itself."""
        specs = _hang_specs(tmp_path, 2)
        config = CampaignConfig(cache_dir=tmp_path / "cache", backoff_s=0.0)
        started = time.monotonic()
        result = run_sharded_campaign(
            specs, config, ShardConfig(shards=2, workers=2, lease_s=0.5, poll_s=0.02)
        )
        assert time.monotonic() - started < 60.0
        assert [o.status for o in result.outcomes] == ["completed", "completed"]
        assert result.manifest.interrupted is False
        assert multiprocessing.active_children() == []

    def test_healthy_fleet_never_steals(self):
        specs = [JobSpec(kind="test.sup_echo", seed=i) for i in range(8)]
        result = run_campaign(specs, CampaignConfig(n_jobs=2))
        assert result.manifest.steals == 0
        assert all(o.status == "completed" for o in result.outcomes)

    def test_slow_job_outliving_its_lease_is_stolen_once(self, tmp_path):
        """A job slower than the lease gets its shard stolen by the idle
        worker, which re-runs just that job; every other job — in either
        shard — runs exactly once."""
        counts = tmp_path / "counts"
        counts.mkdir()
        slow = JobSpec.with_params(
            "test.sleep_then_echo",
            {"marker": str(tmp_path / "sleep.marker"), "sleep_s": "3.0",
             "dir": str(counts)},
            seed=0,
        )
        fast = [
            JobSpec.with_params("test.sup_counted", {"dir": str(counts)}, seed=i)
            for i in range(1, 6)
        ]
        config = CampaignConfig(
            cache_dir=tmp_path / "cache", max_retries=1, backoff_s=0.0
        )
        result = run_sharded_campaign(
            [slow] + fast,
            config,
            ShardConfig(shards=2, workers=2, lease_s=0.5, poll_s=0.02),
        )
        assert [o.status for o in result.outcomes] == ["completed"] * 6
        assert result.manifest.steals >= 1
        executions = {
            p.name: len(p.read_text().splitlines()) for p in counts.iterdir()
        }
        assert executions[slow.fingerprint()] == 2  # hung holder + thief
        for spec in fast:
            assert executions[spec.fingerprint()] == 1


class TestCleanup:
    """No worker process and no private exchange directory may outlive
    the campaign — including the hung path, where workers are still
    stuck in a job when the campaign ends."""

    def _leaked(self, tmp_path):
        return list(tmp_path.glob("repro-campaign-*"))

    def test_uncached_parallel_run_leaves_nothing_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        specs = [JobSpec(kind="test.sup_echo", seed=i) for i in range(4)]
        result = run_campaign(specs, CampaignConfig(n_jobs=2))
        assert all(o.status == "completed" for o in result.outcomes)
        assert self._leaked(tmp_path) == []
        assert multiprocessing.active_children() == []

    def test_budget_abort_leaves_nothing_behind(self, tmp_path, monkeypatch):
        """An aborted fleet (workers SIGTERMed mid-shard) still removes
        the exchange directory and reaps every worker."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        specs = [JobSpec(kind="test.sup_fail", seed=i) for i in range(8)]
        result = run_campaign(
            specs, CampaignConfig(n_jobs=2, max_retries=0, max_failures=1)
        )
        assert all(o.status == "failed" for o in result.outcomes)
        assert result.manifest.interrupted
        assert self._leaked(tmp_path) == []
        assert multiprocessing.active_children() == []
