"""End-to-end crash-safe resume: SIGKILL a campaign subprocess (and its
forked workers) mid-run, resume it, and require bit-identical results to
an uninterrupted run; a coordinator killed alone must not orphan its
workers past their next job boundary."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_DRIVER = '''
import csv
import json
import sys
import time
from pathlib import Path

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner


@register_job_runner("kr.slow_draw")
def _slow_draw(spec, rng):
    time.sleep(float(spec.param("sleep_s", "0.15")))
    return {"seed": spec.seed, "draw": float(rng.random())}


def main():
    cache_dir, n_jobs, mode, out = sys.argv[1:5]
    specs = [
        JobSpec.with_params("kr.slow_draw", {"sleep_s": "0.15"}, seed=i)
        for i in range(10)
    ]
    config = CampaignConfig(
        cache_dir=Path(cache_dir), n_jobs=int(n_jobs), campaign_seed=3
    )
    result = run_campaign(specs, config, resume=(mode == "resume"))
    out = Path(out)
    payload = {
        "fingerprints": [spec.fingerprint() for spec in specs],
        "metrics": result.metrics,
        "resumed": result.manifest.resumed,
        "completed": result.manifest.completed,
        "campaign": result.manifest.campaign,
    }
    out.with_suffix(".json").write_text(json.dumps(payload, sort_keys=True))
    with out.with_suffix(".csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["fingerprint", "seed", "draw"])
        for spec, metrics in zip(specs, result.metrics):
            writer.writerow([spec.fingerprint(), metrics["seed"], metrics["draw"]])


main()
'''


def _run_driver(script, cache_dir, n_jobs, mode, out, env):
    subprocess.run(
        [sys.executable, str(script), str(cache_dir), str(n_jobs), mode, str(out)],
        check=True,
        env=env,
        timeout=120,
    )


def _setup(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return script, env


def _start_victim(script, cache_dir, n_jobs, out, env):
    """The victim driver in its own session, so its whole process group
    (coordinator plus forked workers) can be signalled at once."""
    return subprocess.Popen(
        [
            sys.executable, str(script), str(cache_dir), str(n_jobs),
            "fresh", str(out),
        ],
        env=env,
        start_new_session=True,
    )


def _wait_for_cached(proc, cache_dir, count):
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if len(list(cache_dir.glob("*.json"))) >= count:
            return
        if proc.poll() is not None:
            pytest.fail("victim campaign finished before it could be killed")
        time.sleep(0.02)
    pytest.fail(f"victim campaign never cached {count} results")


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)


def _lease_pids(cache_dir):
    """Every pid that ever journaled a lease in the victim's shards."""
    pids = set()
    for path in cache_dir.glob("journal/shards/*/shard-*.jsonl"):
        for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("event") == "lease" and isinstance(record.get("pid"), int):
                pids.add(record["pid"])
    return pids


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie still answers signal 0; it is dead for our purposes.
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_sigkill_then_resume_is_bit_identical(tmp_path, n_jobs):
    script, env = _setup(tmp_path)

    # Uninterrupted reference run in its own cache.
    ref_cache = tmp_path / "ref-cache"
    ref_out = tmp_path / "ref"
    _run_driver(script, ref_cache, n_jobs, "fresh", ref_out, env)
    reference = json.loads(ref_out.with_suffix(".json").read_text())
    assert reference["completed"] == 10

    # Victim run: SIGKILL the whole process group once at least 3
    # results have been cached.
    victim_cache = tmp_path / "victim-cache"
    victim_out = tmp_path / "victim"
    proc = _start_victim(script, victim_cache, n_jobs, victim_out, env)
    try:
        _wait_for_cached(proc, victim_cache, 3)
    finally:
        _kill_group(proc)

    cached_before_resume = len(list(victim_cache.glob("*.json")))
    assert 3 <= cached_before_resume < 10
    victims = _lease_pids(victim_cache)
    assert victims

    # Resume in the same cache; must converge to the reference bit-for-bit
    # without waiting out the dead holders' 30 s leases.
    started = time.monotonic()
    _run_driver(script, victim_cache, n_jobs, "resume", victim_out, env)
    assert time.monotonic() - started < 20.0
    resumed = json.loads(victim_out.with_suffix(".json").read_text())
    assert resumed["resumed"] > 0
    assert resumed["resumed"] + resumed["completed"] == 10
    assert resumed["fingerprints"] == reference["fingerprints"]
    assert resumed["metrics"] == reference["metrics"]
    assert resumed["campaign"] == reference["campaign"]
    assert (
        victim_out.with_suffix(".csv").read_bytes()
        == ref_out.with_suffix(".csv").read_bytes()
    )
    assert not [pid for pid in victims if _alive(pid)]


def test_workers_of_a_killed_coordinator_exit_at_the_next_job(tmp_path):
    """SIGKILL only the coordinator: its forked workers notice the new
    parent at their next job boundary, give their leases back and exit."""
    script, env = _setup(tmp_path)
    cache = tmp_path / "cache"
    proc = _start_victim(script, cache, 2, tmp_path / "victim", env)
    try:
        _wait_for_cached(proc, cache, 2)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        workers = _lease_pids(cache) - {proc.pid}
        assert workers
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(_alive(p) for p in workers):
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        _kill_group(proc)
