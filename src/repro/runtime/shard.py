"""The campaign coordinator: shards, leases, forked workers, merge.

Every parallel or journaled campaign runs here.  ``run_campaign`` hands
over the jobs its resume/cache triage left pending (with K = 2·n_jobs
shards); :func:`run_sharded_campaign` hands over a whole campaign with
an explicit K.  Both go through the same steps:

* **partition** — specs are ordered by content fingerprint and dealt
  round-robin into K shards, so the split depends only on the job set,
  never on submission order or worker count;
* **journals** — each shard gets an append-only journal under
  :func:`shard_root`; the coordinator opens every one with a ``begin``
  record, so nothing an earlier run left there (leases, ``end``,
  ``interrupted``) carries over, while its ``done``/``failed`` records
  stay readable for a resume.  Workers append without waiting on the
  disk; the coordinator fsyncs every shard journal at each poll;
* **leases** — a worker claims a shard by appending a ``lease`` record
  (worker id, pid, wall-clock deadline, nonce) and re-reading the
  journal: ``O_APPEND`` gives every contender the same total order, and
  a claim is *granted* only if the previous granted lease was released,
  renewed by the same worker, or already expired at the claim's
  timestamp.  Both racers apply the same pure function to the same
  bytes, so they agree on the winner without any other IPC;
* **workers** — forked processes run :func:`run_shard_worker`: lease,
  run, steal until no shard is left.  A worker that finds its
  coordinator gone (``os.getppid()`` changed) gives its lease back at the
  next job boundary and exits;
* **steal** — an expired lease is claimable by anyone: a hung worker's
  shard is picked up by a free worker and *resumed from its journal* —
  settled ``done`` records are verified against the cache and never
  recomputed.  A worker that died has its lease released by the
  coordinator at once.  When no live worker is left to claim a
  claimable shard (all dead, all stuck in a job, or none could be
  started; ``n_jobs=1`` starts none), the coordinator runs it itself;
* **failure budget** — one ledger of *distinct* failed jobs (seeded from
  the journals on resume) against ``max_failures``; on breach the
  coordinator stops the fleet and journals ``interrupted`` into every
  unfinished shard;
* **merge** — the coordinator folds the shard journals back into
  outcomes in submission order, reading every payload from the
  checksum-verified cache.  Because job results are pure functions of
  (spec, campaign seed), the :func:`results_manifest` of any run is
  **byte-identical** to an uninterrupted single-process run, whatever
  worker ran which shard or how many steals happened along the way.

See DESIGN.md §10 for the runtime contract.
"""

from __future__ import annotations

import json
import os
import secrets
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .cache import ResultCache
from .executor import (
    CampaignConfig,
    CampaignResult,
    JobOutcome,
    _FailureLedger,
    _SignalGuard,
    _execute,
    _run_attempts,
)
from .jobs import JobSpec
from .journal import CampaignJournal, JournalReplay, metrics_checksum, replay_journal
from .progress import ShardBoard

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

#: Schema version of the results manifest.
SHARD_FORMAT = 1

#: Subdirectory (under the journal dir) holding the shard journals.
SHARD_SUBDIR = "shards"

#: Lease holder name of the coordinator when it runs shards itself.
COORDINATOR = "coordinator"


@dataclass(frozen=True)
class ShardConfig:
    """Knobs for one sharded campaign.

    Attributes:
        shards: number of shards the fingerprint-space is split into
            (clamped to the job count).
        workers: worker processes the coordinator forks.
        lease_s: lease duration; a worker renews at job boundaries once
            less than half of it remains, and a lease this stale is
            stealable.  Must comfortably exceed the slowest single job.
        poll_s: worker/coordinator journal polling tick.
    """

    shards: int = 2
    workers: int = 2
    lease_s: float = 30.0
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.lease_s <= 0.0:
            raise ValueError(f"lease must be positive, got {self.lease_s!r}")
        if self.poll_s <= 0.0:
            raise ValueError(f"poll must be positive, got {self.poll_s!r}")


# --------------------------------------------------------------------------
# Deterministic partition.


def partition_shards(specs: "list[JobSpec]", n_shards: int) -> "list[list[int]]":
    """Split spec *indices* into at most ``n_shards`` deterministic shards.

    Specs are ordered by content fingerprint and dealt round-robin, so
    the partition is a pure function of the job set: reordering the
    submission list, changing the worker count, or resuming after a
    crash all reproduce the identical shard membership.  Empty shards
    are dropped (campaigns smaller than ``n_shards``).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    order = sorted(range(len(specs)), key=lambda i: specs[i].fingerprint())
    shards = [order[k::n_shards] for k in range(n_shards)]
    return [shard for shard in shards if shard]


# --------------------------------------------------------------------------
# Shard plan: what the coordinator hands its forked workers.


def shard_root(journal_dir: "Path | str", campaign: str) -> Path:
    """Directory holding one campaign's shard journals."""
    return Path(journal_dir) / SHARD_SUBDIR / campaign


def shard_journal_path(root: "Path | str", index: int) -> Path:
    """Journal file of one shard."""
    return Path(root) / f"shard-{index:04d}.jsonl"


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to run its slice of a campaign (workers
    are forked, so they receive it in memory)."""

    campaign: str
    campaign_seed: int
    calibration: str
    cache_dir: str
    specs: tuple[JobSpec, ...]
    shards: tuple[tuple[int, ...], ...]
    lease_s: float
    poll_s: float
    max_retries: int
    backoff_s: float

    def shard_specs(self, index: int) -> "list[tuple[int, JobSpec]]":
        """(submission index, spec) members of one shard, in submission
        order — the same order a single-process run would execute them."""
        members = sorted(self.shards[index])
        return [(i, self.specs[i]) for i in members]


# --------------------------------------------------------------------------
# Shard journal: the campaign journal plus lease records.


class ShardJournal(CampaignJournal):
    """Per-shard journal: job lifecycle records plus the lease protocol."""

    def lease(self, worker: str, now: float, deadline: float, nonce: str) -> None:
        """Claim (or renew) this shard until ``deadline``."""
        self._append(
            {
                "event": "lease",
                "worker": worker,
                "pid": os.getpid(),
                "time": now,
                "deadline": deadline,
                "nonce": nonce,
            }
        )

    def release(self, worker: str, nonce: str, reclaimed: bool = False) -> None:
        """Give the shard up: voluntarily (shard finished or abandoned),
        or — ``reclaimed`` — on behalf of a holder that died."""
        record: "dict[str, object]" = {
            "event": "release", "worker": worker, "nonce": nonce,
        }
        if reclaimed:
            record["reclaimed"] = True
        self._append(record)


def replay_shard_journal(path: "Path | str") -> JournalReplay:
    """The latest run's view of one shard journal (see
    :func:`~repro.runtime.journal.replay_journal`); never raises."""
    return replay_journal(path, current_run=True)


def replay_shards(root: "Path | str") -> JournalReplay:
    """Every shard journal under ``root`` folded into one history replay
    (all runs): what a resume trusts.  A ``done`` in any shard journal
    supersedes a ``failed`` in another."""
    merged = JournalReplay()
    for path in sorted(Path(root).glob("shard-*.jsonl")):
        replay = replay_journal(path)
        merged.done.update(replay.done)
        merged.failed.update(replay.failed)
        merged.finished_runs = max(merged.finished_runs, replay.finished_runs)
        merged.interrupted = merged.interrupted or replay.interrupted
    for fingerprint in merged.done:
        merged.failed.pop(fingerprint, None)
    return merged


def claim_shard(
    path: "Path | str",
    worker: str,
    lease_s: float,
    now: "float | None" = None,
    sync: bool = True,
) -> "tuple[ShardJournal, JournalReplay, str] | None":
    """Try to lease one shard; returns (journal, pre-claim state, nonce).

    The append-then-reread protocol: replay, append a claim, replay
    again; the claim won iff the re-read grants *our* nonce.  A loser's
    record stays in the journal but is provably never granted, because
    every reader applies the same grant rule to the same byte order.
    """
    now = time.time() if now is None else now
    state = replay_shard_journal(path)
    if state.finished or (state.leased(now) and state.holder != worker):
        return None
    journal = ShardJournal(path, campaign="", sync=sync)
    nonce = secrets.token_hex(8)
    journal.lease(worker, now, now + lease_s, nonce)
    confirmed = replay_shard_journal(path)
    if confirmed.holder == worker and confirmed.nonce == nonce:
        return journal, state, nonce
    journal.close()
    return None


# --------------------------------------------------------------------------
# Running shards (workers and the coordinator alike).


def _run_one_shard(
    plan: ShardPlan,
    index: int,
    worker: str,
    journal: ShardJournal,
    state: JournalReplay,
    cache: ResultCache,
    ledger: "_FailureLedger | None" = None,
    stop=None,
) -> None:
    """Execute one leased shard's unsettled jobs, renewing the lease.

    Settled ``done`` records whose cache entry still verifies are never
    recomputed; everything else runs through the executor's attempt loop
    (:func:`~repro.runtime.executor._run_attempts`).  Before each job the
    shard is abandoned — no ``end`` record, so it stays claimable — when
    ``ledger`` is breached, ``stop()`` says so, or a renewal finds the
    shard stolen or finished.
    """
    deadline = time.time() + plan.lease_s
    for _, spec in plan.shard_specs(index):
        if (ledger is not None and ledger.breached) or (stop is not None and stop()):
            return
        now = time.time()
        if deadline - now < plan.lease_s / 2.0:
            nonce = secrets.token_hex(8)
            deadline = now + plan.lease_s
            journal.lease(worker, now, deadline, nonce)
            renewed = replay_shard_journal(journal.path)
            if renewed.nonce != nonce or renewed.finished:
                return  # stolen while we were busy: the thief finishes it
        fingerprint = spec.fingerprint()
        checksum = state.done.get(fingerprint)
        if checksum is not None and cache.get_verified(spec, checksum) is not None:
            continue
        hit = cache.get(spec)
        if hit is not None:
            journal.done(spec, metrics_checksum(hit))
            continue
        journal.dispatched(spec)
        metrics, error, attempts, duration = _run_attempts(
            spec, plan.campaign_seed, plan.max_retries, plan.backoff_s
        )
        if metrics is not None:
            cache.put(spec, metrics)
            journal.done(spec, metrics_checksum(metrics), attempts, duration)
            if ledger is not None:
                ledger.success(fingerprint)
        else:
            journal.failed(spec, error, attempts, duration)
            if ledger is not None:
                ledger.failure(fingerprint)
    final = replay_shard_journal(journal.path)
    if final.holder == worker:
        journal.end(completed=len(final.done), failed=len(final.failed), skipped=0)


def _release_if_held(journal: ShardJournal, worker: str) -> None:
    last = replay_shard_journal(journal.path)
    if last.holder == worker:
        journal.release(worker, last.nonce)


def _pick_claimable(
    plan: ShardPlan, states: "dict[int, JournalReplay]", now: float
) -> "int | None":
    """The shard a free worker should go for, or ``None``.

    Unleased shards first (lowest index — the deterministic cold-start
    hand-out); otherwise the *straggler policy*: among shards whose
    lease has expired, steal the one with the most unsettled jobs, ties
    to the lowest index.
    """
    unleased = [
        index
        for index, state in states.items()
        if not state.finished and state.holder is None
    ]
    if unleased:
        return min(unleased)
    expired = [index for index, state in states.items() if state.claimable(now)]
    if not expired:
        return None
    remaining = {
        index: len(plan.shards[index]) - len(states[index].settled())
        for index in expired
    }
    return min(expired, key=lambda index: (-remaining[index], index))


def _commit(plan: ShardPlan, root: Path) -> None:
    """fsync every shard journal: the group commit of the appends forked
    workers make without waiting on the disk."""
    for index in range(len(plan.shards)):
        try:
            fd = os.open(shard_journal_path(root, index), os.O_RDONLY)
        except OSError:
            continue
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without fsync support
            pass
        finally:
            os.close(fd)


def _replay_plan(plan: ShardPlan, root: Path) -> "dict[int, JournalReplay]":
    return {
        index: replay_shard_journal(shard_journal_path(root, index))
        for index in range(len(plan.shards))
    }


def run_shard_worker(
    plan: ShardPlan,
    root: "Path | str",
    worker: str,
    ledger: "_FailureLedger | None" = None,
) -> int:
    """Worker loop: lease, run and steal the shards of ``plan`` whose
    journals live under ``root``, until none remain.

    ``ledger`` is the failure budget as the coordinator knew it when the
    worker forked; the worker stops at the first job boundary where its
    own failures breach it (the coordinator enforces the campaign-wide
    count).  Returns a process exit code: 0 when every shard is
    finished, 3 when it stopped early (budget, a shard journaled an
    abort, or the coordinator went away), 130/143 on SIGINT/SIGTERM
    (after journaling ``interrupted`` on the shard it still held).
    """
    ledger = ledger if ledger is not None else _FailureLedger(None)
    cache = ResultCache(plan.cache_dir, plan.calibration)
    root = Path(root)
    parent = os.getppid()

    def orphaned() -> bool:
        return os.getppid() != parent

    current: "ShardJournal | None" = None
    guard = _SignalGuard()
    try:
        with guard:
            while not orphaned() and not ledger.breached:
                now = time.time()
                states = _replay_plan(plan, root)
                if all(state.finished for state in states.values()):
                    return 0
                if any(state.interrupted for state in states.values()):
                    break
                target = _pick_claimable(plan, states, now)
                if target is None:
                    time.sleep(plan.poll_s)
                    continue
                claim = claim_shard(
                    shard_journal_path(root, target), worker, plan.lease_s, now,
                    sync=False,
                )
                if claim is None:
                    continue
                current, state, _ = claim
                try:
                    _run_one_shard(
                        plan, target, worker, current, state, cache, ledger, orphaned
                    )
                finally:
                    _release_if_held(current, worker)
                    current.close()
                    current = None
    except (KeyboardInterrupt, SystemExit) as exc:
        if current is not None:
            last = replay_shard_journal(current.path)
            if last.holder == worker:
                if not last.finished:
                    current.interrupted(
                        guard.reason or type(exc).__name__, len(last.settled())
                    )
                current.release(worker, last.nonce)
            current.close()
        code = getattr(exc, "code", None)
        return code if isinstance(code, int) else 130
    return 3


def _worker_main(
    plan: ShardPlan, root: Path, index: int, ledger: _FailureLedger
) -> None:
    sys.exit(run_shard_worker(plan, root, f"w{index}-{os.getpid()}", ledger))


def _start_worker(
    plan: ShardPlan, root: Path, index: int, ledger: _FailureLedger
) -> "BaseProcess | None":
    """Fork one worker (it inherits every registered job runner, the
    plan and a copy of the failure ledger); ``None`` when the host
    refuses to create the process."""
    import multiprocessing  # only campaigns that fork pay for the import

    process = multiprocessing.get_context("fork").Process(
        target=_worker_main, args=(plan, root, index, ledger)
    )
    try:
        process.start()
    except OSError:
        return None
    return process


def _stop_workers(workers: "dict[str, BaseProcess]") -> None:
    """SIGTERM every worker still alive, then SIGKILL stragglers after a
    grace period.  Called once the run is over: a worker still alive is
    idle, stuck in a job on a shard someone else finished, or aborted."""
    for process in workers.values():
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + 5.0
    for process in workers.values():
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join(5.0)


def _coordinator_drain(
    plan: ShardPlan, root: Path, cache: ResultCache, ledger: _FailureLedger
) -> None:
    """Run every currently-claimable shard in the coordinator process,
    stopping early once the failure budget is breached."""
    for index in range(len(plan.shards)):
        if ledger.breached:
            return
        claim = claim_shard(shard_journal_path(root, index), COORDINATOR, plan.lease_s)
        if claim is None:
            continue
        journal, state, _ = claim
        try:
            _run_one_shard(plan, index, COORDINATOR, journal, state, cache, ledger)
        finally:
            _release_if_held(journal, COORDINATOR)
            journal.close()


def _reclaim_dead(
    root: Path, states: "dict[int, JournalReplay]", workers: "dict[str, BaseProcess]"
) -> bool:
    """Release the leases of workers that died holding them (a steal:
    the next claimant need not wait out the lease).  Returns whether any
    lease was released."""
    released = False
    for index, state in states.items():
        process = workers.get(state.holder or "")
        if state.finished or process is None or process.is_alive():
            continue
        with ShardJournal(shard_journal_path(root, index), campaign="") as journal:
            journal.release(state.holder or "", state.nonce, reclaimed=True)
        released = True
    return released


def _drive(
    plan: ShardPlan,
    root: Path,
    cache: ResultCache,
    n_workers: int,
    ledger: _FailureLedger,
    on_progress=None,
) -> "tuple[dict[int, JournalReplay], str | None]":
    """Run a written plan to the end: fork ``n_workers`` workers (0 runs
    everything in-process), watch the journals, enforce the failure
    budget, and claim shards no live worker will.  Returns the final
    shard states and the abort reason (``None`` when every shard
    finished).  The fleet is stopped on every exit path."""
    board = ShardBoard.from_plan(plan.campaign, [len(s) for s in plan.shards])
    workers: "dict[str, BaseProcess]" = {}
    started = False
    aborted: "str | None" = None
    try:
        while True:
            now = time.time()
            if workers:
                _commit(plan, root)
            states = _replay_plan(plan, root)
            board.observe(states, now)
            if on_progress is not None:
                on_progress(board)
            if all(state.finished for state in states.values()):
                break
            if any(state.interrupted for state in states.values()):
                aborted = "aborted: a shard journaled an interruption"
                break
            ledger.observe(states.values())
            if ledger.breached:
                aborted = ledger.abort_message()
                break
            if not started:
                started = True
                for i in range(n_workers):
                    process = _start_worker(plan, root, i, ledger)
                    if process is not None:
                        workers[f"w{i}-{process.pid}"] = process
                continue
            if _reclaim_dead(root, states, workers):
                continue
            # A live worker will claim a claimable shard unless it is
            # stuck in a job on a shard whose lease it let expire.
            stuck = {
                state.holder
                for state in states.values()
                if not state.finished and not state.leased(now)
            }
            claimants = [
                name for name, process in workers.items()
                if name not in stuck and process.is_alive()
            ]
            if not claimants and any(s.claimable(now) for s in states.values()):
                _coordinator_drain(plan, root, cache, ledger)
                continue
            # Wake early when a worker exits: the last one out usually
            # just finished the last shard.
            sentinels = [w.sentinel for w in workers.values() if w.is_alive()]
            if sentinels:
                from multiprocessing.connection import wait

                wait(sentinels, plan.poll_s)
            else:
                time.sleep(plan.poll_s)
    finally:
        _stop_workers(workers)
        if workers:
            _commit(plan, root)
    return states, aborted


def _run_shards(
    specs: "list[JobSpec]",
    config: CampaignConfig,
    shard_config: ShardConfig,
    cache: ResultCache,
    root: Path,
    campaign: str,
    ledger: _FailureLedger,
    settle,
    guard: _SignalGuard,
    forked: bool = True,
    on_progress=None,
) -> "tuple[int, str | None]":
    """Partition ``specs``, run them to the end and report every outcome.

    ``settle(i, outcome)`` receives the outcome of ``specs[i]``; on a
    signal only settled jobs are reported, after the fleet is stopped
    and every unfinished shard journaled ``interrupted``.  With
    ``forked=False`` the coordinator runs every shard itself.  Returns
    (steals, abort reason).
    """
    shards = partition_shards(specs, shard_config.shards)
    plan = ShardPlan(
        campaign=campaign,
        campaign_seed=config.campaign_seed,
        calibration=cache.calibration,
        cache_dir=str(cache.directory),
        specs=tuple(specs),
        shards=tuple(tuple(shard) for shard in shards),
        lease_s=shard_config.lease_s,
        poll_s=shard_config.poll_s,
        max_retries=config.max_retries,
        backoff_s=config.backoff_s,
    )
    for index, members in enumerate(plan.shards):
        with ShardJournal(shard_journal_path(root, index), campaign) as journal:
            journal.begin(len(members), config.campaign_seed, plan.calibration)
    try:
        states, aborted = _drive(
            plan, root, cache, shard_config.workers if forked else 0, ledger,
            on_progress,
        )
    except (KeyboardInterrupt, SystemExit) as exc:
        _journal_abort(plan, root, guard.reason or type(exc).__name__)
        _merge(plan, _replay_plan(plan, root), cache, None, settle)
        raise
    if aborted is not None:
        _journal_abort(plan, root, aborted)
    _merge(plan, states, cache, aborted or "", settle)
    return sum(state.steals for state in states.values()), aborted


def _merge(
    plan: ShardPlan,
    states: "dict[int, JournalReplay]",
    cache: ResultCache,
    unsettled: "str | None",
    settle,
) -> None:
    """Fold shard journals into outcomes, reading every ``done`` payload
    back through the checksum-verified cache (the merge trusts bytes,
    not processes).  Jobs without a terminal record settle as failed
    with ``unsettled`` as the reason, or are skipped when it is None."""
    by_job: "dict[str, JournalReplay]" = {}
    for state in states.values():
        for fingerprint in state.settled():
            by_job[fingerprint] = state
    for i, spec in enumerate(plan.specs):
        fingerprint = spec.fingerprint()
        state = by_job.get(fingerprint)
        if state is None:
            if unsettled is not None:
                error = f"never settled ({unsettled or 'campaign aborted'})"
                settle(i, JobOutcome(spec=spec, status="failed", metrics=None, error=error))
            continue
        attempts, duration = state.effort.get(fingerprint, (0, 0.0))
        metrics = None
        if fingerprint in state.done:
            metrics = cache.get_verified(spec, state.done[fingerprint])
            error = "journaled done but the cache entry no longer verifies"
        else:
            error = state.failed[fingerprint]
        settle(
            i,
            JobOutcome(
                spec=spec,
                status="completed" if metrics is not None else "failed",
                metrics=metrics,
                error=None if metrics is not None else error,
                attempts=attempts,
                duration_s=duration,
            ),
        )


def _journal_abort(plan: ShardPlan, root: Path, reason: str) -> None:
    """Stamp an ``interrupted`` record into every unfinished shard journal
    so a later resume (or post-mortem) sees the abort, not silence."""
    for index in range(len(plan.shards)):
        path = shard_journal_path(root, index)
        state = replay_shard_journal(path)
        if state.finished or state.interrupted:
            continue
        with ShardJournal(path, campaign=plan.campaign) as journal:
            journal.interrupted(reason, len(state.settled()))


def run_sharded_campaign(
    specs: "list[JobSpec] | tuple[JobSpec, ...]",
    config: "CampaignConfig | None" = None,
    shard_config: "ShardConfig | None" = None,
    on_progress=None,
) -> CampaignResult:
    """Run a whole campaign over an explicit number of shards and workers.

    Unlike :func:`~repro.runtime.executor.run_campaign` there is no
    resume/cache triage up front: every job goes into the plan, and a
    rerun over existing shard journals settles already-done jobs from the
    verified cache inside the shards.  ``on_progress`` receives a
    :class:`~repro.runtime.progress.ShardBoard` every poll.  Requires
    ``config.cache_dir``: results flow between processes through the
    checksum-verified cache.

    Raises:
        ValueError: when ``config.cache_dir`` is unset.
    """
    config = config if config is not None else CampaignConfig()
    if config.cache_dir is None or not config.use_cache:
        raise ValueError(
            "sharded campaigns need cache_dir: workers exchange results "
            "through the checksum-verified cache"
        )
    return _execute(
        list(specs), config, False,
        shard_config if shard_config is not None else ShardConfig(),
        on_progress,
    )


# --------------------------------------------------------------------------
# Deterministic merge manifest.


def results_manifest(result: CampaignResult) -> "dict[str, object]":
    """Canonical, wall-clock-free record of a campaign's *results*.

    Unlike the run manifest (which reports timing, worker counts, cache
    hits — telemetry that legitimately differs run to run), this is a
    pure function of the outcomes: a sharded run, a serial run, a
    resumed run and a warm-cache run of the same campaign all produce
    **byte-identical** JSON.
    """
    jobs = []
    for outcome in result.outcomes:
        entry: "dict[str, object]" = {
            "job": outcome.spec.fingerprint(),
            "kind": outcome.spec.kind,
        }
        if outcome.ok:
            entry["status"] = "done"
            entry["checksum"] = metrics_checksum(outcome.metrics or {})
            entry["metrics"] = outcome.metrics
        else:
            entry["status"] = "failed"
            entry["error"] = outcome.error or ""
        jobs.append(entry)
    return {
        "format": SHARD_FORMAT,
        "campaign": result.manifest.campaign,
        "campaign_seed": result.manifest.campaign_seed,
        "calibration": result.manifest.calibration,
        "total": len(result.outcomes),
        "jobs": jobs,
    }


def write_results_manifest(path: "Path | str", result: CampaignResult) -> Path:
    """Write :func:`results_manifest` as canonical JSON (byte-stable)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(
        results_manifest(result), sort_keys=True, separators=(",", ":")
    )
    target.write_text(payload + "\n", encoding="utf-8")
    return target
