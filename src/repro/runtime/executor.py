"""Campaign execution: triage, then one engine.

``run_campaign`` takes a list of :class:`JobSpec` and returns one outcome
per spec, in submission order:

* **resume first** — with ``resume=True``, jobs the campaign's journals
  mark ``done`` are served from the result cache after their payload
  checksum is verified against the journaled one;
* **cache second** — jobs whose fingerprint is already in the result
  cache (same calibration) are served without running anything;
* **one engine for the rest** — the pending jobs go to the shard
  coordinator (:mod:`repro.runtime.shard`) over K = 2·n_jobs shards
  (one shard at ``n_jobs=1``, which keeps submission order).  It writes
  the write-ahead shard journals, forks ``n_jobs`` workers when
  ``n_jobs > 1``, and otherwise runs the shards in-process.  A campaign
  without a cache directory still gets journals when ``n_jobs > 1``:
  they live in a private temporary directory, removed on return;
* **in memory** — an uncached ``n_jobs=1`` campaign runs in-process
  with no journal at all;
* **bounded retry** — every execution, in a worker or in-process, goes
  through :func:`_run_attempts`: exponential backoff, up to
  ``max_retries`` extra attempts;
* **failure budget** — ``max_failures`` counts *distinct* failed jobs,
  seeded from the journals on resume, and aborts the rest of the run;
* **signal safety** — SIGINT/SIGTERM are journaled as an interruption
  and the partial manifest is flushed before the exception propagates.

Because every job's RNG derives from (campaign seed, spec fingerprint)
(:mod:`repro.runtime.seeding`), outcomes are bit-identical whatever the
worker count, shard count, execution order — or how many times the
campaign was killed and resumed along the way.  See DESIGN.md §10 for
the runtime contract.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
import tempfile
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

from .cache import ResultCache, calibration_fingerprint
from .jobs import JobSpec, job_runner
from .journal import JournalReplay, campaign_fingerprint
from .progress import CampaignProgress, RunManifest
from .seeding import job_rng

#: Journal subdirectory created under the cache directory by default.
JOURNAL_SUBDIR = "journal"


@dataclass(frozen=True)
class CampaignConfig:
    """Execution knobs for one campaign.

    Attributes:
        n_jobs: worker processes; 1 means in-process execution.
        max_retries: extra attempts after a job's first failure.
        backoff_s: base of the exponential retry backoff.
        campaign_seed: root seed for per-job RNG derivation.
        cache_dir: result-cache directory, or ``None`` for no caching.
        use_cache: when ``False`` the cache is neither read nor written
            even if ``cache_dir`` is set.
        journal_dir: where write-ahead journals live; defaults to
            ``<cache_dir>/journal`` when caching is active, else no
            journaling.
        resume: replay the campaign's journals and skip jobs whose
            results are journaled ``done`` and still verify against the
            cache.
        max_failures: abort the campaign once this many distinct jobs
            have failed (remaining jobs settle as failed without
            running); ``None`` disables the bound.
    """

    n_jobs: int = 1
    max_retries: int = 2
    backoff_s: float = 0.05
    campaign_seed: int = 0
    cache_dir: Path | str | None = None
    use_cache: bool = True
    journal_dir: Path | str | None = None
    resume: bool = False
    max_failures: int | None = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_s < 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff_s!r}")
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError(
                f"max_failures must be >= 1, got {self.max_failures!r}"
            )

    def serial(self) -> "CampaignConfig":
        """A copy of this config forced to in-process execution."""
        return replace(self, n_jobs=1)

    def resolved_journal_dir(self) -> "Path | None":
        """Where this campaign journals, or ``None`` for no journaling."""
        if self.journal_dir is not None:
            return Path(self.journal_dir)
        if self.cache_dir is not None and self.use_cache:
            return Path(self.cache_dir) / JOURNAL_SUBDIR
        return None


@dataclass(frozen=True)
class JobOutcome:
    """How one job settled.

    Attributes:
        spec: the job.
        status: ``"completed"``, ``"failed"``, ``"cached"`` or
            ``"resumed"`` (journal replay verified against the cache).
        metrics: runner output (``None`` when failed).
        error: last error string when failed.
        attempts: executions performed (0 for cache/resume hits).
        duration_s: execution time of the last attempt (0 for cache hits).
    """

    spec: JobSpec
    status: str
    metrics: dict | None
    error: str | None = None
    attempts: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether usable metrics are available."""
        return self.metrics is not None


@dataclass(frozen=True)
class CampaignResult:
    """All outcomes of one campaign, in submission order."""

    outcomes: tuple[JobOutcome, ...]
    manifest: RunManifest

    @property
    def metrics(self) -> list[dict | None]:
        """Per-job metrics in submission order (``None`` for failures)."""
        return [o.metrics for o in self.outcomes]

    @property
    def failures(self) -> list[JobOutcome]:
        """The failed outcomes."""
        return [o for o in self.outcomes if o.status == "failed"]

    def raise_on_failure(self) -> "CampaignResult":
        """Raise if any job failed; returns self for chaining.

        Raises:
            CampaignError: listing up to three failing jobs.
        """
        failures = self.failures
        if failures:
            detail = "; ".join(
                f"{o.spec.kind}[{o.spec.fingerprint()[:8]}]: {o.error}"
                for o in failures[:3]
            )
            raise CampaignError(
                f"{len(failures)}/{len(self.outcomes)} campaign jobs failed: {detail}"
            )
        return self


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_on_failure`."""


# --------------------------------------------------------------------------
# Manifest registry.
#
# The CLI uses this to surface telemetry from campaigns that run behind
# library calls (e.g. ``export fig15 --jobs 4``) without threading a
# collector through every analysis signature.  Campaigns *claim a slot* at
# start and fill it at completion, so concurrent campaigns (threaded
# callers) drain in deterministic start order, protected by a lock.

_MANIFEST_LOCK = threading.Lock()
_MANIFEST_SLOTS: "dict[int, RunManifest | None]" = {}
_MANIFEST_COUNTER = itertools.count()
_MANIFEST_LIMIT = 64


def _claim_manifest_slot() -> int:
    """Reserve the next start-ordered slot for a campaign about to run."""
    with _MANIFEST_LOCK:
        slot = next(_MANIFEST_COUNTER)
        _MANIFEST_SLOTS[slot] = None
        return slot


def _record_manifest(slot: int, manifest: RunManifest) -> None:
    """Fill a claimed slot, evicting the oldest finished beyond the cap."""
    with _MANIFEST_LOCK:
        if slot in _MANIFEST_SLOTS:
            _MANIFEST_SLOTS[slot] = manifest
        finished = [k for k, m in _MANIFEST_SLOTS.items() if m is not None]
        if len(finished) > _MANIFEST_LIMIT:
            for key in sorted(finished)[: len(finished) - _MANIFEST_LIMIT]:
                del _MANIFEST_SLOTS[key]


def drain_manifests() -> list[RunManifest]:
    """Return and clear the finished campaign manifests, in start order.

    Thread-safe; slots claimed by still-running campaigns are left in
    place so their manifests land in a later drain.
    """
    with _MANIFEST_LOCK:
        finished = [
            key for key in sorted(_MANIFEST_SLOTS) if _MANIFEST_SLOTS[key] is not None
        ]
        return [_MANIFEST_SLOTS.pop(key) for key in finished]  # type: ignore[misc]


# --------------------------------------------------------------------------
# Failure budget.


class _FailureLedger:
    """Campaign failure budget over *distinct* failed jobs.

    Keyed by job fingerprint so a retried-then-failed job counts once,
    and seeded from the journal on resume so failures from an earlier
    interrupted run keep counting toward ``max_failures`` (a resumed
    campaign must not get a fresh budget).  A job that later succeeds is
    struck from the ledger.
    """

    def __init__(
        self, max_failures: "int | None", prior: "Iterable[str]" = ()
    ) -> None:
        self.max_failures = max_failures
        self.failed: "set[str]" = set(prior)

    def success(self, fingerprint: str) -> None:
        self.failed.discard(fingerprint)

    def failure(self, fingerprint: str) -> None:
        self.failed.add(fingerprint)

    def observe(self, states: "Iterable[JournalReplay]") -> None:
        """Fold the settlements shard journals report (idempotent)."""
        for state in states:
            self.failed.update(state.failed)
            self.failed.difference_update(state.done)

    @property
    def breached(self) -> bool:
        return self.max_failures is not None and len(self.failed) >= self.max_failures

    def abort_message(self) -> str:
        return (
            "aborted: campaign failure budget "
            f"(max_failures={self.max_failures}) exhausted"
        )


# --------------------------------------------------------------------------
# Signal handling.


class _SignalGuard:
    """Convert SIGINT/SIGTERM into catchable exceptions for the run scope.

    Installed only in the main thread (Python forbids handlers
    elsewhere); previous handlers are restored on exit.  SIGTERM becomes
    ``SystemExit(128 + signum)`` so ``finally`` blocks — journal flush,
    worker teardown, partial-manifest recording — still run before the
    process dies.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.reason: "str | None" = None
        self._previous: "dict[int, object]" = {}

    def _handler(self, signum: int, frame: object) -> None:
        self.reason = signal.Signals(signum).name
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in self._SIGNALS:
                try:
                    self._previous[signum] = signal.signal(signum, self._handler)
                except (ValueError, OSError):  # pragma: no cover - exotic host
                    pass
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)  # type: ignore[arg-type]
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
        self._previous.clear()


# --------------------------------------------------------------------------
# Execution.


def execute_job(spec: JobSpec, campaign_seed: int = 0) -> dict:
    """Run one job in-process and return its metrics.

    This is the unit workers execute; it resolves the runner from the
    registry and hands it a content-derived RNG, so the result depends
    only on (spec, campaign_seed).
    """
    runner = job_runner(spec.kind)
    return runner(spec, job_rng(spec, campaign_seed))


def _run_attempts(
    spec: JobSpec, campaign_seed: int, max_retries: int, backoff_s: float
) -> "tuple[dict | None, str, int, float]":
    """Run one job with bounded retry and exponential backoff.

    The one attempt loop of the runtime: shard workers and the
    in-process paths both call it.  Returns ``(metrics, error, attempts,
    duration_s)`` — metrics ``None`` when every attempt raised, error the
    last one's message, duration that of the last attempt.
    """
    attempts = 0
    error = "not attempted"
    duration = 0.0
    while attempts <= max_retries:
        if attempts > 0 and backoff_s > 0.0:
            time.sleep(backoff_s * (2.0 ** (attempts - 1)))
        attempts += 1
        started = time.perf_counter()
        try:
            result = execute_job(spec, campaign_seed)
        except Exception as exc:  # noqa: BLE001 - retried then reported
            error = f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - started
        else:
            duration = time.perf_counter() - started
            metrics = result if isinstance(result, dict) else {"value": result}
            return metrics, "", attempts, duration
    return None, error, attempts, duration


def run_campaign(
    specs: "list[JobSpec] | tuple[JobSpec, ...]",
    config: CampaignConfig | None = None,
    resume: "bool | None" = None,
) -> CampaignResult:
    """Execute a campaign and return per-job outcomes plus a manifest.

    Args:
        specs: the jobs, in submission order.
        config: execution knobs (defaults to :class:`CampaignConfig`).
        resume: overrides ``config.resume`` when given — replay the
            campaign's journals, serve journaled-``done`` jobs from the
            cache after checksum verification, and run only the
            remainder.  Resumed results are bit-identical to an
            uninterrupted run (content-derived seeding).
    """
    config = config if config is not None else CampaignConfig()
    return _execute(
        list(specs), config, config.resume if resume is None else bool(resume)
    )


def _execute(
    specs: "list[JobSpec]",
    config: CampaignConfig,
    resume: bool,
    shard_config=None,
    on_progress=None,
) -> CampaignResult:
    """Triage, then run the pending jobs (see the module docstring).

    With an explicit ``shard_config`` (:func:`~repro.runtime.shard.\
run_sharded_campaign`) there is no triage: every job goes to the
    coordinator, which forks ``shard_config.workers`` workers.
    """
    from .shard import ShardConfig, _run_shards, replay_shards, shard_root

    slot = _claim_manifest_slot()
    progress = CampaignProgress(total=len(specs))
    cache = (
        ResultCache(config.cache_dir)
        if (config.cache_dir is not None and config.use_cache)
        else None
    )
    calibration = cache.calibration if cache is not None else ""
    journal_dir = config.resolved_journal_dir()
    explicit = shard_config is not None
    forked = explicit or config.n_jobs > 1
    coordinated = forked or journal_dir is not None
    campaign_fp = ""
    if coordinated:
        campaign_fp = campaign_fingerprint(
            specs, config.campaign_seed, calibration or calibration_fingerprint()
        )

    prior: "JournalReplay | None" = None
    if resume and journal_dir is not None and cache is not None:
        prior = replay_shards(shard_root(journal_dir, campaign_fp))
    # Failures journaled by an earlier interrupted run keep counting
    # toward the budget; a fingerprint is struck once the job succeeds.
    ledger = _FailureLedger(
        config.max_failures, prior.failed if prior is not None else ()
    )

    outcomes: "dict[int, JobOutcome]" = {}
    pending: "list[tuple[int, JobSpec]]" = []
    for index, spec in enumerate(specs):
        if not explicit:
            hit = None
            status = "cached"
            checksum = prior.done.get(spec.fingerprint()) if prior else None
            if checksum is not None:
                hit = cache.get_verified(spec, checksum)  # type: ignore[union-attr]
                status = "resumed"
            if hit is None and cache is not None:
                hit = cache.get(spec)
                status = "cached"
            if hit is not None:
                outcomes[index] = JobOutcome(spec=spec, status=status, metrics=hit)
                progress.record(spec.kind, status)
                ledger.success(spec.fingerprint())
                continue
        pending.append((index, spec))

    def settle(i: int, outcome: JobOutcome) -> None:
        outcomes[pending[i][0]] = outcome
        progress.record(
            outcome.spec.kind, outcome.status, retries=max(outcome.attempts - 1, 0)
        )

    if shard_config is None:
        shard_config = ShardConfig(
            shards=2 * config.n_jobs if forked else 1, workers=config.n_jobs
        )
    steals, aborted = 0, None
    guard = _SignalGuard()

    def manifest(interrupted: bool) -> RunManifest:
        return _finalize_manifest(
            progress, shard_config.workers, config.campaign_seed, calibration,
            campaign_fp if journal_dir is not None else "",
            str(shard_root(journal_dir, campaign_fp)) if journal_dir else None,
            outcomes, len(specs), interrupted,
            # Only an explicitly sharded run reports its layout: a
            # ``run_campaign`` manifest is the same at every n_jobs.
            shards=min(shard_config.shards, len(pending)) if explicit else 0,
            steals=steals,
        )

    try:
        with guard:
            if pending and coordinated:
                # Without a cache, workers exchange results (and journal)
                # through a private directory that goes when we return.
                with (
                    tempfile.TemporaryDirectory(prefix="repro-campaign-")
                    if cache is None
                    else contextlib.nullcontext()
                ) as private:
                    steals, aborted = _run_shards(
                        [spec for _, spec in pending], config, shard_config,
                        cache if cache is not None else ResultCache(private),
                        shard_root(journal_dir or private, campaign_fp),
                        campaign_fp, ledger, settle, guard,
                        forked=forked, on_progress=on_progress,
                    )
            elif pending:
                _run_serial(pending, config, ledger, settle)
    except (KeyboardInterrupt, SystemExit):
        _record_manifest(slot, manifest(interrupted=True))
        raise
    result = manifest(interrupted=aborted is not None)
    _record_manifest(slot, result)
    return CampaignResult(
        outcomes=tuple(outcomes[i] for i in range(len(specs))), manifest=result
    )


def _run_serial(
    pending: "list[tuple[int, JobSpec]]",
    config: CampaignConfig,
    ledger: _FailureLedger,
    settle,
) -> None:
    """Run jobs in memory, in submission order; once the failure budget
    is breached every remaining job settles as failed without running."""
    for i, (_, spec) in enumerate(pending):
        if ledger.breached:
            settle(
                i,
                JobOutcome(
                    spec=spec, status="failed", metrics=None,
                    error=ledger.abort_message(),
                ),
            )
            continue
        metrics, error, attempts, duration = _run_attempts(
            spec, config.campaign_seed, config.max_retries, config.backoff_s
        )
        if metrics is not None:
            ledger.success(spec.fingerprint())
        else:
            ledger.failure(spec.fingerprint())
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


def _finalize_manifest(
    progress: CampaignProgress,
    n_jobs: int,
    campaign_seed: int,
    calibration: str,
    campaign_fp: str,
    journal: "str | None",
    outcomes: "dict[int, JobOutcome]",
    total: int,
    interrupted: bool,
    shards: int = 0,
    steals: int = 0,
) -> RunManifest:
    """Freeze progress into a manifest, merging any energy breakdowns."""
    manifest = progress.manifest(
        n_jobs=n_jobs,
        calibration=calibration,
        campaign_seed=campaign_seed,
        campaign=campaign_fp,
        journal=journal,
        interrupted=interrupted,
        shards=shards,
        workers=n_jobs if shards else 0,
        steals=steals,
    )
    # Jobs that report a ledger breakdown get their category totals
    # merged into the manifest, so campaign records carry the attributed
    # energy picture alongside the throughput counters.
    energy: dict[str, float] | None = None
    for index in range(total):
        outcome = outcomes.get(index)
        if outcome is None or not isinstance(outcome.metrics, dict):
            continue
        breakdown = outcome.metrics.get("energy_breakdown_j")
        if not isinstance(breakdown, dict):
            continue
        if energy is None:
            energy = {}
        for label, value in breakdown.items():
            energy[label] = energy.get(label, 0.0) + float(value)
    if energy is not None:
        manifest = replace(manifest, energy=energy)
    return manifest
