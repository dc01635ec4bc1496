"""Write-ahead journal for campaign durability.

Append-only JSONL files record every job lifecycle transition
(``dispatched`` → ``done`` / ``failed``), framed by ``begin`` and ``end``
records, plus the shard lease records (``lease`` / ``release``) of
:mod:`repro.runtime.shard`.  Appends are single ``os.write`` calls on an
``O_APPEND`` descriptor followed by ``fsync`` (for forked shard workers,
a group ``fsync`` by their coordinator), so a crash — SIGKILL, OOM, power
loss — leaves a readable prefix: complete lines survive, at most the
final line is truncated, and :func:`replay_journal` tolerates exactly
that.

Journals are keyed by a **campaign fingerprint** — a content hash of the
sorted job fingerprints, the campaign seed and the calibration — so a
resumed run only trusts records written for the identical campaign.
``done`` records carry the SHA-256 checksum of the result payload (and
the attempts and duration of the execution that produced it); on resume
a job is only skipped when the cache still holds an entry whose payload
hashes to the journaled checksum (see DESIGN.md §10).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .jobs import JobSpec

#: Schema version of the journal record format.
JOURNAL_FORMAT = 1


def metrics_checksum(metrics: dict) -> str:
    """Hex SHA-256 of a metrics payload's canonical JSON form.

    The same canonicalization (sorted keys, compact separators) is used
    when writing cache entries and when verifying them on resume, so the
    checksum survives a JSON round-trip bit-exactly.
    """
    payload = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def campaign_fingerprint(
    specs: Iterable[JobSpec], campaign_seed: int, calibration: str
) -> str:
    """Stable identity of one campaign: its job set, seed and calibration.

    Order-independent over the spec list (sorted by job fingerprint), so
    the same campaign resolves to the same journal file however the
    caller happened to enumerate it.
    """
    digests = sorted(spec.fingerprint() for spec in specs)
    body = json.dumps(
        {"jobs": digests, "seed": campaign_seed, "calibration": calibration},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


@dataclass
class JournalReplay:
    """What a journal says happened so far: job settlements plus lease
    ownership.

    Attributes:
        campaign: campaign fingerprint of the ``begin`` records ("" when
            the journal is empty or unreadable).
        done: job fingerprint -> journaled result checksum.
        failed: job fingerprint -> last journaled error string.
        dispatched: job fingerprints with a dispatch record (in-flight at
            crash time unless also in ``done``/``failed``).
        effort: job fingerprint -> ``(attempts, duration_s)`` of the
            record that settled it (``(0, 0.0)`` when the record predates
            these fields or the job was settled from the cache).
        runs: number of ``begin`` records (resume attempts + 1).
        finished_runs: number of ``end`` records (runs that completed).
        interrupted: whether any run journaled a signal interruption.
        holder: worker holding the shard lease (``None`` when unleased).
        deadline: wall-clock expiry of the current lease.
        nonce: nonce of the current lease record.
        steals: times the shard changed hands without its holder giving
            it up (an expired lease granted to another worker, or a lease
            released on behalf of a worker that died).
        malformed_lines: unparseable lines skipped (a crash-truncated
            tail counts as one).
    """

    campaign: str = ""
    done: "dict[str, str]" = field(default_factory=dict)
    failed: "dict[str, str]" = field(default_factory=dict)
    dispatched: "set[str]" = field(default_factory=set)
    effort: "dict[str, tuple[int, float]]" = field(default_factory=dict)
    runs: int = 0
    finished_runs: int = 0
    interrupted: bool = False
    holder: "str | None" = None
    deadline: float = 0.0
    nonce: str = ""
    steals: int = 0
    malformed_lines: int = 0

    def in_flight(self) -> "set[str]":
        """Jobs dispatched but never settled — lost to the crash."""
        return self.dispatched - set(self.done) - set(self.failed)

    def settled(self) -> "set[str]":
        """Jobs with a terminal record (``done`` wins over ``failed``)."""
        return set(self.done) | set(self.failed)

    @property
    def finished(self) -> bool:
        """Whether a run journaled its ``end`` record."""
        return self.finished_runs > 0

    def leased(self, now: float) -> bool:
        """Whether an unexpired lease is outstanding."""
        return self.holder is not None and now < self.deadline

    def claimable(self, now: float) -> bool:
        """Whether a worker may claim this shard right now."""
        return not self.finished and not self.leased(now)


def _effort(record: "dict[str, object]") -> "tuple[int, float]":
    attempts = record.get("attempts", 0)
    duration = record.get("duration_s", 0.0)
    return (
        attempts if isinstance(attempts, int) else 0,
        float(duration) if isinstance(duration, (int, float)) else 0.0,
    )


def replay_journal(path: "Path | str", current_run: bool = False) -> JournalReplay:
    """Parse a journal into a :class:`JournalReplay`.

    Never raises: a missing file replays as empty, malformed lines (the
    crash-truncated tail, bit-rot) are counted and skipped, and a ``done``
    record supersedes an earlier ``failed`` one for the same job.

    By default the replay spans every run in the file (what a resume
    trusts).  With ``current_run`` a ``begin`` record starts the replay
    afresh, so only the latest run's records count: a coordinator writes
    ``begin`` into every shard journal it is about to drive, and nothing
    an earlier run left there (leases, ``end``, ``interrupted``) carries
    over.

    The lease state machine is a pure function of the journal bytes:
    every reader sees the same ``O_APPEND`` total order, so contending
    claimants independently agree on who holds the shard.  A claim is
    granted iff the previous granted lease was released, belongs to the
    same worker (renewal), or had already expired at the claim's own
    timestamp.
    """
    replay = JournalReplay()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return replay
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            replay.malformed_lines += 1
            continue
        if not isinstance(record, dict):
            replay.malformed_lines += 1
            continue
        event = record.get("event")
        job = record.get("job")
        if event == "begin":
            if current_run:
                replay = JournalReplay(
                    runs=replay.runs, malformed_lines=replay.malformed_lines
                )
            replay.runs += 1
            campaign = record.get("campaign")
            if isinstance(campaign, str) and campaign:
                replay.campaign = campaign
        elif event == "end":
            replay.finished_runs += 1
        elif event == "interrupted":
            replay.interrupted = True
        elif event == "dispatched" and isinstance(job, str):
            replay.dispatched.add(job)
        elif event == "done" and isinstance(job, str):
            checksum = record.get("checksum")
            replay.done[job] = checksum if isinstance(checksum, str) else ""
            replay.effort[job] = _effort(record)
            replay.failed.pop(job, None)
        elif event == "failed" and isinstance(job, str):
            if job not in replay.done:
                replay.failed[job] = str(record.get("error", ""))
                replay.effort[job] = _effort(record)
        elif event == "lease":
            worker = record.get("worker")
            try:
                claim_time = float(record.get("time", 0.0))
                deadline = float(record.get("deadline", 0.0))
            except (TypeError, ValueError):
                worker = None
            if not isinstance(worker, str) or not worker:
                replay.malformed_lines += 1
                continue
            if (
                replay.holder is None
                or replay.holder == worker
                or replay.deadline <= claim_time
            ):
                if replay.holder is not None and replay.holder != worker:
                    replay.steals += 1
                replay.holder = worker
                replay.deadline = deadline
                replay.nonce = str(record.get("nonce", ""))
        elif event == "release":
            if record.get("worker") == replay.holder:
                if record.get("reclaimed"):
                    replay.steals += 1
                replay.holder, replay.deadline, replay.nonce = None, 0.0, ""
        else:
            replay.malformed_lines += 1
    return replay


class CampaignJournal:
    """Append-only journal writer for one campaign.

    Args:
        path: journal file (created on first append; parent directories
            are created as needed).
        campaign: campaign fingerprint stamped into every ``begin``.
        sync: fsync each settle record before returning.  A shard
            worker passes ``False``: its coordinator fsyncs the shard
            journals at every poll instead (group commit), which keeps
            the disk wait off the worker's job loop.
    """

    def __init__(self, path: "Path | str", campaign: str, sync: bool = True) -> None:
        self._path = Path(path)
        self._campaign = campaign
        self._sync = sync
        self._fd: "int | None" = None

    @property
    def path(self) -> Path:
        """Journal file location."""
        return self._path

    @property
    def campaign(self) -> str:
        """Campaign fingerprint this journal is keyed by."""
        return self._campaign

    def _append(self, record: "dict[str, object]", sync: bool = True) -> None:
        """Write one record as a single atomic ``O_APPEND`` line."""
        if self._fd is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        os.write(self._fd, line.encode("utf-8"))
        if sync and self._sync:
            try:
                os.fsync(self._fd)
            except OSError:  # pragma: no cover - fs without fsync support
                pass

    def begin(self, total: int, campaign_seed: int, calibration: str) -> None:
        """Open a run: journal the campaign identity and job count."""
        self._append(
            {
                "event": "begin",
                "format": JOURNAL_FORMAT,
                "campaign": self._campaign,
                "campaign_seed": campaign_seed,
                "calibration": calibration,
                "total": total,
            }
        )

    def dispatched(self, spec: JobSpec) -> None:
        """Write-ahead: ``spec`` is about to execute."""
        self._append(
            {
                "event": "dispatched",
                "job": spec.fingerprint(),
                "kind": spec.kind,
                "seed": spec.seed,
            },
            sync=False,
        )

    def done(
        self,
        spec: JobSpec,
        checksum: str,
        attempts: int = 0,
        duration_s: float = 0.0,
    ) -> None:
        """``spec`` completed with a payload hashing to ``checksum``, after
        ``attempts`` executions, the last taking ``duration_s`` (0 when it
        was settled from the cache without running)."""
        self._append(
            {
                "event": "done",
                "job": spec.fingerprint(),
                "kind": spec.kind,
                "seed": spec.seed,
                "checksum": checksum,
                "attempts": attempts,
                "duration_s": duration_s,
            }
        )

    def failed(
        self,
        spec: JobSpec,
        error: str,
        attempts: int = 0,
        duration_s: float = 0.0,
    ) -> None:
        """``spec`` exhausted its retries."""
        self._append(
            {
                "event": "failed",
                "job": spec.fingerprint(),
                "kind": spec.kind,
                "seed": spec.seed,
                "error": error,
                "attempts": attempts,
                "duration_s": duration_s,
            }
        )

    def interrupted(self, reason: str, settled: int) -> None:
        """A signal ended the run early with ``settled`` jobs accounted."""
        self._append(
            {"event": "interrupted", "reason": reason, "settled": settled}
        )

    def end(self, completed: int, failed: int, skipped: int) -> None:
        """Close a run with its settlement counts."""
        self._append(
            {
                "event": "end",
                "completed": completed,
                "failed": failed,
                "skipped": skipped,
            }
        )

    def close(self) -> None:
        """Release the file descriptor (safe to call twice)."""
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
