"""Campaign telemetry: live counters and the structured run manifest.

The executor feeds a :class:`CampaignProgress` as jobs settle; at the end
it freezes into a :class:`RunManifest` — the machine-readable record the
CLI prints and (for ``export --cache-dir``) writes next to the CSVs, so a
warm-cache rerun is verifiable from the ``cached`` count alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class CampaignProgress:
    """Mutable counters for a running campaign."""

    total: int = 0
    completed: int = 0
    failed: int = 0
    cached: int = 0
    resumed: int = 0
    retries: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def record(self, kind: str, status: str, retries: int = 0) -> None:
        """Account one settled job.

        Raises:
            ValueError: for unknown status labels.
        """
        if status == "completed":
            self.completed += 1
        elif status == "failed":
            self.failed += 1
        elif status == "cached":
            self.cached += 1
        elif status == "resumed":
            self.resumed += 1
        else:
            raise ValueError(f"unknown job status {status!r}")
        self.retries += retries
        self.kinds[kind] = self.kinds.get(kind, 0) + 1

    @property
    def settled(self) -> int:
        """Jobs accounted so far (any status)."""
        return self.completed + self.failed + self.cached + self.resumed

    def elapsed_s(self) -> float:
        """Wall time since the campaign started."""
        return time.perf_counter() - self._started

    def manifest(
        self,
        n_jobs: int,
        calibration: str,
        campaign_seed: int,
        campaign: str = "",
        journal: "str | None" = None,
        interrupted: bool = False,
        shards: int = 0,
        workers: int = 0,
        steals: int = 0,
    ) -> "RunManifest":
        """Freeze the counters into a manifest."""
        wall = self.elapsed_s()
        executed = self.completed + self.failed
        return RunManifest(
            total=self.total,
            completed=self.completed,
            failed=self.failed,
            cached=self.cached,
            resumed=self.resumed,
            retries=self.retries,
            wall_time_s=wall,
            jobs_per_s=(executed / wall) if wall > 0.0 and executed else 0.0,
            n_jobs=n_jobs,
            calibration=calibration,
            campaign_seed=campaign_seed,
            kinds=dict(sorted(self.kinds.items())),
            campaign=campaign,
            journal=journal,
            interrupted=interrupted,
            shards=shards,
            workers=workers,
            steals=steals,
        )


@dataclass(frozen=True)
class RunManifest:
    """Structured summary of one campaign run.

    Attributes:
        total: jobs submitted.
        completed: jobs executed successfully this run.
        failed: jobs that exhausted their retries.
        cached: jobs served from the result cache (no simulation ran).
        resumed: jobs skipped via journal replay, each verified against
            the cache checksum the journal recorded (resume runs only).
        retries: extra attempts beyond each job's first.
        wall_time_s: campaign wall-clock time.
        jobs_per_s: executed jobs (completed + failed) per second.
        n_jobs: configured worker count.
        calibration: calibration fingerprint results were computed under.
        campaign_seed: root seed of the per-job RNG derivation.
        kinds: settled-job count per job kind.
        campaign: campaign content fingerprint (job set + seed +
            calibration); "" when the campaign ran unjournaled.
        journal: the campaign's shard-journal directory, or ``None`` —
            the resume lineage pointer.
        interrupted: whether the run ended early — a signal, or the
            coordinator aborting on the failure budget (the manifest then
            covers only the settled prefix).
        energy: merged ledger category totals (label -> joules) of jobs
            that reported an energy breakdown, or ``None`` when the
            campaign carried none (omitted from the JSON form).
        shards: shard count of an explicitly sharded run
            (``run_sharded_campaign``; 0 otherwise, and the shard fields
            are then omitted from the JSON form).
        workers: worker processes of an explicitly sharded run.
        steals: shards that changed hands without their holder giving
            them up (expired leases, leases of workers that died).
    """

    total: int
    completed: int
    failed: int
    cached: int
    retries: int
    wall_time_s: float
    jobs_per_s: float
    n_jobs: int
    calibration: str
    campaign_seed: int
    kinds: dict[str, int]
    energy: "dict[str, float] | None" = None
    resumed: int = 0
    campaign: str = ""
    journal: "str | None" = None
    interrupted: bool = False
    shards: int = 0
    workers: int = 0
    steals: int = 0

    def to_dict(self) -> dict[str, object]:
        """Primitive form, ready for ``json.dumps``."""
        out: dict[str, object] = {
            "total": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "cached": self.cached,
            "resumed": self.resumed,
            "retries": self.retries,
            "wall_time_s": round(self.wall_time_s, 6),
            "jobs_per_s": round(self.jobs_per_s, 3),
            "n_jobs": self.n_jobs,
            "calibration": self.calibration,
            "campaign_seed": self.campaign_seed,
            "kinds": self.kinds,
        }
        if self.campaign:
            out["campaign"] = self.campaign
        if self.journal is not None:
            out["journal"] = self.journal
        if self.interrupted:
            out["interrupted"] = True
        if self.shards:
            out["shards"] = self.shards
            out["workers"] = self.workers
            out["steals"] = self.steals
        if self.energy is not None:
            out["energy"] = self.energy
        return out

    def to_json(self) -> str:
        """Pretty JSON rendering."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: Path | str) -> Path:
        """Write the manifest JSON to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @staticmethod
    def merge(manifests: "list[RunManifest]") -> "RunManifest | None":
        """Aggregate several campaign manifests (e.g. one per figure)
        into a single record; ``None`` for an empty list."""
        if not manifests:
            return None
        kinds: dict[str, int] = {}
        for m in manifests:
            for kind, count in m.kinds.items():
                kinds[kind] = kinds.get(kind, 0) + count
        wall = sum(m.wall_time_s for m in manifests)
        executed = sum(m.completed + m.failed for m in manifests)
        energy: dict[str, float] | None = None
        for m in manifests:
            if m.energy is None:
                continue
            if energy is None:
                energy = {}
            for label, value in m.energy.items():
                energy[label] = energy.get(label, 0.0) + value
        campaigns = {m.campaign for m in manifests if m.campaign}
        journals = {m.journal for m in manifests if m.journal is not None}
        return RunManifest(
            shards=max(m.shards for m in manifests),
            workers=max(m.workers for m in manifests),
            steals=sum(m.steals for m in manifests),
            total=sum(m.total for m in manifests),
            completed=sum(m.completed for m in manifests),
            failed=sum(m.failed for m in manifests),
            cached=sum(m.cached for m in manifests),
            resumed=sum(m.resumed for m in manifests),
            retries=sum(m.retries for m in manifests),
            wall_time_s=wall,
            jobs_per_s=(executed / wall) if wall > 0.0 and executed else 0.0,
            n_jobs=max(m.n_jobs for m in manifests),
            calibration=manifests[0].calibration,
            campaign_seed=manifests[0].campaign_seed,
            kinds=dict(sorted(kinds.items())),
            campaign=campaigns.pop() if len(campaigns) == 1 else "",
            journal=journals.pop() if len(journals) == 1 else None,
            interrupted=any(m.interrupted for m in manifests),
            energy=energy,
        )


# --------------------------------------------------------------------------
# Live multi-shard view.
#
# The shard coordinator feeds the board a fresh journal replay each poll;
# the board turns deltas into per-shard throughput and ETA without ever
# influencing execution — it is telemetry over the journals, so a dead
# coordinator loses nothing but the pretty table.


@dataclass
class ShardSnapshot:
    """One shard's instantaneous view, derived from its journal replay.

    Attributes:
        index: shard number.
        total: member jobs.
        done: settled ``done`` records.
        failed: settled ``failed`` records (not superseded by ``done``).
        in_flight: dispatched but unsettled jobs.
        owner: current lease holder ("" when unleased).
        lease_remaining_s: seconds until the lease expires (<= 0 means
            stealable).
        steals: times the shard changed hands without its holder
            giving it up.
        finished: whether the shard journaled its ``end`` record.
        interrupted: whether the shard journaled an abort.
        jobs_per_s: smoothed settle throughput observed by the board.
        eta_s: remaining / throughput, or ``None`` before any progress.
    """

    index: int
    total: int
    done: int = 0
    failed: int = 0
    in_flight: int = 0
    owner: str = ""
    lease_remaining_s: float = 0.0
    steals: int = 0
    finished: bool = False
    interrupted: bool = False
    jobs_per_s: float = 0.0
    eta_s: "float | None" = None

    @property
    def remaining(self) -> int:
        """Unsettled member jobs."""
        return max(0, self.total - self.done - self.failed)


@dataclass
class ShardBoard:
    """Rolling view of every shard in one sharded campaign.

    ``observe`` folds a journal replay per shard (anything exposing
    ``done``/``failed``/``dispatched``/``holder``/``deadline``/``steals``
    /``finished``/``interrupted``) into :class:`ShardSnapshot` rows,
    smoothing throughput with an exponential moving average so the ETA
    doesn't whiplash on bursty settles.
    """

    campaign: str
    snapshots: "list[ShardSnapshot]" = field(default_factory=list)
    _last_seen: "dict[int, tuple[float, int]]" = field(
        default_factory=dict, repr=False
    )
    _rates: "dict[int, float]" = field(default_factory=dict, repr=False)

    #: EMA smoothing factor for the per-shard settle rate.
    SMOOTHING = 0.4

    @classmethod
    def from_plan(cls, campaign: str, shard_sizes: "list[int]") -> "ShardBoard":
        """A board with one pristine snapshot per planned shard."""
        return cls(
            campaign=campaign,
            snapshots=[
                ShardSnapshot(index=i, total=size)
                for i, size in enumerate(shard_sizes)
            ],
        )

    def observe(self, states: "dict[int, object]", now: float) -> None:
        """Fold fresh journal replays into the snapshots."""
        for snapshot in self.snapshots:
            state = states.get(snapshot.index)
            if state is None:
                continue
            done = len(state.done)  # type: ignore[attr-defined]
            failed = len(state.failed)  # type: ignore[attr-defined]
            settled = done + failed
            last = self._last_seen.get(snapshot.index)
            if last is not None:
                dt = now - last[0]
                if dt > 0.0 and settled >= last[1]:
                    inst = (settled - last[1]) / dt
                    prev = self._rates.get(snapshot.index, 0.0)
                    self._rates[snapshot.index] = (
                        inst if prev == 0.0
                        else prev + self.SMOOTHING * (inst - prev)
                    )
            self._last_seen[snapshot.index] = (now, settled)
            rate = self._rates.get(snapshot.index, 0.0)
            snapshot.done = done
            snapshot.failed = failed
            snapshot.in_flight = len(
                state.dispatched  # type: ignore[attr-defined]
                - set(state.done)  # type: ignore[attr-defined]
                - set(state.failed)  # type: ignore[attr-defined]
            )
            snapshot.owner = state.holder or ""  # type: ignore[attr-defined]
            snapshot.lease_remaining_s = (
                state.deadline - now  # type: ignore[attr-defined]
                if state.holder is not None  # type: ignore[attr-defined]
                else 0.0
            )
            snapshot.steals = state.steals  # type: ignore[attr-defined]
            snapshot.finished = state.finished  # type: ignore[attr-defined]
            snapshot.interrupted = state.interrupted  # type: ignore[attr-defined]
            snapshot.jobs_per_s = rate
            snapshot.eta_s = (
                snapshot.remaining / rate if rate > 0.0 and snapshot.remaining
                else (0.0 if snapshot.remaining == 0 else None)
            )

    @property
    def settled(self) -> int:
        """Settled jobs across every shard."""
        return sum(s.done + s.failed for s in self.snapshots)

    @property
    def total(self) -> int:
        """Member jobs across every shard."""
        return sum(s.total for s in self.snapshots)

    @property
    def steals(self) -> int:
        """Steals across every shard."""
        return sum(s.steals for s in self.snapshots)

    @property
    def finished(self) -> bool:
        """Whether every shard journaled its ``end`` record."""
        return all(s.finished for s in self.snapshots)

    def render(self) -> str:
        """Fixed-width table: one row per shard plus a totals line.

        Column widths stretch with the board's contents, so boards with
        double-digit shard indices, long worker names or four-digit job
        counts stay aligned instead of overflowing their columns.
        """
        snaps = self.snapshots
        idx_w = max([len("shard")] + [len(str(s.index)) for s in snaps])
        owner_w = max([len("owner")] + [len(s.owner or "-") for s in snaps])
        done_w = max([1] + [len(str(s.done)) for s in snaps])
        total_w = max([1] + [len(str(s.total)) for s in snaps])
        prog_w = max(len("done"), done_w + 1 + total_w)
        fail_w = max([len("fail")] + [len(str(s.failed)) for s in snaps])
        run_w = max([len("run")] + [len(str(s.in_flight)) for s in snaps])
        steal_w = max([len("steal")] + [len(str(s.steals)) for s in snaps])
        header = (
            f"{'shard':>{idx_w}}  {'owner':<{owner_w}} {'done':>{prog_w}} "
            f"{'fail':>{fail_w}} {'run':>{run_w}} {'steal':>{steal_w}} "
            f"{'jobs/s':>7} {'eta':>7}  state"
        )
        lines = [header]
        for s in snaps:
            if s.interrupted:
                status = "aborted"
            elif s.finished:
                status = "finished"
            elif s.owner:
                status = (
                    "leased" if s.lease_remaining_s > 0.0 else "stealable"
                )
            else:
                status = "open"
            eta = f"{s.eta_s:6.1f}s" if s.eta_s is not None else "     ?"
            progress = f"{s.done:>{done_w}}/{s.total:<{total_w}}"
            lines.append(
                f"{s.index:>{idx_w}}  {s.owner or '-':<{owner_w}} "
                f"{progress:>{prog_w}} "
                f"{s.failed:>{fail_w}} {s.in_flight:>{run_w}} "
                f"{s.steals:>{steal_w}} "
                f"{s.jobs_per_s:>7.1f} {eta:>7}  {status}"
            )
        lines.append(
            f"total {self.settled}/{self.total} settled, "
            f"{self.steals} steals"
        )
        return "\n".join(lines)
