"""The attributed energy ledger: the one place joules are charged.

Braidio's headline claim is *power-proportional communication* — the
interesting quantity is not "how many joules were spent" but "where they
went": carrier generation vs. receive chain vs. mode switching vs. idle
draw.  The ledger makes that attribution first-class.  Every consumer
that used to drain a :class:`~repro.hardware.battery.Battery` directly or
sum ad-hoc energy scalars now routes through a :class:`LedgerAccount`:

* ``drain(j)``   — remove joules from the backing battery (raising
  :class:`~repro.hardware.battery.BatteryEmptyError` exactly as the
  battery always has);
* ``note(c, j)`` — attribute joules to a :class:`ChargeCategory`;
* ``meter(j)``   — accumulate the account's legacy metered total (what
  ``SessionMetrics.energy_a_j`` has always reported);
* ``record``/``charge`` — fused conveniences for non-hot-path callers.

The split into three primitive operations is deliberate: the simulator's
historical accounting is *not* battery-conservative on edge paths (the
packet that kills a battery is metered even though the drain failed, and
switch energy drains batteries but never counted toward the per-device
totals).  Keeping drain, attribution and metering separate lets the
refactored call sites preserve those semantics bit-for-bit while the
category breakdown rides along.

Hot-path contract (see DESIGN.md §8): every primitive is O(1), touches
only pre-allocated storage, and allocates nothing.  Snapshots and
breakdowns are O(accounts × categories) and intended for end-of-session
reads, not per-packet use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Tuple

from .budget import EnergyBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.battery import Battery


class ChargeCategory(enum.IntEnum):
    """Where a charged joule went.

    Values are dense small ints so accounts can store per-category sums
    in a pre-allocated list indexed without hashing.
    """

    #: Data-frame air time on the transmitting side.
    TX_AIR = 0
    #: Data-frame air time on the receiving side (non-backscatter modes).
    RX_AIR = 1
    #: Acknowledgement air time (either side, ARQ sessions only).
    ACK = 2
    #: Carrier generation at the backscatter reader (the receiving side of
    #: a backscatter packet powers the carrier the tag reflects).
    CARRIER = 3
    #: Table 5 mode-switch overhead.
    MODE_SWITCH = 4
    #: Sleep-state draw between packets.
    IDLE = 5
    #: RF energy a backscatter tag banked from the reader's carrier,
    #: stored positive and *subtracted* when reconciling against battery
    #: deltas (it offsets draw rather than causing it).
    HARVEST_CREDIT = 6
    #: Air-time energy spent retransmitting during fault recovery (ARQ
    #: retries in fault-armed sessions; replaces TX_AIR/RX_AIR for those
    #: packets so the recovery cost is separable without double counting).
    RETRANSMIT = 7
    #: Energy removed by injected faults (battery step-drains); charged so
    #: conservation still reconciles under fault schedules.
    FAULT = 8

    @property
    def label(self) -> str:
        """Lower-case name used in exports and tables."""
        return self.name.lower()


#: Number of categories (accounts pre-allocate this many slots).
N_CATEGORIES = len(ChargeCategory)

#: All categories, in index order.
CATEGORIES: Tuple[ChargeCategory, ...] = tuple(ChargeCategory)

#: The categories that predate the fault-injection subsystem.  The
#: ``energy`` CSV exporter pins its schema to this tuple so existing
#: outputs stay bit-identical; the fault categories are surfaced by the
#: ``faults`` exporter and the session recovery metrics instead.
LEGACY_CATEGORIES: Tuple[ChargeCategory, ...] = CATEGORIES[
    : ChargeCategory.HARVEST_CREDIT + 1
]


@dataclass(frozen=True)
class AccountSnapshot:
    """Frozen per-account state at snapshot time.

    Attributes:
        name: account key within the ledger.
        label: display label (device name when the account backs one).
        metered_j: legacy metered total (air + ACK + idle, net of
            harvesting; excludes mode switches).
        categories: per-category attributed joules, indexed by
            :class:`ChargeCategory`.
        remaining_j: backing battery's remaining energy, or ``None`` for
            metering-only accounts.
        capacity_j: backing battery's capacity, or ``None``.
    """

    name: str
    label: str
    metered_j: float
    categories: Tuple[float, ...]
    remaining_j: Optional[float]
    capacity_j: Optional[float]

    def category_j(self, category: ChargeCategory) -> float:
        """Attributed joules in one category."""
        return self.categories[category]

    @property
    def attributed_j(self) -> float:
        """Net attributed joules: all categories, harvest credits
        subtracted (this is what a battery delta should reconcile to)."""
        total = 0.0
        for category in CATEGORIES:
            value = self.categories[category]
            if category is ChargeCategory.HARVEST_CREDIT:
                total -= value
            else:
                total += value
        return total

    def breakdown(self) -> Dict[str, float]:
        """Category label -> joules."""
        return {c.label: self.categories[c] for c in CATEGORIES}

    def to_dict(self) -> Dict[str, object]:
        """Primitive form, ready for ``json.dumps``."""
        return {
            "name": self.name,
            "label": self.label,
            "metered_j": self.metered_j,
            "categories": self.breakdown(),
            "remaining_j": self.remaining_j,
            "capacity_j": self.capacity_j,
        }


@dataclass(frozen=True)
class LedgerSnapshot:
    """Frozen state of a whole ledger.

    Attributes:
        accounts: per-account snapshots, in account-creation order.
        switch_pool_j: pooled two-sided switch energy (the legacy
            ``SessionMetrics.switch_energy_j`` accumulator).
        idle_pool_j: pooled idle energy (legacy ``idle_energy_j``).
    """

    accounts: Tuple[AccountSnapshot, ...]
    switch_pool_j: float
    idle_pool_j: float

    def account(self, name: str) -> AccountSnapshot:
        """Look up one account snapshot.

        Raises:
            KeyError: for unknown account names.
        """
        for entry in self.accounts:
            if entry.name == name:
                return entry
        raise KeyError(f"no account {name!r} in snapshot")

    def category_totals(self) -> Dict[str, float]:
        """Category label -> joules summed across accounts."""
        totals = {c.label: 0.0 for c in CATEGORIES}
        for entry in self.accounts:
            for category in CATEGORIES:
                totals[category.label] += entry.categories[category]
        return totals

    def to_dict(self) -> Dict[str, object]:
        """Primitive form for manifests and JSON export."""
        return {
            "accounts": [entry.to_dict() for entry in self.accounts],
            "switch_pool_j": self.switch_pool_j,
            "idle_pool_j": self.idle_pool_j,
            "category_totals": self.category_totals(),
        }

    def format_table(self, unit_scale: float = 1e3, unit: str = "mJ") -> str:
        """Render the per-device, per-category breakdown as a text table."""
        names = [f"{entry.label} ({entry.name})" for entry in self.accounts]
        width = max([len("category")] + [len(c.label) for c in CATEGORIES])
        col = max([12] + [len(n) for n in names])
        lines = [
            "category".ljust(width)
            + "".join(f"  {name:>{col}}" for name in names)
            + f"  [{unit}]"
        ]
        for category in CATEGORIES:
            row = category.label.ljust(width)
            for entry in self.accounts:
                row += f"  {entry.categories[category] * unit_scale:>{col}.6g}"
            lines.append(row)
        totals = "net attributed".ljust(width)
        metered = "metered total".ljust(width)
        for entry in self.accounts:
            totals += f"  {entry.attributed_j * unit_scale:>{col}.6g}"
            metered += f"  {entry.metered_j * unit_scale:>{col}.6g}"
        lines.append(totals)
        lines.append(metered)
        lines.append(
            f"pooled: mode_switch {self.switch_pool_j * unit_scale:.6g} {unit}, "
            f"idle {self.idle_pool_j * unit_scale:.6g} {unit}"
        )
        return "\n".join(lines)


class LedgerAccount:
    """One device's side of the ledger.

    An account couples an optional backing :class:`Battery` (the capacity
    store) with pre-allocated per-category attribution slots and the
    legacy metered total.  Accounts without a battery are metering-only
    (used by standalone :class:`~repro.sim.results.SessionMetrics` and by
    mirror accounts that observe energy charged elsewhere).
    """

    __slots__ = ("name", "label", "_battery", "_categories", "_metered_j")

    def __init__(
        self,
        name: str,
        battery: "Optional[Battery]" = None,
        label: "Optional[str]" = None,
    ) -> None:
        self.name = name
        self.label = label if label is not None else name
        self._battery = battery
        self._categories = [0.0] * N_CATEGORIES
        self._metered_j = 0.0

    # -- capacity store ------------------------------------------------

    @property
    def battery(self) -> "Optional[Battery]":
        """The backing battery, or ``None`` for metering-only accounts."""
        return self._battery

    def bind_battery(self, battery: "Battery") -> None:
        """Attach the capacity store (once; rebinding is a bug).

        Raises:
            RuntimeError: if a different battery is already bound.
        """
        if self._battery is not None and self._battery is not battery:
            raise RuntimeError(f"account {self.name!r} already has a battery")
        self._battery = battery

    @property
    def remaining_j(self) -> "Optional[float]":
        """Backing battery's remaining joules (``None`` when unbound)."""
        battery = self._battery
        return None if battery is None else battery.remaining_j

    def budget(self) -> EnergyBudget:
        """An :class:`EnergyBudget` view of the backing battery.

        Raises:
            RuntimeError: for metering-only accounts.
        """
        battery = self._battery
        if battery is None:
            raise RuntimeError(f"account {self.name!r} has no battery to budget")
        return EnergyBudget.from_battery(battery, source=self.name)

    # -- hot-path primitives (O(1), no allocation) ---------------------

    def drain(self, joules: float) -> None:
        """Remove joules from the backing battery.

        Metering-only accounts validate the amount but store nothing.

        Raises:
            ValueError: for negative amounts.
            BatteryEmptyError: if the drain exceeds the remaining charge
                (the battery is left empty, exactly as before).
        """
        battery = self._battery
        if battery is not None:
            battery.drain_energy(joules)
        elif joules < 0.0:
            raise ValueError(f"cannot drain a negative amount: {joules!r}")

    def note(self, category: int, joules: float) -> None:
        """Attribute joules to a category (no battery, no metered total)."""
        self._categories[category] += joules

    def meter(self, joules: float) -> None:
        """Accumulate the legacy metered total (no battery, no category)."""
        self._metered_j += joules

    # -- fused conveniences --------------------------------------------

    def record(
        self, category: int, joules: float, metered: "Optional[bool]" = None
    ) -> None:
        """Attribute and (by default) meter in one call.

        ``metered`` defaults to everything except ``MODE_SWITCH``, whose
        energy has never counted toward the per-device totals.
        """
        self._categories[category] += joules
        if metered is None:
            metered = category != ChargeCategory.MODE_SWITCH
        if metered:
            self._metered_j += joules

    def charge(
        self, category: int, joules: float, metered: "Optional[bool]" = None
    ) -> None:
        """Drain the battery, attribute and meter: the one-stop call for
        call sites without legacy edge-path semantics to preserve.

        Raises:
            BatteryEmptyError: propagated from the battery; nothing is
                attributed or metered in that case.
        """
        self.drain(joules)
        self.record(category, joules, metered)

    # -- views ----------------------------------------------------------

    @property
    def metered_j(self) -> float:
        """The legacy per-device energy total."""
        return self._metered_j

    def set_metered_j(self, value: float) -> None:
        """Rebase the metered total (compatibility shim for callers that
        assigned ``SessionMetrics.energy_*_j`` directly)."""
        self._metered_j = value

    def category_j(self, category: int) -> float:
        """Attributed joules in one category."""
        return self._categories[category]

    @property
    def attributed_j(self) -> float:
        """Net attributed joules (harvest credits subtracted)."""
        total = 0.0
        for index in range(N_CATEGORIES):
            if index == ChargeCategory.HARVEST_CREDIT:
                total -= self._categories[index]
            else:
                total += self._categories[index]
        return total

    def breakdown(self) -> Dict[ChargeCategory, float]:
        """Category -> attributed joules (a copy)."""
        return {c: self._categories[c] for c in CATEGORIES}

    def snapshot(self) -> AccountSnapshot:
        """Freeze the account state."""
        battery = self._battery
        return AccountSnapshot(
            name=self.name,
            label=self.label,
            metered_j=self._metered_j,
            categories=tuple(self._categories),
            remaining_j=None if battery is None else battery.remaining_j,
            capacity_j=None if battery is None else battery.capacity_j,
        )

    def comparable_state(self) -> Tuple[str, float, Tuple[float, ...]]:
        """Value-equality key: (name, metered, categories).  The backing
        battery is deliberately excluded, matching the historical
        ``SessionMetrics`` dataclass equality."""
        return (self.name, self._metered_j, tuple(self._categories))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LedgerAccount({self.name!r}, metered_j={self._metered_j:.3g}, "
            f"attributed_j={self.attributed_j:.3g})"
        )


class EnergyLedger:
    """Attributed energy accounting for a set of devices.

    Alongside the per-account attribution the ledger keeps two *pooled*
    accumulators — ``switch_energy_j`` and ``idle_energy_j`` — that
    reproduce the historical session counters bit-for-bit (those were
    accumulated as combined two-sided sums, which per-account category
    totals cannot reconstruct without reordering float additions).
    """

    __slots__ = ("_accounts", "_switch_pool_j", "_idle_pool_j")

    def __init__(self) -> None:
        self._accounts: Dict[str, LedgerAccount] = {}
        self._switch_pool_j = 0.0
        self._idle_pool_j = 0.0

    @classmethod
    def for_pair(
        cls,
        battery_a: "Optional[Battery]" = None,
        battery_b: "Optional[Battery]" = None,
        label_a: "Optional[str]" = None,
        label_b: "Optional[str]" = None,
    ) -> "EnergyLedger":
        """A two-account ledger ("a", "b") — the session layout."""
        ledger = cls()
        ledger.open_account("a", battery_a, label_a)
        ledger.open_account("b", battery_b, label_b)
        return ledger

    # -- accounts --------------------------------------------------------

    def open_account(
        self,
        name: str,
        battery: "Optional[Battery]" = None,
        label: "Optional[str]" = None,
    ) -> LedgerAccount:
        """Create an account.

        Raises:
            ValueError: for duplicate names.
        """
        if name in self._accounts:
            raise ValueError(f"account {name!r} already exists")
        account = LedgerAccount(name, battery, label)
        self._accounts[name] = account
        return account

    def account(self, name: str) -> LedgerAccount:
        """Look up an account.

        Raises:
            KeyError: for unknown names.
        """
        return self._accounts[name]

    def __getitem__(self, name: str) -> LedgerAccount:
        return self._accounts[name]

    def __contains__(self, name: str) -> bool:
        return name in self._accounts

    def __iter__(self) -> Iterator[LedgerAccount]:
        return iter(self._accounts.values())

    def accounts(self) -> Tuple[LedgerAccount, ...]:
        """All accounts in creation order."""
        return tuple(self._accounts.values())

    # -- pooled legacy counters -----------------------------------------

    def pool_switch(self, joules: float) -> None:
        """Accumulate pooled (two-sided) switch energy."""
        self._switch_pool_j += joules

    def pool_idle(self, joules: float) -> None:
        """Accumulate pooled (two-sided) idle energy."""
        self._idle_pool_j += joules

    @property
    def switch_energy_j(self) -> float:
        """Pooled switch energy across all accounts."""
        return self._switch_pool_j

    def set_switch_energy_j(self, value: float) -> None:
        """Rebase the pooled switch counter (compatibility shim)."""
        self._switch_pool_j = value

    @property
    def idle_energy_j(self) -> float:
        """Pooled idle energy across all accounts."""
        return self._idle_pool_j

    def set_idle_energy_j(self, value: float) -> None:
        """Rebase the pooled idle counter (compatibility shim)."""
        self._idle_pool_j = value

    # -- views ------------------------------------------------------------

    def category_total_j(self, category: int) -> float:
        """Attributed joules in one category, summed across accounts."""
        return sum(account.category_j(category) for account in self)

    def breakdown(self) -> Dict[str, Dict[ChargeCategory, float]]:
        """Account name -> category -> joules."""
        return {account.name: account.breakdown() for account in self}

    def snapshot(self) -> LedgerSnapshot:
        """Freeze the whole ledger."""
        return LedgerSnapshot(
            accounts=tuple(account.snapshot() for account in self),
            switch_pool_j=self._switch_pool_j,
            idle_pool_j=self._idle_pool_j,
        )

    def comparable_state(
        self,
    ) -> Tuple[Tuple[Tuple[str, float, Tuple[float, ...]], ...], float, float]:
        """Value-equality key across accounts and pools."""
        return (
            tuple(account.comparable_state() for account in self),
            self._switch_pool_j,
            self._idle_pool_j,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(self._accounts)
        return f"EnergyLedger([{names}])"


def conservation_residual_j(
    account: LedgerAccount, initial_j: float
) -> "Optional[float]":
    """How far the account's attribution drifts from its battery delta:
    ``(initial - remaining) - attributed``.  ``None`` for metering-only
    accounts.  Useful in tests and invariant checks; sessions that died
    mid-drain legitimately show a residual (the fatal packet drains only
    what was left: the pair session still attributes all of it, the hub
    session none of it).
    """
    remaining = account.remaining_j
    if remaining is None:
        return None
    return (initial_j - remaining) - account.attributed_j


def merge_category_totals(
    totals: "Mapping[str, float] | None", snapshot: LedgerSnapshot
) -> Dict[str, float]:
    """Fold a snapshot's category totals into a running label -> joules
    mapping (used when embedding ledger state in campaign manifests)."""
    merged: Dict[str, float] = dict(totals) if totals else {}
    for label, value in snapshot.category_totals().items():
        merged[label] = merged.get(label, 0.0) + value
    return merged
