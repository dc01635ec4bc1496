"""Packet-level simulation of a hub serving multiple clients.

The fleet LP (:mod:`repro.net.hub`) is the analytic upper bound; this
session runs the real dynamics: TDMA slots rotate the hub's radio across
clients, every client pair runs its own carrier-offload controller against
the *shared, shrinking* hub battery, and per-packet losses/switching costs
apply.  As the hub drains, each controller's energy updates see the new
hub level and re-plan — the emergent behaviour the LP idealizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.braidio import BraidioRadio
from ..energy import ChargeCategory
from ..hardware.battery import BatteryEmptyError
from ..hardware.switching import switch_cost
from ..modes import LinkMode
from ..sim.link import SimulatedLink
from ..sim.results import SessionMetrics
from ..sim.session import FRAME_OVERHEAD_BITS
from ..sim.simulator import Simulator
from .tdma import TdmaSchedule

# Category indices hoisted for the per-packet path (see DESIGN.md §8).
_TX_AIR = int(ChargeCategory.TX_AIR)
_RX_AIR = int(ChargeCategory.RX_AIR)
_CARRIER = int(ChargeCategory.CARRIER)
_MODE_SWITCH = int(ChargeCategory.MODE_SWITCH)
_FAULT = int(ChargeCategory.FAULT)


@dataclass
class HubClient:
    """One uplink client of a hub session.

    Attributes:
        name: unique identifier (must match the TDMA schedule).
        radio: the client end point.
        link: the channel between the client and the hub.
        policy: mode policy for this client's uplink.
        metrics: per-client statistics.
    """

    name: str
    radio: BraidioRadio
    link: SimulatedLink
    policy: object
    metrics: SessionMetrics = field(default_factory=SessionMetrics)


class HubSession:
    """A TDMA uplink session: N clients -> one hub.

    Args:
        simulator: event kernel.
        hub: the hub end point (its battery is shared by every client).
        clients: participating clients.
        tdma: slot schedule (client names must match).
        payload_bytes: data payload per packet.
        apply_switch_costs: charge Table 5 costs on per-client mode
            changes.
        max_packets / max_time_s: stop conditions.
        energy_update_interval: packets between battery refreshes pushed
            to each policy.
        dark_after: consecutive failures before a client is declared dark
            and its TDMA slots are reclaimed (``None`` — the default —
            disables dark-client handling entirely, preserving the
            original behavior bit for bit).
        max_reprobes: probe packets a dark client gets before it is
            retired for good.
        reprobe_interval: served packets between probes of dark clients
            (defaults to one TDMA round).
    """

    def __init__(
        self,
        simulator: Simulator,
        hub: BraidioRadio,
        clients: list[HubClient],
        tdma: TdmaSchedule,
        payload_bytes: int = 30,
        apply_switch_costs: bool = True,
        max_packets: int | None = None,
        max_time_s: float | None = None,
        energy_update_interval: int = 64,
        dark_after: int | None = None,
        max_reprobes: int = 3,
        reprobe_interval: int | None = None,
    ) -> None:
        if not clients:
            raise ValueError("at least one client required")
        names = {c.name for c in clients}
        schedule_names = set(tdma.air_time_shares())
        if names != schedule_names:
            raise ValueError(
                f"TDMA clients {schedule_names} do not match session clients {names}"
            )
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if energy_update_interval <= 0:
            raise ValueError("energy update interval must be positive")
        if dark_after is not None and dark_after <= 0:
            raise ValueError("dark-after threshold must be positive")
        if max_reprobes <= 0:
            raise ValueError("re-probe budget must be positive")
        if reprobe_interval is not None and reprobe_interval <= 0:
            raise ValueError("re-probe interval must be positive")

        self._sim = simulator
        self._hub = hub
        self._clients = {c.name: c for c in clients}
        self._tdma = tdma
        self._payload_bits = 8 * payload_bytes
        self._apply_switch_costs = apply_switch_costs
        self._max_packets = max_packets
        self._max_time_s = max_time_s
        self._energy_update_interval = energy_update_interval

        self._packet_index = 0
        self._last_mode: dict[str, LinkMode | None] = {c.name: None for c in clients}
        self._exhausted: set[str] = set()
        self._finished = False
        # Resilience state (inert unless dark_after is set / an injector
        # is armed — the defaults keep legacy runs bit-identical).
        self._injector = None
        self._dark_after = dark_after
        self._max_reprobes = max_reprobes
        self._reprobe_interval = (
            reprobe_interval if reprobe_interval is not None else tdma.round_packets
        )
        self._base_tdma = tdma
        # (base schedule, inactive clients) awaiting a build at the next
        # serve; see _rebuild_schedule.
        self._pending_tdma: tuple[TdmaSchedule, set[str]] | None = None
        self._fail_streak: dict[str, int] = {c.name: 0 for c in clients}
        self._dark_since: dict[str, float] = {}
        self._probes_used: dict[str, int] = {}
        self._since_probe = 0
        # Churn state (deployment simulator): suspended clients keep their
        # batteries and policies but are skipped by the serve loop until
        # resumed.  Unused -> bit-identical to the pre-churn behavior.
        self._suspended: dict[str, float] = {}
        self._idle = False
        self.churn_suspensions = 0
        self.churn_resumes = 0
        self.suspended_time_s = 0.0
        # Power state (deploy-layer blackouts): a dark hub serves nothing
        # until power_up(); neighbor hubs may adopt its clients meanwhile.
        # Unused -> bit-identical to the pre-failover behavior.
        self._powered_down = False
        self._down_since = 0.0
        self._down_chain_broken = False
        self.power_downs = 0
        self.powered_down_s = 0.0
        self.adoptions = 0
        self.releases = 0
        self.hub_metrics = SessionMetrics()
        # Each client's ledger binds its own battery as account "a" and
        # the *shared* hub battery as account "b" — per-packet drains
        # route through the client's ledger.  The hub-side account is
        # bound to the same battery so its conservation residual can be
        # checked, but it only notes and meters packet energy (never
        # drains it), so the shared battery is never drained twice.
        # Hub fault drains are the one thing it drains itself.
        self._accounts: dict[str, tuple[object, object]] = {}
        for c in clients:
            account_a = c.metrics.ledger.account("a")
            account_b = c.metrics.ledger.account("b")
            account_a.bind_battery(c.radio.battery)
            account_b.bind_battery(hub.battery)
            self._accounts[c.name] = (account_a, account_b)
        self._hub_account = self.hub_metrics.ledger.account("b")
        self._hub_account.bind_battery(hub.battery)

    @property
    def finished(self) -> bool:
        """Whether the session has stopped."""
        return self._finished

    @property
    def simulator(self) -> Simulator:
        """The event kernel this session schedules on."""
        return self._sim

    @property
    def metrics(self) -> SessionMetrics:
        """Alias for :attr:`hub_metrics` (the injector's uniform view)."""
        return self.hub_metrics

    @property
    def dark_clients(self) -> frozenset[str]:
        """Clients currently declared dark (slots reclaimed)."""
        return frozenset(self._dark_since)

    @property
    def suspended_clients(self) -> frozenset[str]:
        """Clients currently suspended by churn (asleep or departed)."""
        return frozenset(self._suspended)

    @property
    def powered_down(self) -> bool:
        """Whether the hub is currently dark (deploy-layer blackout)."""
        return self._powered_down

    @property
    def exhausted_clients(self) -> frozenset[str]:
        """Clients retired for good (dead battery or burned probe
        budget)."""
        return frozenset(self._exhausted)

    @property
    def client_names(self) -> frozenset[str]:
        """Every client currently attached (including adopted ones)."""
        return frozenset(self._clients)

    def suspend_client(self, name: str) -> None:
        """Churn: take a client off the air (sleep or departure).

        Its TDMA slots are redistributed to the survivors; the client's
        battery and policy state are preserved for :meth:`resume_client`.
        Suspending an already-suspended, exhausted or finished client is
        a no-op.

        Raises:
            KeyError: for unknown client names.
        """
        client = self._clients[name]  # KeyError for unknown names
        if self._finished or name in self._suspended or name in self._exhausted:
            return
        self._suspended[name] = self._sim.now_s
        self.churn_suspensions += 1
        client.metrics.churn_suspensions += 1
        self._rebuild_schedule()

    def resume_client(self, name: str) -> None:
        """Churn: bring a suspended client back on the air.

        The client rejoins the TDMA rotation and its policy re-plans from
        the *current* batteries and link distance (it kept moving while
        asleep — mobility models are functions of time).  If the whole
        session idled because everyone was suspended, serving restarts.

        Raises:
            KeyError: for unknown client names.
        """
        client = self._clients[name]
        went_dark = self._suspended.pop(name, None)
        if went_dark is None or self._finished or name in self._exhausted:
            return
        asleep_s = self._sim.now_s - went_dark
        self.suspended_time_s += asleep_s
        client.metrics.suspended_s += asleep_s
        self.churn_resumes += 1
        client.policy.start(
            client.link.distance_m,
            max(client.radio.battery.remaining_j, 1e-12),
            max(self._hub.battery.remaining_j, 1e-12),
        )
        self._last_mode[name] = None
        self._rebuild_schedule()
        if self._idle and not self._powered_down:
            self._idle = False
            self._sim.schedule_in(0.0, self._serve_packet)

    def power_down(self) -> None:
        """Blackout: the hub stops serving entirely until :meth:`power_up`.

        Clients stay attached (batteries idle, churn timers keep
        running); the in-flight serve chain dies at its next event and
        :meth:`power_up` re-arms it.  No-op on a finished or
        already-dark session.
        """
        if self._finished or self._powered_down:
            return
        self._powered_down = True
        self._down_since = self._sim.now_s
        self.power_downs += 1

    def power_up(self) -> None:
        """Reboot after a blackout: every live client's policy re-plans
        from the *current* batteries and link distance, committed modes
        are forgotten, and serving resumes.  No-op unless dark."""
        if self._finished or not self._powered_down:
            return
        self._powered_down = False
        self.powered_down_s += self._sim.now_s - self._down_since
        self.hub_metrics.reboots += 1
        for name, client in self._clients.items():
            if name in self._exhausted or name in self._suspended:
                continue
            client.policy.start(
                client.link.distance_m,
                max(client.radio.battery.remaining_j, 1e-12),
                max(self._hub.battery.remaining_j, 1e-12),
            )
            self._last_mode[name] = None
        if self._down_chain_broken:
            self._down_chain_broken = False
            self._sim.schedule_in(0.0, self._serve_packet)

    def adopt_client(self, client: HubClient, weight: float = 1.0) -> None:
        """Hub-to-hub handoff: admit a dark neighbor's device mid-run.

        The client gets TDMA slots at ``weight`` (existing clients'
        air time shrinks proportionally), its ledger accounts bind its
        own battery and *this* hub's shared battery, and its policy
        negotiates from the current energy state — exactly what a
        re-association exchange would establish.

        Raises:
            RuntimeError: on a finished or powered-down session.
            ValueError: if the name is already attached.
        """
        if self._finished:
            raise RuntimeError("cannot adopt into a finished session")
        if self._powered_down:
            raise RuntimeError("cannot adopt into a powered-down hub")
        name = client.name
        if name in self._clients:
            raise ValueError(f"client {name!r} is already attached")
        self._base_tdma = self._base_tdma.with_client(name, weight)
        self._clients[name] = client
        self._last_mode[name] = None
        self._fail_streak[name] = 0
        account_a = client.metrics.ledger.account("a")
        account_b = client.metrics.ledger.account("b")
        account_a.bind_battery(client.radio.battery)
        account_b.bind_battery(self._hub.battery)
        self._accounts[name] = (account_a, account_b)
        client.policy.start(
            client.link.distance_m,
            max(client.radio.battery.remaining_j, 1e-12),
            max(self._hub.battery.remaining_j, 1e-12),
        )
        self.adoptions += 1
        self._rebuild_schedule()
        if self._idle:
            self._idle = False
            self._sim.schedule_in(0.0, self._serve_packet)

    def release_client(self, name: str) -> HubClient:
        """Undo an adoption: detach a client and return it.

        Its TDMA slots are redistributed to the survivors; outage and
        suspension accrual is settled at the current simulation time.
        The home hub (rebooting after its blackout) re-admits the
        device through its own still-registered record.

        Raises:
            KeyError: for unknown client names.
            ValueError: when it would leave the session clientless.
        """
        client = self._clients[name]
        if len(self._clients) == 1:
            raise ValueError("cannot release the last client")
        del self._clients[name]
        self._accounts.pop(name, None)
        self._last_mode.pop(name, None)
        self._fail_streak.pop(name, None)
        self._probes_used.pop(name, None)
        self._exhausted.discard(name)
        went_dark = self._dark_since.pop(name, None)
        if went_dark is not None:
            self.hub_metrics.outage_s += self._sim.now_s - went_dark
        suspended_at = self._suspended.pop(name, None)
        if suspended_at is not None:
            asleep_s = self._sim.now_s - suspended_at
            self.suspended_time_s += asleep_s
            client.metrics.suspended_s += asleep_s
        self._base_tdma = self._base_tdma.without([name])
        self.releases += 1
        self._rebuild_schedule()
        return client

    def attach_injector(self, injector) -> None:
        """Accept a :class:`~repro.faults.injector.FaultInjector`.

        Raises:
            RuntimeError: if a different injector is already attached.
        """
        if self._injector is not None and self._injector is not injector:
            raise RuntimeError("session already has an injector attached")
        self._injector = injector

    def apply_step_drain(self, account: str, joules: float) -> None:
        """Instantly remove ``joules`` from a client's battery (by client
        name) or from the shared hub battery (``"hub"``), attributed to
        the FAULT ledger category."""
        if account == "hub":
            self._hub_account.note(_FAULT, joules)
            try:
                self._hub_account.drain(joules)
            except BatteryEmptyError:
                self._terminate("battery")
            return
        client = self._clients[account]
        client_account, _ = self._accounts[account]
        client_account.note(_FAULT, joules)
        try:
            client_account.drain(joules)
        except BatteryEmptyError:
            self._retire_or_finish(client)

    def on_client_reboot(self, name: str) -> None:
        """A crashed client came back: restart its policy from current
        batteries and forget its committed mode."""
        if self._finished or name in self._exhausted:
            return
        client = self._clients[name]
        client.policy.start(
            client.link.distance_m,
            max(client.radio.battery.remaining_j, 1e-12),
            max(self._hub.battery.remaining_j, 1e-12),
        )
        self._last_mode[name] = None
        client.metrics.reboots += 1
        self.hub_metrics.reboots += 1

    def client(self, name: str) -> HubClient:
        """Look up a client.

        Raises:
            KeyError: for unknown names.
        """
        return self._clients[name]

    def start(self) -> None:
        """Negotiate every client's initial plan and schedule the loop."""
        for client in self._clients.values():
            client.policy.start(
                client.link.distance_m,
                client.radio.battery.remaining_j,
                self._hub.battery.remaining_j,
            )
        self._sim.schedule_in(0.0, self._serve_packet)

    def run(self) -> SessionMetrics:
        """Run to a stop condition; returns the hub-side metrics."""
        if self._packet_index == 0 and not self._finished:
            self.start()
        self._sim.run(until_s=self._max_time_s)
        if not self._finished:
            self._terminate("time" if self._max_time_s is not None else "packets")
        return self.hub_metrics

    def finish(self, reason: str = "time") -> SessionMetrics:
        """Stop the session at the current simulation time.

        For shared-kernel runs (several hub sessions riding one
        simulator) where the kernel loop is owned by the caller, not
        :meth:`run`.  Idempotent; returns the hub-side metrics.
        """
        if not self._finished:
            self._terminate(reason)
        return self.hub_metrics

    def _terminate(self, reason: str) -> None:
        self._finished = True
        now = self._sim.now_s
        if self._powered_down:
            self._powered_down = False
            self.powered_down_s += now - self._down_since
        for went_dark in self._dark_since.values():
            self.hub_metrics.outage_s += now - went_dark
        self._dark_since.clear()
        for name, suspended_at in self._suspended.items():
            asleep_s = now - suspended_at
            self.suspended_time_s += asleep_s
            self._clients[name].metrics.suspended_s += asleep_s
        self._suspended.clear()
        self.hub_metrics.terminated_by = reason
        self.hub_metrics.duration_s = now
        for client in self._clients.values():
            client.metrics.terminated_by = reason
            client.metrics.duration_s = now

    def _next_live_client(self) -> HubClient | None:
        if self._pending_tdma is not None:
            base, inactive = self._pending_tdma
            self._pending_tdma = None
            self._tdma = base.without(inactive) if inactive else base
        # Skip the slots of exhausted clients (their battery died), dark
        # ones (slots reclaimed but a stale schedule may still name them)
        # and suspended ones (churn); the schedule rotates among the
        # survivors.
        for _ in range(self._tdma.round_packets):
            name = self._tdma.client_for_packet(self._packet_index)
            if (
                name not in self._exhausted
                and name not in self._dark_since
                and name not in self._suspended
            ):
                return self._clients[name]
            self._packet_index += 1
        return None

    # -- dark-client handling (active only when dark_after is set) -------

    def _pick_client(self) -> HubClient | None:
        """The client to serve next: a scheduled live client, or — at the
        re-probe cadence — a dark one.  Terminates the session (and
        returns ``None``) when nobody is servable."""
        if self._dark_since:
            probe = self._maybe_probe()
            if probe is not None:
                return probe
        client = self._next_live_client()
        if client is not None:
            return client
        if self._dark_since:
            probe = self._maybe_probe(force=True)
            if probe is not None:
                return probe
        if self._suspended:
            # Every servable client is suspended by churn (the dark ones
            # already got their forced probe above): idle until a resume
            # restarts serving instead of declaring the fleet dead.
            self._idle = True
            return None
        self._terminate("link_lost" if self._dark_since else "battery")
        return None

    def _maybe_probe(self, force: bool = False) -> HubClient | None:
        # Per-client exponential spacing: the n-th probe of a dark client
        # waits reprobe_interval * 2**n served packets, so a bounded probe
        # budget still spans outages much longer than one TDMA round.
        out_of_budget = True
        for name in sorted(self._dark_since):
            used = self._probes_used.get(name, 0)
            if used >= self._max_reprobes:
                continue
            out_of_budget = False
            if force or self._since_probe >= self._reprobe_interval * (2 ** used):
                self._probes_used[name] = used + 1
                self._since_probe = 0
                self.hub_metrics.resyncs += 1
                return self._clients[name]
        if out_of_budget:
            # Every dark client burned its probe budget: retire for good.
            now = self._sim.now_s
            for name, went_dark in list(self._dark_since.items()):
                self.hub_metrics.outage_s += now - went_dark
                del self._dark_since[name]
                self._exhausted.add(name)
        return None

    def _note_link_outcome(self, client: HubClient, success: bool) -> None:
        name = client.name
        if success:
            self._fail_streak[name] = 0
            if name in self._dark_since:
                self._readmit(client)
            return
        streak = self._fail_streak[name] + 1
        self._fail_streak[name] = streak
        if name not in self._dark_since and streak >= self._dark_after:
            self._mark_dark(client)

    def _mark_dark(self, client: HubClient) -> None:
        self._dark_since[client.name] = self._sim.now_s
        self._probes_used[client.name] = 0
        self._rebuild_schedule()

    def _readmit(self, client: HubClient) -> None:
        went_dark = self._dark_since.pop(client.name)
        latency = self._sim.now_s - went_dark
        self.hub_metrics.outage_s += latency
        if latency > self.hub_metrics.recovery_latency_s:
            self.hub_metrics.recovery_latency_s = latency
        self.hub_metrics.recoveries += 1
        self._rebuild_schedule()

    def _rebuild_schedule(self) -> None:
        # Reclaim the inactive clients' slots for the survivors.  The
        # build is deferred to the next serve (a burst of churn between
        # two packets costs one), but the inactive set is captured now:
        # clients retired later without a rebuild keep their slots.
        inactive = set(self._dark_since) | self._exhausted | set(self._suspended)
        if len(inactive) == len(self._clients):
            # Everyone is inactive: idle on the base schedule (same round
            # length, every name skipped); the probe path decides whether
            # anyone comes back or the session ends.
            inactive = set()
        self._pending_tdma = (self._base_tdma, inactive)

    def _serve_packet(self) -> None:
        if self._finished:
            return
        if self._powered_down:
            # The serve chain dies here; power_up() re-arms exactly one.
            self._down_chain_broken = True
            return
        if self._max_packets is not None and self._packet_index >= self._max_packets:
            self._terminate("packets")
            return
        if self._hub.battery.is_empty:
            self._terminate("battery")
            return
        client = self._pick_client()
        if client is None:
            return

        decision = client.policy.next_packet()
        air_bits = self._payload_bits + FRAME_OVERHEAD_BITS
        duration_s = air_bits / decision.bitrate_bps
        client_account, shared_account = self._accounts[client.name]

        if (
            self._apply_switch_costs
            and self._last_mode[client.name] is not None
            and decision.mode is not self._last_mode[client.name]
        ):
            cost = switch_cost(decision.mode, bitrate_bps=decision.bitrate_bps)
            try:
                client_account.drain(cost.tx_j)
                shared_account.drain(cost.rx_j)
            except BatteryEmptyError:
                self._retire_or_finish(client)
                return
            client_account.note(_MODE_SWITCH, cost.tx_j)
            shared_account.note(_MODE_SWITCH, cost.rx_j)
            self._hub_account.note(_MODE_SWITCH, cost.rx_j)
            client.metrics.ledger.pool_switch(cost.total_j)
            client.metrics.mode_switches += 1
        self._last_mode[client.name] = decision.mode

        success = client.link.packet_success(
            decision.mode, decision.bitrate_bps, air_bits, self._sim.now_s
        )
        # Fault override AFTER the draw: the link stream consumes exactly
        # one value per packet with or without an injector armed.
        if (
            success
            and self._injector is not None
            and self._injector.client_blocked(client.name, decision.mode)
        ):
            success = False
        tx_energy = decision.tx_power_w * duration_s
        rx_energy = decision.rx_power_w * duration_s
        try:
            client_account.drain(tx_energy)
            shared_account.drain(rx_energy)
        except BatteryEmptyError:
            # The fatal packet is recorded but neither metered nor
            # attributed (the drain removed only what was left), so the
            # dead battery's conservation residual is non-zero.
            client.metrics.record_packet(decision.mode, self._payload_bits, False)
            self._retire_or_finish(client)
            return

        rx_category = _CARRIER if decision.mode is LinkMode.BACKSCATTER else _RX_AIR
        client_account.note(_TX_AIR, tx_energy)
        client_account.meter(tx_energy)
        shared_account.note(rx_category, rx_energy)
        shared_account.meter(rx_energy)
        self._hub_account.note(rx_category, rx_energy)
        self._hub_account.meter(rx_energy)
        client.metrics.record_packet(decision.mode, self._payload_bits, success)
        self.hub_metrics.record_packet(decision.mode, self._payload_bits, success)
        client.policy.record_outcome(decision.mode, success)
        if self._dark_after is not None:
            self._note_link_outcome(client, success)

        self._packet_index += 1
        self._since_probe += 1
        if self._packet_index % self._energy_update_interval == 0:
            # Suspended clients are checked for exhaustion but not
            # refreshed: resume_client restarts their policy, which
            # overwrites everything update_energy would have set.
            for other in self._clients.values():
                if other.name in self._exhausted:
                    continue
                if other.radio.battery.is_empty:
                    self._exhausted.add(other.name)
                    continue
                if other.name in self._suspended:
                    continue
                other.policy.update_energy(
                    other.radio.battery.remaining_j,
                    max(self._hub.battery.remaining_j, 1e-12),
                )

        self._sim.schedule_in(duration_s, self._serve_packet)

    def _retire_or_finish(self, client: HubClient) -> None:
        # A dead client battery retires that client; a dead hub battery
        # (or the last client dying) ends the session.
        if self._hub.battery.is_empty:
            self._terminate("battery")
            return
        self._exhausted.add(client.name)
        if len(self._exhausted) == len(self._clients):
            self._terminate("battery")
            return
        self._sim.schedule_in(0.0, self._serve_packet)
