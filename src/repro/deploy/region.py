"""Simulate one region of a deployment: hubs, devices, churn, coupling.

A region (:class:`~repro.deploy.partition.Region`) is a set of hubs with
no RF path to the rest of the city, so it simulates independently.
Inside the region each hub runs a full packet-level
:class:`~repro.net.session.HubSession` — TDMA rotation, shared hub
battery and per-client offload controllers — while cross-hub coupling
enters through the channel model: a hub that shares a reuse channel
with a neighbor sees that neighbor's TDMA bursts as a
:class:`~repro.sim.interference.BurstyInterferer`, attenuated by the
hub-to-hub path loss, on every one of its client links
(:class:`~repro.sim.interference.InterferedLink`).  Orthogonal or
isolated hubs keep the fast memoizing :class:`~repro.sim.link.SimulatedLink`.

One routine (:func:`_run_hubs`) runs any set of a region's hubs on one
DES kernel: unarmed hubs never interact, so each gets its own; a fault
plan can hand devices between hubs, so an armed region shares one.
Grouping changes speed, never a reported byte.  Energy is *metered air
energy* on every path — ``client_energy_j`` sums the devices'
``energy_a_j`` deltas over the measured window (twins a neighbor adopted
included: attribution follows the device home) and ``hub_energy_j`` is
the hub's ``energy_b_j`` delta; Table 5 switch costs and fault drains
are not metered.

Churn runs *through the DES*: each device's join/leave/sleep timeline is
pre-sampled from its own content-addressed stream and compiled into
``suspend_client`` / ``resume_client`` events before the kernel starts,
so event interleaving can never perturb the draws.

Every random stream is derived from (scenario fingerprint, hub index,
device name, purpose) via :meth:`DeploymentSpec.stream` — never from the
executor's job RNG — which is what makes the merged deployment manifest
bit-identical at any worker count, chunking, execution order or resume.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..core.braidio import BraidioRadio
from ..core.modes import LinkMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.region import RegionFaultPlan
from ..core.regimes import LinkMap
from ..net.session import HubClient, HubSession
from ..net.tdma import TdmaSchedule
from ..phy.propagation import log_distance_path_loss_db
from ..sim.interference import BurstyInterferer, InterferedLink
from ..sim.link import SimulatedLink
from ..sim.mobility import MobilityDriver, RandomWaypoint1D
from ..sim.policies import BraidioPolicy
from ..sim.simulator import Simulator
from .partition import Region, quantize_distance
from .spec import ChurnProcess, DeploymentSpec

#: Seconds between mobility-model samples pushed into links/policies.
MOBILITY_TICK_S = 0.25

#: Mean burst length of a co-channel neighbor's TDMA activity (s).
NEIGHBOR_BURST_ON_S = 0.05

#: Mean quiet gap of a single co-channel neighbor (s); divided by the
#: neighbor count, so denser co-channel neighborhoods burst more often.
NEIGHBOR_BURST_OFF_S = 0.5

#: Reference hub separation (m) at which the scenario's nominal
#: interference penalty applies; closer neighbors hit harder.
PENALTY_REFERENCE_M = 10.0


def neighbor_penalty_db(
    spec: DeploymentSpec, neighbor_distances_m: "tuple[float, ...]"
) -> float:
    """SNR penalty a hub's co-channel neighbors inflict, in dB.

    The scenario's nominal ``interference_penalty_db`` is anchored at
    :data:`PENALTY_REFERENCE_M` and rolls off with the *nearest*
    co-channel neighbor's path loss (the dominant interferer), clamped
    to be non-negative.
    """
    if not neighbor_distances_m:
        return 0.0
    nearest = min(neighbor_distances_m)
    roll_off = log_distance_path_loss_db(
        nearest, path_loss_exponent=spec.path_loss_exponent
    ) - log_distance_path_loss_db(
        PENALTY_REFERENCE_M, path_loss_exponent=spec.path_loss_exponent
    )
    return max(0.0, spec.interference_penalty_db - roll_off)


@dataclass(frozen=True)
class DevicePlan:
    """One device's resolved identity within its hub.

    Attributes:
        name: globally unique device id (``h<hub>-<class><k>``).
        class_name: the device class it was drawn from.
        distance_m: initial hub separation (cm-quantized).
        timeline: churn events as (time_s, ``"suspend"``/``"resume"``).
    """

    name: str
    class_name: str
    distance_m: float
    timeline: "tuple[tuple[float, str], ...]"


def churn_timeline(
    rng, churn: ChurnProcess, horizon_s: float
) -> "tuple[tuple[float, str], ...]":
    """Pre-sample one device's suspend/resume events over the horizon.

    The draw order is fixed (join uniform, join delay, lifetime, then
    alternating awake/asleep dwells) so a device's timeline depends only
    on its own stream.  Events beyond the horizon are dropped; a
    permanent leave truncates everything after it.
    """
    events: "list[tuple[float, str]]" = []
    joins_late = float(rng.random()) < churn.late_join_fraction
    join_at = float(rng.exponential(churn.mean_join_delay_s))
    lifetime = (
        float(rng.exponential(churn.mean_lifetime_s))
        if churn.mean_lifetime_s > 0.0
        else math.inf
    )
    t = 0.0
    if joins_late:
        events.append((0.0, "suspend"))
        t = min(join_at, horizon_s)
        if t < horizon_s and t < lifetime:
            events.append((t, "resume"))
    leave_at = lifetime
    if churn.mean_awake_s > 0.0:
        while t < horizon_s:
            awake = float(rng.exponential(churn.mean_awake_s))
            asleep = float(rng.exponential(churn.mean_asleep_s))
            t += awake
            if t >= horizon_s or t >= leave_at:
                break
            events.append((t, "suspend"))
            t += asleep
            if t >= horizon_s or t >= leave_at:
                break
            events.append((t, "resume"))
    if leave_at < horizon_s:
        # Truncate at the permanent departure and suspend for good.
        events = [(ts, kind) for ts, kind in events if ts < leave_at]
        if not events or events[-1][1] == "resume" or events[-1][0] < leave_at:
            events.append((leave_at, "suspend"))
    return tuple(events)


def plan_hub_devices(
    spec: DeploymentSpec, global_hub_index: int
) -> "tuple[DevicePlan, ...]":
    """Resolve one hub's device population, deterministically.

    Class counts come from the spec's largest-remainder split; each
    device draws its placement and churn timeline from its own
    content-addressed stream (labels ``hub<g>:place:<name>`` /
    ``hub<g>:churn:<name>``).
    """
    counts = spec.class_counts()
    plans: "list[DevicePlan]" = []
    for device_class in spec.classes:
        for k in range(counts[device_class.name]):
            name = f"h{global_hub_index}-{device_class.name}{k}"
            place_rng = spec.stream(f"hub{global_hub_index}:place:{name}")
            distance = quantize_distance(
                float(
                    place_rng.uniform(
                        device_class.min_distance_m, device_class.max_distance_m
                    )
                )
            )
            if spec.churn.is_static:
                timeline: "tuple[tuple[float, str], ...]" = ()
            else:
                churn_rng = spec.stream(f"hub{global_hub_index}:churn:{name}")
                timeline = churn_timeline(churn_rng, spec.churn, spec.horizon_s)
            plans.append(
                DevicePlan(
                    name=name,
                    class_name=device_class.name,
                    distance_m=distance,
                    timeline=timeline,
                )
            )
    return tuple(plans)


def _lp_upper_bound(
    spec: DeploymentSpec, plans: "tuple[DevicePlan, ...]", link_map: LinkMap
) -> float:
    """Fleet-LP bits for this hub (analytic upper bound, Eq 1 form)."""
    from ..hardware.devices import device
    from ..net.hub import ClientPlacement, HubNetwork

    placements = [
        ClientPlacement(
            name=plan.name,
            spec=device(spec.device_class(plan.class_name).device),
            distance_m=plan.distance_m,
        )
        for plan in plans
    ]
    network = HubNetwork(spec.hub_device, placements, link_map=link_map)
    return network.plan(objective="total").total_bits


@dataclass
class _HubRuntime:
    """One hub's live simulation objects, kernel-agnostic, plus the
    counters its measured window starts from."""

    local_index: int
    global_index: int
    plans: "tuple[DevicePlan, ...]"
    clients: "list[HubClient]"
    session: HubSession
    drivers: "list[MobilityDriver]"
    interfered: bool
    neighbor_count: int
    #: Twin clients neighbor hubs adopted for this hub's devices; their
    #: air energy counts here, at the device's home hub.
    twins: "list[HubClient]" = field(default_factory=list)
    window_start: "tuple[int, int, int, float, list[float]] | None" = None

    def open_window(self) -> None:
        """Snapshot the counters at the start of the measured window."""
        metrics = self.session.hub_metrics
        self.window_start = (
            metrics.bits_delivered,
            metrics.packets_delivered,
            metrics.packets_attempted,
            metrics.energy_b_j,
            [client.metrics.energy_a_j for client in self.clients + self.twins],
        )

    def report(
        self,
        spec: DeploymentSpec,
        region: Region,
        link_map: LinkMap,
        resilience: "dict[str, object] | None",
    ) -> "dict[str, object]":
        """The hub's measured-window report (resilience keys only when
        armed)."""
        session = self.session
        metrics = session.hub_metrics
        bits0, delivered0, attempted0, hub_j0, client_j0 = self.window_start  # type: ignore[misc]
        bits = metrics.bits_delivered - bits0
        delivered = metrics.packets_delivered - delivered0
        attempted = metrics.packets_attempted - attempted0
        # Twins adopted after the window opened start it at zero.
        client_energy = 0.0
        for client, start_j in itertools.zip_longest(
            self.clients + self.twins, client_j0, fillvalue=0.0
        ):
            client_energy += client.metrics.energy_a_j - start_j  # type: ignore[union-attr]
        report: "dict[str, object]" = {
            "hub": self.global_index,
            "region": region.index,
            "channel": region.channels[self.local_index],
            "devices": len(self.plans),
            "co_channel_neighbors": self.neighbor_count,
            "interfered": self.interfered,
            "bits_delivered": int(bits),
            "packets_delivered": int(delivered),
            "packets_attempted": int(attempted),
            "delivery_ratio": (delivered / attempted) if attempted else 1.0,
            "goodput_bps": bits / spec.duration_s,
            "client_energy_j": client_energy,
            "hub_energy_j": metrics.energy_b_j - hub_j0,
            "suspensions": session.churn_suspensions,
            "resumes": session.churn_resumes,
            "suspended_s": session.suspended_time_s,
            "terminated_by": metrics.terminated_by,
        }
        if resilience is not None:
            report["fault_events"] = metrics.fault_events
            report["reboots"] = metrics.reboots
            report.update(resilience)
        if spec.lp_plan:
            report["lp_bits"] = _lp_upper_bound(spec, self.plans, link_map)
        return report


def _build_hub(
    spec: DeploymentSpec,
    region: Region,
    local_index: int,
    link_map: LinkMap,
    sim: Simulator,
) -> _HubRuntime:
    """Instantiate one hub's session, clients, mobility and churn on
    ``sim``.

    Every random stream is content-addressed from the scenario
    fingerprint (placement, churn, links, mobility), so the build is
    independent of which kernel hosts it.  Churn is compiled into
    kernel events here — BEFORE the session starts — so a t=0
    late-join suspend lands before the first served packet.
    """
    global_index = region.hub_indices[local_index]
    plans = plan_hub_devices(spec, global_index)

    neighbor_distances = region.neighbor_distances_m(local_index)
    interferer = None
    if neighbor_distances:
        penalty_db = neighbor_penalty_db(spec, neighbor_distances)
        if penalty_db > 0.0:
            interferer = BurstyInterferer(
                spec.stream(f"hub{global_index}:interference"),
                mean_on_s=NEIGHBOR_BURST_ON_S,
                mean_off_s=NEIGHBOR_BURST_OFF_S / len(neighbor_distances),
                snr_penalty_db=penalty_db,
                horizon_s=spec.horizon_s,
            )

    hub_radio = BraidioRadio.for_device(spec.hub_device)
    clients: "list[HubClient]" = []
    weights: "dict[str, float]" = {}
    drivers: "list[MobilityDriver]" = []
    for plan in plans:
        device_class = spec.device_class(plan.class_name)
        radio = BraidioRadio.for_device(device_class.device)
        link_rng = spec.stream(f"hub{global_index}:link:{plan.name}")
        if interferer is not None:
            link: SimulatedLink = InterferedLink(
                link_map, plan.distance_m, link_rng, interferer
            )
        else:
            link = SimulatedLink(link_map, plan.distance_m, link_rng)
        policy = BraidioPolicy()
        client = HubClient(name=plan.name, radio=radio, link=link, policy=policy)
        clients.append(client)
        weights[plan.name] = device_class.tdma_weight
        if device_class.mobility == "waypoint":
            model = RandomWaypoint1D(
                spec.stream(f"hub{global_index}:mobility:{plan.name}"),
                start_m=plan.distance_m,
                min_m=device_class.min_distance_m,
                max_m=device_class.max_distance_m,
                horizon_s=spec.horizon_s,
            )
            drivers.append(
                MobilityDriver(
                    sim, link, [policy], model, update_interval_s=MOBILITY_TICK_S
                )
            )

    tdma = TdmaSchedule(weights, round_packets=max(128, 2 * len(clients)))
    session = HubSession(
        sim,
        hub_radio,
        clients,
        tdma,
        payload_bytes=spec.payload_bytes,
        max_time_s=spec.horizon_s,
    )

    for plan in plans:
        for when, kind in plan.timeline:
            action = (
                session.suspend_client if kind == "suspend" else session.resume_client
            )
            sim.schedule_at(when, functools.partial(action, plan.name))

    return _HubRuntime(
        local_index=local_index,
        global_index=global_index,
        plans=plans,
        clients=clients,
        session=session,
        drivers=drivers,
        interfered=interferer is not None,
        neighbor_count=len(neighbor_distances),
    )


def _run_hubs(
    spec: DeploymentSpec,
    region: Region,
    local_indices: "Sequence[int]",
    link_map: LinkMap,
    fault_plan: "RegionFaultPlan | None" = None,
) -> "tuple[list[dict[str, object]], dict[str, object] | None]":
    """Simulate some of a region's hubs on one kernel; returns their
    reports and, when armed, the region's resilience block.

    A non-empty ``fault_plan`` attaches the handoff coordinator and the
    fault driver; ``local_indices`` must then cover the whole region.
    """
    if len(local_indices) == 1:
        kernel = f"hub{region.hub_indices[local_indices[0]]}:kernel"
    else:
        kernel = f"region{region.index}:kernel"
    sim = Simulator(seed=int(spec.stream(kernel).integers(2**31)))
    runtimes = [_build_hub(spec, region, i, link_map, sim) for i in local_indices]
    coordinator = driver = None
    if fault_plan is not None and not fault_plan.is_empty:
        from ..faults.deploy import RegionFaultDriver
        from ..faults.seeding import region_fault_rng

        handoff_rng = region_fault_rng(
            spec.fingerprint(), fault_plan, f"region{region.index}:handoff", spec.seed
        )
        coordinator = HandoffCoordinator(
            spec, region, sim, runtimes, link_map, handoff_rng
        )
        driver = RegionFaultDriver(spec, region, fault_plan, coordinator)
        driver.arm()

    def open_windows() -> None:
        for runtime in runtimes:
            runtime.open_window()

    sim.schedule_at(spec.warmup_s, open_windows)
    for runtime in runtimes:
        for mobility in runtime.drivers:
            mobility.start()
    for runtime in runtimes:
        runtime.session.start()
    sim.run(until_s=spec.horizon_s)
    for runtime in runtimes:
        runtime.session.finish("time")

    if coordinator is None:
        return [rt.report(spec, region, link_map, None) for rt in runtimes], None
    summary = coordinator.summarize()
    hubs = [
        rt.report(spec, region, link_map, summary["per_hub"][rt.local_index])  # type: ignore[index]
        for rt in runtimes
    ]
    block = dict(summary["region"])  # type: ignore[call-overload]
    block["fault_events"] = driver.fault_events  # type: ignore[union-attr]
    return hubs, block


def simulate_hub(
    spec: DeploymentSpec,
    region: Region,
    local_index: int,
    link_map: "LinkMap | None" = None,
) -> "dict[str, object]":
    """Run one hub on its own kernel and report its measured window
    ``[warmup_s, horizon_s]`` (the warmup is simulated but excluded)."""
    hubs, _ = _run_hubs(spec, region, [local_index], link_map or LinkMap())
    return hubs[0]


def simulate_region(
    spec: DeploymentSpec,
    region: Region,
    fault_plan: "RegionFaultPlan | None" = None,
) -> "dict[str, object]":
    """Simulate every hub of one region; returns the region report.

    The hubs share one :class:`~repro.core.regimes.LinkMap` (its
    availability cache is the hot path).  Unarmed — no plan, or an
    empty one — each hub runs on its own kernel (:func:`simulate_hub`).
    A non-empty plan puts every hub on one kernel, so a dark hub can
    hand its devices to a live neighbor mid-run, and adds a
    ``resilience`` block.
    """
    link_map = LinkMap()
    if fault_plan is None or fault_plan.is_empty:
        hubs = [
            simulate_hub(spec, region, local_index, link_map=link_map)
            for local_index in range(region.hub_count)
        ]
        return _region_report(spec, region, hubs)
    hubs, block = _run_hubs(
        spec, region, range(region.hub_count), link_map, fault_plan
    )
    return {**_region_report(spec, region, hubs), "resilience": block}


def _region_report(
    spec: DeploymentSpec, region: Region, hubs: "list[dict[str, object]]"
) -> "dict[str, object]":
    """Fold per-hub reports into the region report."""
    report: "dict[str, object]" = {
        "region": region.index,
        "hubs": hubs,
        "hub_count": region.hub_count,
    }
    for key in (
        "devices", "bits_delivered", "packets_delivered", "packets_attempted",
        "client_energy_j", "hub_energy_j", "suspensions", "resumes",
    ):
        total = sum(h[key] for h in hubs)  # type: ignore[misc]
        report[key] = float(total) if key.endswith("_j") else int(total)
    report["interfered_hubs"] = int(sum(1 for h in hubs if h["interfered"]))
    if spec.lp_plan:
        report["lp_bits"] = float(sum(h["lp_bits"] for h in hubs))  # type: ignore[misc]
    return report


# -- hub-to-hub handoff (fault-armed regions) ----------------------------


@dataclass(frozen=True)
class _DeviceHome:
    """One device's failover identity: where it lives, what it weighs,
    and which neighbor hubs could plausibly adopt it."""

    name: str
    home_local: int
    tdma_weight: float
    radio: BraidioRadio
    #: (distance_m, local_index) per candidate hub, nearest first.
    neighbor_order: "tuple[tuple[float, int], ...]"


class _BrownoutGate:
    """Per-session hook blocking carrier-dependent modes while the
    hub's carrier is browned out (duck-types the
    :class:`~repro.faults.injector.FaultInjector` interface the serve
    loop consults AFTER the link draw, so the link RNG order is
    untouched)."""

    __slots__ = ("_depth",)

    def __init__(self) -> None:
        self._depth = 0

    def begin(self) -> None:
        self._depth += 1

    def end(self) -> None:
        self._depth -= 1

    def client_blocked(self, name: str, mode: LinkMode) -> bool:
        return self._depth > 0 and mode is not LinkMode.ACTIVE


class HandoffCoordinator:
    """Executes hub-to-hub failover for one region under fault pressure.

    When a hub goes dark (:meth:`hub_down`), every device it was
    actively serving becomes an *orphan* and retries association with
    the nearest live neighbor hub under deterministic exponential
    backoff; a viable neighbor (the link budget must close at the
    device-to-hub distance — at city hub spacings only the active
    radio reaches, which is exactly Braidio's asymmetric-energy story)
    adopts a *twin* client sharing the device's battery.  The rebooting
    hub (:meth:`hub_up`) reclaims its flock: twins are released and the
    home session re-plans.  Orphan time, handoff counts/latency and
    dark-hub time accrue for the degradation metrics.

    Energy attribution follows the device: each twin is recorded on its
    home hub's runtime, whose report meters the twin's air energy
    (switch costs and fault drains excluded, like every client); the
    adoptive hub meters its own receive side and counts the twin's bits.

    Determinism: backoff jitter draws from a content-addressed region
    fault stream consumed in DES order, and each twin link draws from
    its own scenario stream (``hub<g>:handoff:<name>:<n>``) — never
    from worker or wall-clock state.
    """

    #: Re-association attempts before a device waits for its home hub.
    MAX_ATTEMPTS = 3
    #: Base re-admission backoff (doubles per attempt).
    BACKOFF_BASE_S = 0.05
    #: Jitter span added to each backoff (de-synchronizes the flock).
    JITTER_S = 0.02

    def __init__(
        self,
        spec: DeploymentSpec,
        region: Region,
        sim: Simulator,
        runtimes: "list[_HubRuntime]",
        link_map: LinkMap,
        rng,
    ) -> None:
        self._spec = spec
        self._region = region
        self._sim = sim
        self._runtimes = runtimes
        self._link_map = link_map
        self._rng = rng
        self._gates = [_BrownoutGate() for _ in runtimes]
        for runtime, gate in zip(runtimes, self._gates):
            runtime.session.attach_injector(gate)
        self._devices: "dict[str, _DeviceHome]" = {}
        positions = region.positions_m
        for runtime in runtimes:
            hx, hy = positions[runtime.local_index]
            for plan, client in zip(runtime.plans, runtime.clients):
                angle = spec.stream(f"hub{runtime.global_index}:angle:{plan.name}")
                theta = float(angle.uniform(0.0, 2.0 * math.pi))
                x = hx + plan.distance_m * math.cos(theta)
                y = hy + plan.distance_m * math.sin(theta)
                others = [o.local_index for o in runtimes if o is not runtime]
                order = tuple(sorted(
                    (quantize_distance(math.hypot(x - positions[o][0], y - positions[o][1])), o)
                    for o in others
                ))
                self._devices[plan.name] = _DeviceHome(
                    name=plan.name,
                    home_local=runtime.local_index,
                    tdma_weight=spec.device_class(plan.class_name).tdma_weight,
                    radio=client.radio,
                    neighbor_order=order,
                )
        # Failover state.
        self._adopted_at: "dict[str, int]" = {}
        self._adoption_counts: "dict[str, int]" = {}
        self._orphan_since: "dict[str, float]" = {}
        self._orphan_windows: "list[tuple[int, float, float]]" = []
        self._down_since: "dict[int, float]" = {}
        self._down_windows: "list[tuple[int, float, float]]" = []
        self._surges: "list[tuple[float, int | None]]" = []
        # Aggregate counters.
        self.handoffs = 0
        self.failed_handoffs = 0
        self.reclaims = 0
        self._latency_total_s = 0.0
        self._handoffs_out = {rt.local_index: 0 for rt in runtimes}
        self._handoffs_in = {rt.local_index: 0 for rt in runtimes}
        self._failed_by_home = {rt.local_index: 0 for rt in runtimes}

    # -- driver-facing surface -------------------------------------------

    @property
    def simulator(self) -> Simulator:
        """The region's shared event kernel."""
        return self._sim

    def runtime(self, local_index: int) -> _HubRuntime:
        """One hub's live objects, by local index."""
        return self._runtimes[local_index]

    def local_index_of(self, global_hub: int) -> int:
        """Map a global hub index into this region.

        Raises:
            ValueError: for hubs outside the region.
        """
        return self._region.hub_indices.index(global_hub)

    def hub_down(self, local_index: int) -> None:
        """Blackout onset: power the hub down and orphan its flock."""
        runtime = self._runtimes[local_index]
        session = runtime.session
        if session.finished or session.powered_down:
            return
        now = self._sim.now_s
        # Devices this hub had adopted from an earlier blackout are
        # orphaned anew (cascading failures).
        for name, host in list(self._adopted_at.items()):
            if host == local_index:
                session.release_client(name)
                del self._adopted_at[name]
                self._begin_orphan(name, now)
        session.power_down()
        self._down_since[local_index] = now
        asleep_or_dead = session.suspended_clients | session.exhausted_clients
        for client in runtime.clients:
            name = client.name
            if name in asleep_or_dead or name in self._adopted_at or name in self._orphan_since:
                continue
            self._begin_orphan(name, now)

    def hub_up(self, local_index: int) -> None:
        """Blackout end: the hub reboots and reclaims its flock."""
        runtime = self._runtimes[local_index]
        session = runtime.session
        now = self._sim.now_s
        for name, host in list(self._adopted_at.items()):
            if self._devices[name].home_local == local_index:
                self._runtimes[host].session.release_client(name)
                del self._adopted_at[name]
                self.reclaims += 1
        for name in list(self._orphan_since):
            if self._devices[name].home_local == local_index:
                self._end_orphan(name, now)
        session.power_up()
        started = self._down_since.pop(local_index, None)
        if started is not None:
            self._down_windows.append((local_index, started, now))

    def begin_brownout(self, local_index: int) -> None:
        """Carrier brownout onset: envelope-detector modes fail on this
        hub (its adopted twins included — they ride the same carrier)."""
        self._gates[local_index].begin()

    def end_brownout(self, local_index: int) -> None:
        """Carrier brownout cleared."""
        self._gates[local_index].end()

    def begin_surge(self, magnitude_db: float, local_index: "int | None" = None) -> None:
        """Noise-floor surge onset: every in-scope link (twins included)
        loses ``magnitude_db`` of SNR; twins adopted mid-surge inherit
        the active offset."""
        self._surges.append((magnitude_db, local_index))
        for link in self._scoped_links(local_index):
            link.snr_offset_db = link.snr_offset_db - magnitude_db

    def end_surge(self, magnitude_db: float, local_index: "int | None" = None) -> None:
        """Noise-floor surge cleared."""
        self._surges.remove((magnitude_db, local_index))
        for link in self._scoped_links(local_index):
            link.snr_offset_db = link.snr_offset_db + magnitude_db

    def storm_suspend(self, name: str) -> None:
        """Flash-churn: the device flaps off the air wherever it is
        currently served.  An orphan that flaps stops accruing orphan
        time (an asleep device demands no coverage)."""
        now = self._sim.now_s
        if name in self._orphan_since:
            self._end_orphan(name, now)
        self._session_serving(name).suspend_client(name)

    def storm_resume(self, name: str) -> None:
        """Flash-churn nap over: wake the device wherever it sleeps; if
        its home hub is still dark and nobody adopted it, it re-enters
        the orphan pool."""
        session = self._session_serving(name)
        if name not in session.suspended_clients:
            for runtime in self._runtimes:
                if name in runtime.session.suspended_clients:
                    session = runtime.session
                    break
        if name in session.suspended_clients:
            session.resume_client(name)
        home = self._runtimes[self._devices[name].home_local].session
        if (
            home.powered_down
            and name not in self._adopted_at
            and name not in self._orphan_since
            and name not in home.suspended_clients
        ):
            self._begin_orphan(name, self._sim.now_s)

    # -- handoff state machine -------------------------------------------

    def _session_serving(self, name: str) -> HubSession:
        host = self._adopted_at.get(name, self._devices[name].home_local)
        return self._runtimes[host].session

    def _scoped_links(self, local_index: "int | None") -> "list[SimulatedLink]":
        links: "list[SimulatedLink]" = []
        for runtime in self._runtimes:
            if local_index is not None and runtime.local_index != local_index:
                continue
            links.extend(client.link for client in runtime.clients)
            for name, host in self._adopted_at.items():
                if host == runtime.local_index:
                    links.append(runtime.session.client(name).link)
        return links

    def _surge_db_for(self, local_index: int) -> float:
        return sum(db for db, scope in self._surges if scope is None or scope == local_index)

    def _begin_orphan(self, name: str, now: float) -> None:
        self._orphan_since[name] = now
        self._schedule_attempt(name, 0)

    def _end_orphan(self, name: str, now: float) -> float:
        """Close the device's orphan window; returns when it opened."""
        started = self._orphan_since.pop(name)
        self._orphan_windows.append((self._devices[name].home_local, started, now))
        return started

    def _schedule_attempt(self, name: str, attempt: int) -> None:
        jitter = float(self._rng.random()) * self.JITTER_S
        delay = self.BACKOFF_BASE_S * (2 ** attempt) + jitter
        self._sim.schedule_in(
            delay, functools.partial(self._attempt_handoff, name, attempt)
        )

    def _attempt_handoff(self, name: str, attempt: int) -> None:
        if name not in self._orphan_since:
            return  # adopted, reclaimed or napping meanwhile
        record = self._devices[name]
        home = self._runtimes[record.home_local].session
        if not home.powered_down:
            return  # home is back; reclaim already settled the orphan
        if name in home.suspended_clients:
            return  # asleep through the blackout: it never notices
        for distance_m, local_index in record.neighbor_order:
            host = self._runtimes[local_index].session
            if host.powered_down or host.finished:
                continue
            if not self._link_map.available_powers(distance_m):
                continue
            self._adopt(name, record, local_index, distance_m)
            return
        self.failed_handoffs += 1
        self._failed_by_home[record.home_local] += 1
        if attempt + 1 < self.MAX_ATTEMPTS:
            self._schedule_attempt(name, attempt + 1)

    def _adopt(
        self, name: str, record: _DeviceHome, local_index: int, distance_m: float
    ) -> None:
        count = self._adoption_counts.get(name, 0)
        self._adoption_counts[name] = count + 1
        home = self._region.hub_indices[record.home_local]
        link = SimulatedLink(
            self._link_map, distance_m, self._spec.stream(f"hub{home}:handoff:{name}:{count}")
        )
        surge_db = self._surge_db_for(local_index)
        if surge_db:
            link.snr_offset_db = -surge_db
        twin = HubClient(
            name=name, radio=record.radio, link=link, policy=BraidioPolicy()
        )
        host = self._runtimes[local_index].session
        host.adopt_client(twin, weight=record.tdma_weight)
        self._runtimes[record.home_local].twins.append(twin)
        self._adopted_at[name] = local_index
        now = self._sim.now_s
        self._latency_total_s += now - self._end_orphan(name, now)
        self.handoffs += 1
        self._handoffs_out[record.home_local] += 1
        self._handoffs_in[local_index] += 1

    # -- degradation metrics ---------------------------------------------

    def summarize(self) -> "dict[str, object]":
        """Clipped degradation metrics for the measured window.

        Orphan and dark-hub intervals are clipped to
        ``[warmup_s, horizon_s]``; windows still open at the horizon
        (a hub that never rebooted) are closed there.
        """
        warmup = self._spec.warmup_s
        horizon = self._spec.horizon_s
        duration = self._spec.duration_s

        def clipped(start: float, end: float) -> float:
            return max(0.0, min(end, horizon) - max(start, warmup))

        orphan_windows = list(self._orphan_windows) + [
            (self._devices[name].home_local, started, horizon)
            for name, started in self._orphan_since.items()
        ]
        down_windows = list(self._down_windows) + [
            (local, started, horizon)
            for local, started in self._down_since.items()
        ]
        per_hub: "dict[int, dict[str, object]]" = {}
        for runtime in self._runtimes:
            local = runtime.local_index
            orphan_s = sum(
                clipped(start, end)
                for home, start, end in orphan_windows
                if home == local
            )
            dark_s = sum(
                clipped(start, end)
                for where, start, end in down_windows
                if where == local
            )
            devices = len(runtime.plans)
            per_hub[local] = {
                "orphaned_device_s": orphan_s,
                "dark_s": dark_s,
                "handoffs_out": self._handoffs_out[local],
                "handoffs_in": self._handoffs_in[local],
                "failed_handoffs": self._failed_by_home[local],
                "coverage_ratio": 1.0 - orphan_s / (devices * duration),
            }
        total_orphan = float(
            sum(hub["orphaned_device_s"] for hub in per_hub.values())  # type: ignore[misc]
        )
        total_devices = sum(len(rt.plans) for rt in self._runtimes)
        region = {
            "coverage_ratio": 1.0 - total_orphan / (total_devices * duration),
            "orphaned_device_s": total_orphan,
            "dark_hub_s": float(
                sum(hub["dark_s"] for hub in per_hub.values())  # type: ignore[misc]
            ),
            "handoffs": self.handoffs,
            "failed_handoffs": self.failed_handoffs,
            "reclaims": self.reclaims,
            "handoff_latency_mean_s": (
                self._latency_total_s / self.handoffs if self.handoffs else 0.0
            ),
        }
        return {"per_hub": per_hub, "region": region}
