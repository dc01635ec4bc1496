"""TDMA air-time sharing for a hub serving multiple Braidio clients.

A single hub (phone/laptop) owns one radio, so concurrent clients share
air time in slots.  Slots are weighted: a camera streaming at 30 fps gets
more slots than a pulse-rate sensor.  The schedule is periodic and
deterministic, like the mode schedule, and composes with it — within its
slot a client pair runs its own mode mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class Slot:
    """One TDMA slot: a client identifier and a dwell in packets."""

    client: str
    packets: int

    def __post_init__(self) -> None:
        if self.packets <= 0:
            raise ValueError("slots must cover at least one packet")


class TdmaSchedule:
    """Weighted round-robin slot schedule.

    Args:
        weights: client -> relative air-time share (positive).
        round_packets: packets per TDMA round.

    Raises:
        ValueError: on empty/negative weights, a client named twice in a
            weight sequence, or a round too short to give every client a
            slot.
    """

    def __init__(
        self,
        weights: Mapping[str, float] | Sequence[tuple[str, float]],
        round_packets: int = 128,
    ) -> None:
        if isinstance(weights, Mapping):
            self._weights = dict(weights)
            values = list(self._weights.values())
        else:
            pairs = list(weights)
            self._weights = dict(pairs)
            if len(self._weights) != len(pairs):
                names = [name for name, _ in pairs]
                repeated = next(n for i, n in enumerate(names) if n in names[:i])
                raise ValueError(f"client {repeated!r} appears more than once")
            values = [w for _, w in pairs]
        if not values:
            raise ValueError("at least one client required")
        if min(values) <= 0.0:
            raise ValueError("weights must be positive")
        if round_packets < len(values):
            raise ValueError("round too short to serve every client")

        total = sum(values)
        self._round = round_packets
        self._counts = self._build_counts(total)
        # Per-position client table: client_for_packet is one index.
        table: list[str] = []
        for name, count in zip(self._weights, self._counts):
            table += [name] * count
        self._table = table

    def _build_counts(self, total: float) -> list[int]:
        # Largest-remainder with a guaranteed slot per client: unlike mode
        # fractions, starving a client entirely is a fairness failure, so
        # every client gets at least one packet per round.  Ties break
        # toward the earlier client (first maximum, stable sort).
        quotas = [w / total * self._round for w in self._weights.values()]
        counts = [int(q) or 1 for q in quotas]
        for _ in range(sum(counts) - self._round):
            counts[counts.index(max(counts))] -= 1
        leftover = self._round - sum(counts)
        if leftover:
            remainders = [q - c for q, c in zip(quotas, counts)]
            by_remainder = sorted(
                range(len(counts)), key=remainders.__getitem__, reverse=True
            )
            for i in by_remainder[:leftover]:
                counts[i] += 1
        return counts

    @property
    def round_packets(self) -> int:
        """Packets per TDMA round."""
        return self._round

    @property
    def weights(self) -> dict[str, float]:
        """The raw (un-normalized) weights the schedule was built from."""
        return dict(self._weights)

    def without(self, names: Iterable[str]) -> "TdmaSchedule":
        """A new schedule with ``names`` removed and their air time
        redistributed to the survivors by weight (same round length) —
        how a hub reclaims the slots of a client that went dark.

        Raises:
            ValueError: if nothing would remain.
        """
        dropped = set(names)
        remaining = {c: w for c, w in self._weights.items() if c not in dropped}
        if not remaining:
            raise ValueError("cannot drop every client from the schedule")
        return TdmaSchedule(remaining, self._round)

    def with_client(self, name: str, weight: float) -> "TdmaSchedule":
        """A new schedule admitting ``name`` at ``weight``, the existing
        clients' air time shrinking proportionally (same round length) —
        how a hub grants slots to a device it adopts from a dark
        neighbor during hub-to-hub handoff.

        Raises:
            ValueError: for duplicate names or non-positive weights.
        """
        if name in self._weights:
            raise ValueError(f"client {name!r} is already scheduled")
        if weight <= 0.0:
            raise ValueError("weights must be positive")
        merged = dict(self._weights)
        merged[name] = weight
        return TdmaSchedule(merged, max(self._round, len(merged)))

    @property
    def slots(self) -> tuple[Slot, ...]:
        """Per-round slots."""
        return tuple(Slot(name, count) for name, count in zip(self._weights, self._counts))

    def air_time_shares(self) -> dict[str, float]:
        """Realized per-round share per client."""
        return {
            name: count / self._round for name, count in zip(self._weights, self._counts)
        }

    def client_for_packet(self, index: int) -> str:
        """Client served by the ``index``-th packet.

        Raises:
            ValueError: for negative indices.
        """
        if index < 0:
            raise ValueError("packet index must be non-negative")
        return self._table[index % self._round]

    def packet_clients(self) -> Iterator[str]:
        """Infinite per-packet client iterator."""
        while True:
            yield from self._table


def assign_reuse_channels(
    n_nodes: int,
    adjacency: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    n_channels: int,
) -> tuple[int, ...]:
    """Frequency/slot reuse for co-located hubs: greedy graph coloring.

    Nodes are hubs; an edge means the two hubs interfere.  Each node gets
    the smallest channel index unused by its already-colored neighbors.
    When every channel is taken, the node shares the channel *least used*
    among its neighbors (ties break toward the lowest index) — those
    residual co-channel edges are the interference the region simulator
    must model; orthogonal-channel neighbors do not interfere.

    Deterministic: nodes are colored in index order, so the same graph
    always yields the same plan.

    Raises:
        ValueError: on non-positive node/channel counts or out-of-range
            neighbor indices.
    """
    if n_nodes <= 0:
        raise ValueError("need at least one node")
    if n_channels <= 0:
        raise ValueError("need at least one channel")
    neighbor_sets: list[set[int]] = [set() for _ in range(n_nodes)]
    items = (
        adjacency.items()
        if isinstance(adjacency, Mapping)
        else enumerate(adjacency)
    )
    for node, neighbors in items:
        for other in neighbors:
            if not 0 <= node < n_nodes or not 0 <= other < n_nodes:
                raise ValueError(
                    f"edge ({node}, {other}) out of range for {n_nodes} nodes"
                )
            if other == node:
                continue
            neighbor_sets[node].add(other)
            neighbor_sets[other].add(node)
    channels: list[int] = [-1] * n_nodes
    for node in range(n_nodes):
        used = {channels[n] for n in neighbor_sets[node] if channels[n] >= 0}
        free = [c for c in range(n_channels) if c not in used]
        if free:
            channels[node] = free[0]
        else:
            counts = [0] * n_channels
            for neighbor in neighbor_sets[node]:
                if channels[neighbor] >= 0:
                    counts[channels[neighbor]] += 1
            channels[node] = counts.index(min(counts))
    return tuple(channels)


def co_channel_edges(
    adjacency: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    channels: Sequence[int],
) -> frozenset[tuple[int, int]]:
    """Interference edges that survive channel reuse (both ends on the
    same channel), as (low, high) index pairs."""
    edges: set[tuple[int, int]] = set()
    items = (
        adjacency.items()
        if isinstance(adjacency, Mapping)
        else enumerate(adjacency)
    )
    for node, neighbors in items:
        for other in neighbors:
            if other != node and channels[node] == channels[other]:
                edges.add((min(node, other), max(node, other)))
    return frozenset(edges)
