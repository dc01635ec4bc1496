"""Differential check of :class:`TdmaSchedule` against a reference copy of
the original slot algorithm (dict quotas, lambda-keyed max and sort,
a linear slot walk per packet lookup).

The schedule decides which client every hub packet goes to, so any
drift in counts, tie-breaks or slot order would change deployment
outputs.  Hypothesis drives weights with ties and equal values, round
lengths near the client count, drop sets and admissions.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Slot, TdmaSchedule


def reference_slots(weights, round_packets):
    """The original ``_build_slots``: (client, packets) per slot."""
    items = list(weights.items()) if isinstance(weights, dict) else list(weights)
    total = sum(w for _, w in items)
    shares = {client: w / total for client, w in items}
    quotas = {c: share * round_packets for c, share in shares.items()}
    counts = {c: max(1, int(q)) for c, q in quotas.items()}
    while sum(counts.values()) > round_packets:
        richest = max(counts, key=lambda c: counts[c])
        counts[richest] -= 1
    leftover = round_packets - sum(counts.values())
    by_remainder = sorted(quotas, key=lambda c: quotas[c] - counts[c], reverse=True)
    for client in by_remainder[:leftover]:
        counts[client] += 1
    return [(client, count) for client, count in counts.items()]


def reference_client_for_packet(slots, round_packets, index):
    """The original linear slot walk."""
    position = index % round_packets
    for client, packets in slots:
        if position < packets:
            return client
        position -= packets
    raise AssertionError("unreachable")


def assert_matches_reference(schedule, weights, round_packets):
    slots = reference_slots(weights, round_packets)
    assert schedule.round_packets == round_packets
    assert schedule.slots == tuple(Slot(c, n) for c, n in slots)
    assert schedule.air_time_shares() == {c: n / round_packets for c, n in slots}
    for index in range(2 * round_packets):
        assert schedule.client_for_packet(index) == reference_client_for_packet(
            slots, round_packets, index
        )
    prefix = list(itertools.islice(schedule.packet_clients(), 2 * round_packets))
    assert prefix == [
        reference_client_for_packet(slots, round_packets, i)
        for i in range(2 * round_packets)
    ]


# Few distinct values so ties (equal weights, equal remainders, equal
# counts in the shrink loop) come up constantly.
_weight = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 7.5]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    weights = {f"c{i}": draw(_weight) for i in range(n)}
    round_packets = draw(st.integers(min_value=n, max_value=max(n, 3 * n + 40)))
    return weights, round_packets


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_construction_matches_reference(case):
    weights, round_packets = case
    assert_matches_reference(TdmaSchedule(weights, round_packets), weights, round_packets)


@settings(max_examples=200, deadline=None)
@given(schedules(), st.data())
def test_without_matches_reference(case, data):
    weights, round_packets = case
    names = list(weights)
    dropped = data.draw(
        st.sets(st.sampled_from(names), max_size=len(names) - 1) if len(names) > 1
        else st.just(set())
    )
    schedule = TdmaSchedule(weights, round_packets).without(dropped)
    remaining = {c: w for c, w in weights.items() if c not in dropped}
    assert_matches_reference(schedule, remaining, round_packets)


@settings(max_examples=200, deadline=None)
@given(schedules(), _weight, st.integers(min_value=0, max_value=3))
def test_with_client_matches_reference(case, weight, extra):
    weights, _ = case
    # Rounds at or just below the client count exercise the growth rule.
    round_packets = len(weights) + extra
    schedule = TdmaSchedule(weights, round_packets).with_client("new", weight)
    merged = {**weights, "new": weight}
    assert_matches_reference(schedule, merged, max(round_packets, len(merged)))


def test_sequence_weights_keep_their_order():
    pairs = [("z", 1.0), ("a", 2.0), ("m", 2.0), ("b", 0.5)]
    assert_matches_reference(TdmaSchedule(pairs, 16), pairs, 16)
