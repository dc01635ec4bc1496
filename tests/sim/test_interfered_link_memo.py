"""The interfered link's burst-state memo against an uncached reference.

:class:`InterferedLink` memoizes the packet error rate per (mode,
bitrate, packet size, burst on/off) at the current distance and SNR
offset.  Every PER it hands out must equal the one derived straight
from the link budget, ``bit_error_rate`` and the burst penalty — on
both sides of every burst edge, after moves and SNR-offset changes,
and under fading (which bypasses the memo) — and the packet draws must
be the reference's draws exactly.
"""

import numpy as np
import pytest

from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap
from repro.phy.fading import BlockFadingProcess, RayleighFading
from repro.phy.modulation import bit_error_rate, packet_error_rate
from repro.sim.interference import BurstyInterferer, InterferedLink

LINK_MAP = LinkMap()
SHAPES = [
    (LinkMode.BACKSCATTER, 1_000_000, 328),
    (LinkMode.BACKSCATTER, 1_000_000, 88),
    (LinkMode.PASSIVE, 100_000, 328),
    (LinkMode.ACTIVE, 1_000_000, 328),
]


def _interferer(seed=1):
    return BurstyInterferer(
        np.random.default_rng(seed), mean_on_s=0.05, mean_off_s=0.1,
        snr_penalty_db=12.0, horizon_s=5.0,
    )


def reference_per(link, mode, bitrate, bits, time_s, fading=None):
    """PER straight from the budget chain, in the link's float order."""
    budget = LINK_MAP.budget(mode, bitrate)
    snr = budget.snr_db(link.distance_m, bitrate)
    if fading is not None:
        snr += fading.gain_db_at(time_s)
    if link.snr_offset_db != 0.0:
        snr += link.snr_offset_db
    if mode is not LinkMode.ACTIVE:
        snr -= link.interferer.snr_penalty_at(time_s)
    return packet_error_rate(bit_error_rate(budget.modulation, snr), bits)


def edge_times(interferer, count=6):
    """Times just before, at and just after the first burst edges."""
    edges = [e for e in interferer._edges[1:] if e < 5.0][:count]
    return sorted(t for e in edges for t in (np.nextafter(e, 0.0), e, e + 1e-9))


class _CountingBer:
    """Counts calls of the link's ``ber`` (memo misses)."""

    def __init__(self, link):
        self.calls = 0
        self._ber = link.ber

    def __call__(self, *args):
        self.calls += 1
        return self._ber(*args)


class TestMemoMatchesReference:
    def test_per_across_burst_edges(self):
        link = InterferedLink(LINK_MAP, 0.9, np.random.default_rng(0), _interferer())
        times = edge_times(link.interferer)
        states = {link.interferer.is_active(t) for t in times}
        assert states == {True, False}
        for t in times:
            for shape in SHAPES:
                assert link.expected_packet_success(*shape, t) == 1.0 - reference_per(
                    link, *shape, t
                )

    def test_burst_changes_the_per(self):
        link = InterferedLink(LINK_MAP, 0.9, np.random.default_rng(0), _interferer())
        times = edge_times(link.interferer)
        quiet = next(t for t in times if not link.interferer.is_active(t))
        loud = next(t for t in times if link.interferer.is_active(t))
        shape = SHAPES[0]
        assert link.expected_packet_success(*shape, loud) < link.expected_packet_success(
            *shape, quiet
        )
        active = SHAPES[-1]
        assert link.expected_packet_success(*active, loud) == link.expected_packet_success(
            *active, quiet
        )

    @pytest.mark.parametrize("distance", [0.4, 1.2, 2.5])
    def test_set_distance_invalidates(self, distance):
        link = InterferedLink(LINK_MAP, 0.9, np.random.default_rng(0), _interferer())
        times = edge_times(link.interferer)
        for t in times:
            link.expected_packet_success(*SHAPES[0], t)
        link.set_distance(distance)
        for t in times:
            for shape in SHAPES:
                assert link.expected_packet_success(*shape, t) == 1.0 - reference_per(
                    link, *shape, t
                )

    def test_snr_offset_invalidates(self):
        link = InterferedLink(LINK_MAP, 0.9, np.random.default_rng(0), _interferer())
        times = edge_times(link.interferer)
        for offset in (0.0, -6.0, -6.0, -15.5, 0.0):
            link.snr_offset_db = offset
            for t in times:
                for shape in SHAPES:
                    assert link.expected_packet_success(*shape, t) == 1.0 - reference_per(
                        link, *shape, t
                    )

    def test_fading_bypasses_memo(self):
        def fading():
            return BlockFadingProcess(
                RayleighFading(), coherence_s=0.01, rng=np.random.default_rng(9)
            )

        link = InterferedLink(
            LINK_MAP, 0.9, np.random.default_rng(0), _interferer(), fading=fading()
        )
        twin = fading()
        for t in np.linspace(0.0, 1.0, 200):
            for shape in SHAPES:
                assert link.expected_packet_success(
                    *shape, float(t)
                ) == 1.0 - reference_per(link, *shape, float(t), twin)
        assert link._per_cache == {}


class TestDrawsAndMisses:
    def _packets(self, interferer):
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0.0, 4.0, 3000))
        shapes = [SHAPES[i] for i in rng.integers(0, len(SHAPES), len(times))]
        return list(zip(shapes, times.tolist()))

    def test_draws_equal_reference(self):
        link = InterferedLink(LINK_MAP, 0.95, np.random.default_rng(11), _interferer())
        reference_rng = np.random.default_rng(11)
        offsets = {1000: -8.0, 2000: 0.0}
        outcomes = set()
        for i, (shape, t) in enumerate(self._packets(link.interferer)):
            if i in offsets:
                link.snr_offset_db = offsets[i]
            if i == 1500:
                link.set_distance(1.1)
            got = link.packet_success(*shape, t)
            want = bool(reference_rng.random() >= reference_per(link, *shape, t))
            assert got == want
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_ber_runs_only_on_memo_misses(self):
        link = InterferedLink(LINK_MAP, 0.95, np.random.default_rng(11), _interferer())
        counter = link.ber = _CountingBer(link)
        keys = set()
        for shape, t in self._packets(link.interferer):
            burst = shape[0] is not LinkMode.ACTIVE and link.interferer.is_active(t)
            keys.add((*shape, burst))
            link.packet_success(*shape, t)
        assert counter.calls == len(keys) == len(link._per_cache)
        link.set_distance(0.5)
        link.packet_success(*SHAPES[0], 0.0)
        assert counter.calls == len(keys) + 1
