"""Link-outcome memoization: cache correctness, invalidation, fading
bypass, and the bit-identical cached-vs-uncached session regression."""

import numpy as np
import pytest

from repro.core.braidio import BraidioRadio
from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap
from repro.hardware.battery import Battery
from repro.phy.fading import BlockFadingProcess, RayleighFading
from repro.phy.modulation import bit_error_rate, packet_error_rate
from repro.sim.interference import BurstyInterferer, InterferedLink
from repro.sim.link import SimulatedLink
from repro.sim.policies import BraidioPolicy, FixedModePolicy
from repro.sim.session import CommunicationSession
from repro.sim.simulator import Simulator


def _link(distance=0.88, seed=0, fading=None, cache=True):
    return SimulatedLink(
        LinkMap(), distance, np.random.default_rng(seed), fading=fading, cache=cache
    )


class TestPerMemoization:
    def test_cached_per_matches_uncached(self):
        cached = _link(cache=True)
        uncached = _link(cache=False)
        for args in [
            (LinkMode.BACKSCATTER, 1_000_000, 328),
            (LinkMode.PASSIVE, 100_000, 328),
            (LinkMode.ACTIVE, 1_000_000, 88),
        ]:
            assert cached.expected_packet_success(*args) == pytest.approx(
                uncached.expected_packet_success(*args), rel=0, abs=0
            )

    def test_cache_populated_on_use(self):
        link = _link()
        link.packet_success(LinkMode.BACKSCATTER, 1_000_000, 328)
        assert (LinkMode.BACKSCATTER, 1_000_000, 328) in link._per_cache

    def test_repeat_hits_do_not_consume_extra_randomness(self):
        # One rng draw per packet, cache hit or miss: both links must see
        # the identical outcome stream from the same seed.
        a, b = _link(seed=3, cache=True), _link(seed=3, cache=False)
        outcomes_a = [
            a.packet_success(LinkMode.BACKSCATTER, 1_000_000, 328) for _ in range(500)
        ]
        outcomes_b = [
            b.packet_success(LinkMode.BACKSCATTER, 1_000_000, 328) for _ in range(500)
        ]
        assert outcomes_a == outcomes_b

    def test_cache_disabled_flag(self):
        link = _link(cache=False)
        assert not link.cache_enabled
        link.packet_success(LinkMode.BACKSCATTER, 1_000_000, 328)
        assert link._per_cache == {}


class TestInvalidation:
    def test_set_distance_invalidates(self):
        link = _link(0.5)
        near = link.expected_packet_success(LinkMode.BACKSCATTER, 1_000_000, 328)
        link.set_distance(1.5)
        far = link.expected_packet_success(LinkMode.BACKSCATTER, 1_000_000, 328)
        assert far < near
        # And the stale entries are actually gone, not shadowed.
        assert link._per_cache == {
            (LinkMode.BACKSCATTER, 1_000_000, 328): pytest.approx(1.0 - far)
        }

    def test_same_distance_keeps_cache(self):
        link = _link(0.5)
        link.expected_packet_success(LinkMode.BACKSCATTER, 1_000_000, 328)
        link.set_distance(0.5)
        assert link._per_cache

    def test_snr_tracks_distance_through_cache(self):
        link = _link(0.5)
        near = link.snr_db(LinkMode.PASSIVE, 100_000)
        link.set_distance(2.0)
        far = link.snr_db(LinkMode.PASSIVE, 100_000)
        expected = LinkMap().budget(LinkMode.PASSIVE, 100_000).snr_db(2.0, 100_000)
        assert far < near
        assert far == pytest.approx(expected)


class TestFadingBypass:
    def test_fading_link_skips_cache(self):
        rng = np.random.default_rng(7)
        fading = BlockFadingProcess(RayleighFading(), coherence_s=0.01, rng=rng)
        link = _link(0.5, fading=fading)
        for t in (0.0, 0.02, 0.04):
            link.packet_success(LinkMode.PASSIVE, 1_000_000, 328, t)
        assert link._per_cache == {}
        assert link._snr_cache == {}

    def test_fading_snr_still_time_varying(self):
        rng = np.random.default_rng(7)
        fading = BlockFadingProcess(RayleighFading(), coherence_s=0.01, rng=rng)
        link = _link(0.5, fading=fading)
        snrs = {link.snr_db(LinkMode.PASSIVE, 1_000_000, t) for t in (0.0, 0.02, 0.04)}
        assert len(snrs) > 1

    def test_interfered_link_disables_cache(self):
        # The burst-blind (mode, bitrate, bits) memo stays off: every
        # memoized PER is keyed by the burst state too and equals the
        # uncached derivation bit for bit (full coverage lives in
        # test_interfered_link_memo.py).
        interferer = BurstyInterferer(
            np.random.default_rng(1), mean_on_s=0.05, mean_off_s=0.1
        )
        link = InterferedLink(LinkMap(), 0.5, np.random.default_rng(0), interferer)
        shape = (LinkMode.BACKSCATTER, 1_000_000, 328)
        for t in np.linspace(0.0, 2.0, 101):
            budget = LinkMap().budget(LinkMode.BACKSCATTER, 1_000_000)
            snr = budget.snr_db(0.5, 1_000_000) - interferer.snr_penalty_at(t)
            per = packet_error_rate(bit_error_rate(budget.modulation, snr), 328)
            assert link.expected_packet_success(*shape, t) == 1.0 - per
        assert set(link._per_cache) == {(*shape, False), (*shape, True)}


def _run_session(policy, cache, seed=0, distance=0.8, packets=2000, **kwargs):
    sim = Simulator(seed=seed)
    a = BraidioRadio.for_device("Apple Watch")
    a.battery = Battery(1.0)
    b = BraidioRadio.for_device("iPhone 6S")
    b.battery = Battery(1.0)
    link = SimulatedLink(LinkMap(), distance, sim.rng, cache=cache)
    session = CommunicationSession(
        sim, a, b, link, policy, max_packets=packets, **kwargs
    )
    return session.run()


class TestSessionRegression:
    def test_cached_and_uncached_sessions_bit_identical(self):
        cached = _run_session(BraidioPolicy(), cache=True)
        uncached = _run_session(BraidioPolicy(), cache=False)
        assert cached == uncached

    def test_cached_and_uncached_ledgers_identical(self):
        # Equality already covers the metered totals; the full ledger
        # snapshot (per-category attribution, pools, battery state) must
        # match bit-for-bit as well.
        cached = _run_session(BraidioPolicy(), cache=True)
        uncached = _run_session(BraidioPolicy(), cache=False)
        assert cached.ledger_snapshot() == uncached.ledger_snapshot()

    def test_cached_and_uncached_identical_with_arq(self):
        cached = _run_session(
            FixedModePolicy(LinkMode.BACKSCATTER), cache=True, arq=True
        )
        uncached = _run_session(
            FixedModePolicy(LinkMode.BACKSCATTER), cache=False, arq=True
        )
        assert cached.retransmissions == uncached.retransmissions
        assert cached == uncached

    def test_fading_sessions_identical_with_and_without_cache_flag(self):
        # Under fading the cache is bypassed either way; the flag must not
        # change anything (including rng draw order).
        def run(cache):
            sim = Simulator(seed=4)
            a = BraidioRadio.for_device("Apple Watch")
            a.battery = Battery(1.0)
            b = BraidioRadio.for_device("iPhone 6S")
            b.battery = Battery(1.0)
            fading = BlockFadingProcess(
                RayleighFading(), coherence_s=0.005, rng=sim.rng
            )
            link = SimulatedLink(LinkMap(), 0.8, sim.rng, fading=fading, cache=cache)
            session = CommunicationSession(
                sim, a, b, link, BraidioPolicy(), max_packets=1000
            )
            return session.run()

        assert run(True) == run(False)
