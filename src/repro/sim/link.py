"""Stochastic wireless link for the discrete-event simulator.

Wraps the calibrated link budgets with optional block fading and delivers
per-packet outcomes: given (mode, bitrate, bits, time), draw whether the
packet survived.  SNR observations (what probe packets would measure) are
also exposed for the controller.

Hot-path contract: with no fading process attached (the paper's cleared,
static room) the SNR, BER and packet error rate of a (mode, bitrate,
packet size) triple are pure functions of the current distance, so the
link memoizes them instead of re-deriving the full budget chain
(``log10`` path loss, noise floor, ``exp``/``erfc`` BER, PER power) for
every packet.  The caches are keyed by (mode, bitrate[, packet_bits]) at
the current distance and invalidated by :meth:`set_distance`; attaching a
fading process bypasses them entirely.  Cached lookups never consume
randomness — the single ``rng.random()`` draw per packet is unchanged —
so cached and uncached runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..core.modes import LinkMode
from ..core.regimes import LinkMap
from ..phy.fading import BlockFadingProcess
from ..phy.modulation import bit_error_rate, packet_error_rate


class SimulatedLink:
    """A point-to-point link between two Braidios.

    Args:
        link_map: calibrated availability/budget map.
        distance_m: current separation (mutable via :meth:`set_distance`).
        rng: random generator for packet-loss draws.
        fading: optional time-correlated fading process applied (in dB) on
            top of the deterministic budget; ``None`` models the paper's
            cleared, static room.
        cache: memoize per-(mode, bitrate, packet size) link outcomes when
            no fading process is attached.  Disabling it only costs speed;
            results are identical either way.  Subclasses whose ``snr_db``
            varies with time through anything other than ``fading`` must
            pass ``cache=False`` or key their PER memo by that state, as
            :class:`~repro.sim.interference.InterferedLink` does.
    """

    __slots__ = (
        "_link_map",
        "_distance_m",
        "_rng",
        "_fading",
        "_cache_enabled",
        "_snr_cache",
        "_per_cache",
        "_snr_offset_db",
    )

    def __init__(
        self,
        link_map: LinkMap,
        distance_m: float,
        rng: np.random.Generator,
        fading: BlockFadingProcess | None = None,
        cache: bool = True,
    ) -> None:
        if distance_m < 0.0:
            raise ValueError("distance must be non-negative")
        self._link_map = link_map
        self._distance_m = distance_m
        self._rng = rng
        self._fading = fading
        self._cache_enabled = cache
        # SNR in dB per (mode, bitrate); PER per (mode, bitrate, bits)
        # (subclasses may extend the PER key, e.g. by a burst state).
        # Both implicitly keyed by the current distance *and* the fault
        # offset: set_distance / snr_offset_db invalidate them.
        self._snr_cache: dict[tuple[LinkMode, int], float] = {}
        self._per_cache: dict[tuple, float] = {}
        self._snr_offset_db = 0.0

    @property
    def distance_m(self) -> float:
        """Current separation in metres."""
        return self._distance_m

    @property
    def cache_enabled(self) -> bool:
        """Whether static-channel memoization is active (ignored under
        fading)."""
        return self._cache_enabled

    @property
    def snr_offset_db(self) -> float:
        """Additive SNR adjustment in dB (0 on a healthy link).

        Fault injection uses this for deep-fade windows; any non-zero
        value folds into every mode's SNR.  Assignment invalidates the
        memoized link outcomes, so cached runs stay correct.
        """
        return self._snr_offset_db

    @snr_offset_db.setter
    def snr_offset_db(self, offset_db: float) -> None:
        if offset_db != self._snr_offset_db:
            self._snr_cache.clear()
            self._per_cache.clear()
        self._snr_offset_db = offset_db

    def set_distance(self, distance_m: float) -> None:
        """Move the end points to a new separation (invalidates the
        memoized link outcomes).

        Raises:
            ValueError: for negative distances.
        """
        if distance_m < 0.0:
            raise ValueError("distance must be non-negative")
        if distance_m != self._distance_m:
            self._snr_cache.clear()
            self._per_cache.clear()
        self._distance_m = distance_m

    def snr_db(self, mode: LinkMode, bitrate_bps: int, time_s: float = 0.0) -> float:
        """Instantaneous SNR of ``mode`` at ``bitrate_bps``."""
        if self._fading is None and self._cache_enabled:
            return self._static_snr_db(mode, bitrate_bps)
        budget = self._link_map.budget(mode, bitrate_bps)
        snr = budget.snr_db(self._distance_m, bitrate_bps)
        if self._fading is not None:
            snr += self._fading.gain_db_at(time_s)
        if self._snr_offset_db != 0.0:
            snr += self._snr_offset_db
        return snr

    def _static_snr_db(self, mode: LinkMode, bitrate_bps: int) -> float:
        key = (mode, bitrate_bps)
        snr = self._snr_cache.get(key)
        if snr is None:
            budget = self._link_map.budget(mode, bitrate_bps)
            snr = budget.snr_db(self._distance_m, bitrate_bps)
            if self._snr_offset_db != 0.0:
                snr += self._snr_offset_db
            self._snr_cache[key] = snr
        return snr

    def ber(self, mode: LinkMode, bitrate_bps: int, time_s: float = 0.0) -> float:
        """Instantaneous BER of ``mode`` at ``bitrate_bps``."""
        budget = self._link_map.budget(mode, bitrate_bps)
        return bit_error_rate(budget.modulation, self.snr_db(mode, bitrate_bps, time_s))

    def _packet_error_rate(
        self, mode: LinkMode, bitrate_bps: int, packet_bits: int, time_s: float
    ) -> float:
        """PER of one packet shape, memoized on the static channel."""
        if self._fading is not None or not self._cache_enabled:
            return packet_error_rate(self.ber(mode, bitrate_bps, time_s), packet_bits)
        key = (mode, bitrate_bps, packet_bits)
        per = self._per_cache.get(key)
        if per is None:
            per = packet_error_rate(self.ber(mode, bitrate_bps, time_s), packet_bits)
            self._per_cache[key] = per
        return per

    def packet_success(
        self, mode: LinkMode, bitrate_bps: int, packet_bits: int, time_s: float = 0.0
    ) -> bool:
        """Draw whether a ``packet_bits``-bit packet survives.

        Raises:
            ValueError: for non-positive packet sizes.
        """
        if packet_bits <= 0:
            raise ValueError("packet size must be positive")
        per = self._packet_error_rate(mode, bitrate_bps, packet_bits, time_s)
        return bool(self._rng.random() >= per)

    def expected_packet_success(
        self, mode: LinkMode, bitrate_bps: int, packet_bits: int, time_s: float = 0.0
    ) -> float:
        """Deterministic delivery probability (for analytic cross-checks)."""
        if packet_bits <= 0:
            raise ValueError("packet size must be positive")
        return 1.0 - self._packet_error_rate(mode, bitrate_bps, packet_bits, time_s)
