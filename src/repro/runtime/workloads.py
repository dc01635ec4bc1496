"""Built-in campaign job runners and spec builders.

Each runner is a pure function of (spec, rng): it reconstructs whatever
model objects it needs from the spec's primitive fields (device *names*,
distance, bitrate) under the default paper calibration, so specs stay
picklable and results cacheable by content.  The shared
:class:`~repro.core.regimes.LinkMap` is memoized per process — workers
pay its construction cost once, not per job.
"""

from __future__ import annotations

import functools

import numpy as np

from .jobs import JobSpec, register_job_runner


@functools.lru_cache(maxsize=1)
def _link_map():
    from ..core.regimes import LinkMap

    return LinkMap()


def _energy_budget(device_name: str):
    """A fresh :class:`~repro.energy.EnergyBudget` for a catalog device.

    Numerically identical to the former raw ``battery_wh * 3600`` float —
    the lifetime entry points coerce the view back via ``as_joules``.
    """
    from ..energy import EnergyBudget
    from ..hardware.devices import device

    return EnergyBudget.from_device(device(device_name))


@register_job_runner("gain.bluetooth")
def run_bluetooth_gain(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Fig 15 cell: Braidio over Bluetooth, one-way saturated traffic."""
    from ..sim.lifetime import bluetooth_unidirectional, braidio_unidirectional

    e_tx = _energy_budget(spec.tx_device)
    e_rx = _energy_budget(spec.rx_device)
    braidio = braidio_unidirectional(e_tx, e_rx, spec.distance_m, _link_map())
    baseline = bluetooth_unidirectional(e_tx, e_rx)
    return {
        "gain": braidio.total_bits / baseline,
        "braidio_bits": braidio.total_bits,
        "baseline_bits": baseline,
        "limited_by": braidio.limited_by,
    }


@register_job_runner("gain.best_mode")
def run_best_mode_gain(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Fig 16 cell: Braidio over the best single mode in isolation."""
    from ..sim.lifetime import (
        best_single_mode_unidirectional,
        braidio_unidirectional,
    )

    e_tx = _energy_budget(spec.tx_device)
    e_rx = _energy_budget(spec.rx_device)
    braidio = braidio_unidirectional(e_tx, e_rx, spec.distance_m, _link_map())
    mode, baseline = best_single_mode_unidirectional(
        e_tx, e_rx, spec.distance_m, _link_map()
    )
    return {
        "gain": braidio.total_bits / baseline,
        "braidio_bits": braidio.total_bits,
        "baseline_bits": baseline,
        "best_mode": mode.value,
    }


@register_job_runner("gain.bidirectional")
def run_bidirectional_gain(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Fig 17 cell: Braidio over Bluetooth with equal data both ways."""
    from ..sim.lifetime import bluetooth_bidirectional, braidio_bidirectional

    e_a = _energy_budget(spec.tx_device)
    e_b = _energy_budget(spec.rx_device)
    braidio = braidio_bidirectional(e_a, e_b, spec.distance_m, _link_map())
    baseline = bluetooth_bidirectional(e_a, e_b)
    return {
        "gain": braidio.total_bits / baseline,
        "braidio_bits": braidio.total_bits,
        "baseline_bits": baseline,
        "limited_by": braidio.limited_by,
    }


@register_job_runner("gain.distance")
def run_distance_gain(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Fig 18 point: gain over Bluetooth at one distance (NaN out of
    range, matching the sweep's plotting convention)."""
    from ..sim.lifetime import bluetooth_unidirectional, braidio_unidirectional

    link_map = _link_map()
    if not link_map.available_powers(spec.distance_m):
        return {"gain": float("nan")}
    e_tx = _energy_budget(spec.tx_device)
    e_rx = _energy_budget(spec.rx_device)
    braidio = braidio_unidirectional(e_tx, e_rx, spec.distance_m, link_map)
    return {"gain": braidio.total_bits / bluetooth_unidirectional(e_tx, e_rx)}


@register_job_runner("batch.grid")
def run_batch_grid(spec: JobSpec, rng: np.random.Generator) -> dict:
    """One *whole grid* evaluated by the vectorized batch engine
    (:mod:`repro.batch`) as a single campaign job.

    Params: ``workload`` — a matrix kind (``gain.bluetooth`` /
    ``gain.best_mode`` / ``gain.bidirectional``, with ``devices`` a JSON
    list of catalog names) or ``gain.distance`` (with ``distances`` a JSON
    list of metres and the spec's device pair).  Deterministic in the spec
    alone, and cell-for-cell bit-identical to the per-cell scalar jobs.
    """
    import json

    from ..hardware.battery import JOULES_PER_WATT_HOUR
    from ..hardware.devices import device

    workload = spec.param("workload")
    if workload is None:
        raise ValueError("batch.grid job needs a 'workload' param")
    if workload == "gain.distance":
        from ..batch import distance_gain_curve_grid

        distances_json = spec.param("distances")
        if distances_json is None:
            raise ValueError("batch.grid distance job needs a 'distances' param")
        distances = [float(d) for d in json.loads(distances_json)]
        e_tx = device(spec.tx_device).battery_wh * JOULES_PER_WATT_HOUR
        e_rx = device(spec.rx_device).battery_wh * JOULES_PER_WATT_HOUR
        gains = distance_gain_curve_grid(e_tx, e_rx, np.asarray(distances))
        return {
            "workload": workload,
            "distances_m": distances,
            "gains": gains.tolist(),
        }
    from ..batch import gain_matrix_grid
    from ..batch.grid import MATRIX_KINDS

    if workload not in MATRIX_KINDS:
        raise ValueError(
            f"unknown batch workload {workload!r} "
            f"(expected gain.distance or one of {MATRIX_KINDS})"
        )
    devices_json = spec.param("devices")
    if devices_json is None:
        raise ValueError("batch.grid matrix job needs a 'devices' param")
    names = [str(n) for n in json.loads(devices_json)]
    energies = [device(n).battery_wh * JOULES_PER_WATT_HOUR for n in names]
    gains = gain_matrix_grid(workload, spec.distance_m, energies)
    return {
        "workload": workload,
        "devices": names,
        "gains": gains.tolist(),
    }


@register_job_runner("ber.montecarlo")
def run_montecarlo_ber(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Monte-Carlo OOK envelope BER sample — the stochastic workload that
    exercises the content-derived seeding (params: ``snr_db``,
    ``n_bits``)."""
    from ..phy.baseband import simulate_ook_envelope_ber

    snr_db = float(spec.param("snr_db", "10.0"))
    n_bits = int(spec.param("n_bits", "10000"))
    measurement = simulate_ook_envelope_ber(snr_db, n_bits, rng)
    low, high = measurement.confidence_interval()
    return {
        "ber": measurement.ber,
        "errors": float(measurement.errors),
        "bits": float(measurement.bits),
        "ci_low": low,
        "ci_high": high,
    }


@register_job_runner("session.energy")
def run_session_energy(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Ledger-attributed energy breakdown of one profiled DES session
    (params: ``profile``, ``packets``, ``seed``; deterministic in the
    spec alone, like the gain runners)."""
    from ..analysis.energy_report import run_energy_session, snapshot_report

    profile = spec.param("profile", "braidio")
    packets = int(spec.param("packets", "2000"))
    seed = int(spec.param("seed", "0"))
    metrics = run_energy_session(
        profile, distance_m=spec.distance_m, packets=packets, seed=seed
    )
    report = snapshot_report(metrics.ledger_snapshot())
    report.update(
        {
            "profile": profile,
            "packets_attempted": metrics.packets_attempted,
            "packets_delivered": metrics.packets_delivered,
            "duration_s": metrics.duration_s,
            "energy_a_j": metrics.energy_a_j,
            "energy_b_j": metrics.energy_b_j,
        }
    )
    return report


@register_job_runner("faults.session")
def run_faults_session(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Recovery metrics of one hardened session under a named fault
    profile (params: ``profile``, ``packets``, ``seed``; deterministic in
    the spec alone — the injector derives its own content-addressed
    stream, so results are identical at any worker count)."""
    from ..faults import recovery_report, run_fault_session

    profile = spec.param("profile", "chaos")
    packets = int(spec.param("packets", "2000"))
    seed = int(spec.param("seed", "0"))
    metrics, injector = run_fault_session(
        profile, distance_m=spec.distance_m, packets=packets, seed=seed
    )
    report = recovery_report(metrics)
    report.update(
        {
            "profile": profile,
            "fault_timeline": [list(entry) for entry in injector.timeline],
        }
    )
    return report


@register_job_runner("deploy.region")
def run_deploy_region(spec: JobSpec, rng: np.random.Generator) -> dict:
    """One region of a city-scale deployment (params: ``scenario`` —
    the full scenario JSON — ``region``, and optionally ``faults`` — a
    serialized :class:`~repro.faults.region.RegionFaultPlan` — with its
    ``energy`` cache-key tag; both are only present for non-empty plans,
    so unarmed job fingerprints never change).

    The executor-provided ``rng`` is deliberately unused: every stream
    inside the region derives content-addressed from the *scenario*
    fingerprint (and, when armed, the fault plan's), so the merged
    deployment manifest is bit-identical at any worker count, chunking,
    execution order or journal resume.
    """
    from ..deploy.partition import partition
    from ..deploy.region import simulate_region
    from ..deploy.spec import DeploymentSpec
    from ..faults.region import RegionFaultPlan

    scenario_json = spec.param("scenario")
    if scenario_json is None:
        raise ValueError("deploy.region job needs a 'scenario' param")
    scenario = DeploymentSpec.from_json(scenario_json)
    region_index = int(spec.param("region", "0"))
    part = partition(scenario)  # pure function of the spec
    if not 0 <= region_index < len(part.regions):
        raise ValueError(
            f"region {region_index} out of range: scenario "
            f"{scenario.name!r} partitions into {len(part.regions)} regions"
        )
    faults_json = spec.param("faults")
    fault_plan = (
        RegionFaultPlan.from_json(faults_json) if faults_json is not None else None
    )
    return simulate_region(
        scenario, part.regions[region_index], fault_plan=fault_plan
    )


def fault_profile_specs(
    distance_m: float = 0.5, packets: int = 2000, seed: int = 0
) -> "list[JobSpec]":
    """One ``faults.session`` job per named fault profile."""
    from ..faults import FAULT_PROFILES

    return [
        JobSpec.with_params(
            "faults.session",
            {"profile": profile, "packets": packets, "seed": seed},
            distance_m=float(distance_m),
        )
        for profile in FAULT_PROFILES
    ]


def energy_breakdown_specs(
    distance_m: float = 0.5, packets: int = 2000, seed: int = 0
) -> "list[JobSpec]":
    """One ``session.energy`` job per named energy profile."""
    from ..analysis.energy_report import ENERGY_PROFILES

    return [
        JobSpec.with_params(
            "session.energy",
            {"profile": profile, "packets": packets, "seed": seed},
            distance_m=float(distance_m),
        )
        for profile in ENERGY_PROFILES
    ]


def gain_matrix_specs(
    kind: str, distance_m: float = 0.3, device_names: "list[str] | None" = None
) -> list[JobSpec]:
    """Row-major specs for one gain-matrix campaign (one per (rx, tx))."""
    if device_names is None:
        from ..hardware.devices import DEVICES

        device_names = [d.name for d in DEVICES]
    traffic = "bidirectional" if kind == "gain.bidirectional" else "saturated"
    return [
        JobSpec(
            kind=kind,
            tx_device=tx,
            rx_device=rx,
            distance_m=float(distance_m),
            traffic=traffic,
        )
        for rx in device_names
        for tx in device_names
    ]


def distance_curve_specs(
    tx_device: str, rx_device: str, distances_m
) -> list[JobSpec]:
    """Specs for one directed gain-vs-distance curve."""
    return [
        JobSpec(
            kind="gain.distance",
            tx_device=tx_device,
            rx_device=rx_device,
            distance_m=float(d),
        )
        for d in distances_m
    ]


def batch_matrix_spec(
    kind: str, distance_m: float = 0.3, device_names: "list[str] | None" = None
) -> JobSpec:
    """One vectorized ``batch.grid`` job covering a whole gain matrix."""
    import json

    if device_names is None:
        from ..hardware.devices import DEVICES

        device_names = [d.name for d in DEVICES]
    return JobSpec.with_params(
        "batch.grid",
        {"workload": kind, "devices": json.dumps(list(device_names))},
        distance_m=float(distance_m),
    )


def batch_distance_spec(
    tx_device: str, rx_device: str, distances_m
) -> JobSpec:
    """One vectorized ``batch.grid`` job covering a whole distance curve."""
    import json

    distances = [float(d) for d in distances_m]
    return JobSpec.with_params(
        "batch.grid",
        {"workload": "gain.distance", "distances": json.dumps(distances)},
        tx_device=tx_device,
        rx_device=rx_device,
    )


def campaign_specs(experiment: str, backend: str = "scalar") -> list[JobSpec]:
    """The job list behind one campaign-able experiment id.

    The decomposition is the experiment's registered
    :data:`~repro.experiments.registry.CampaignHook`
    (:mod:`repro.experiments.catalog`); ``backend="vectorized"``
    collapses the gain sweeps (fig15-18) into whole-grid ``batch.grid``
    jobs — one per matrix, one per directed curve — instead of one job
    per cell.  Other experiments ignore the backend (their jobs are not
    grid-shaped).

    Raises:
        ValueError: for ids with no campaign decomposition.
    """
    from ..experiments import campaignable_ids, get

    try:
        defn = get(experiment)
    except KeyError:
        defn = None
    if defn is None or defn.campaign is None:
        raise ValueError(
            f"no campaign decomposition for {experiment!r} "
            f"(supported: {', '.join(campaignable_ids())})"
        )
    return defn.campaign(backend)
