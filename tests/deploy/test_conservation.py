"""Energy conservation across the deploy layer: every joule a battery
lost is attributed in a ledger, at hub, region and deployment level,
armed and unarmed.

Client side: a device's battery delta must match the attribution of
its home client plus every twin a neighbor hub adopted for it (twins
share the device's battery).  Hub side: the hub account is bound to
the hub battery, so ``conservation_residual_j`` checks it directly.

The one legitimate exception is the fatal packet: its drain empties the
battery and removes only what was left, and the hub session records it
without attributing it, so a dead battery shows a residual.  No battery dies in these scenarios
(asserted), so every residual here is float-ordering drift.  Measured
worst relative drift over smoke, ci-small and mobile-small under every
fault profile: 1.7e-7 per hub (clients and hub alike) and 5e-8 per
deployment; single devices with tiny draws reach 4e-5, which is why
the bound applies to the hub aggregates.
"""

import pytest

import repro.deploy.region as region_mod
from repro.deploy import run_deployment, scenario
from repro.energy import conservation_residual_j
from repro.faults import REGION_FAULT_PROFILES, region_fault_plan_for
from repro.runtime import CampaignConfig

#: Relative residual bound (measured worst 1.7e-7; see module docstring).
RELATIVE_BOUND = 1e-6


def _hub_battery(runtime):
    # Every client's "b" account drains the shared hub battery.
    return runtime.clients[0].metrics.ledger.account("b").battery


@pytest.fixture
def built_hubs(monkeypatch):
    """Every hub runtime the region simulator builds, with its region
    index and the starting charge of its hub and device batteries."""
    built = []
    build = region_mod._build_hub

    def recording(spec, region, local_index, link_map, sim):
        runtime = build(spec, region, local_index, link_map, sim)
        built.append((
            region.index,
            runtime,
            _hub_battery(runtime).remaining_j,
            [client.radio.battery.remaining_j for client in runtime.clients],
        ))
        return runtime

    monkeypatch.setattr(region_mod, "_build_hub", recording)
    return built


def _hub_balances(region_index, runtime, hub_start_j, device_start_j):
    """(region, side, residual_j, battery_delta_j) for one hub."""
    for client in runtime.clients:
        assert not client.radio.battery.is_empty
    hub_battery = _hub_battery(runtime)
    assert not hub_battery.is_empty
    hub_account = runtime.session.hub_metrics.ledger.account("b")
    assert hub_account.battery is hub_battery
    client_delta = sum(
        start - client.radio.battery.remaining_j
        for client, start in zip(runtime.clients, device_start_j)
    )
    client_attributed = sum(
        member.metrics.ledger.account("a").attributed_j
        for member in runtime.clients + runtime.twins
    )
    return [
        (region_index, "client", client_delta - client_attributed, client_delta),
        (
            region_index,
            "hub",
            conservation_residual_j(hub_account, hub_start_j),
            hub_start_j - hub_battery.remaining_j,
        ),
    ]


def _assert_conserved(rows):
    residual = sum(row[2] for row in rows)
    delta = sum(row[3] for row in rows)
    assert delta > 0.0
    assert abs(residual) <= RELATIVE_BOUND * delta


@pytest.mark.parametrize(
    "name, profile",
    [("smoke", profile) for profile in REGION_FAULT_PROFILES]
    + [("ci-small", "none"), ("ci-small", "metro-chaos")],
)
def test_battery_deltas_are_attributed(built_hubs, name, profile):
    spec = scenario(name)
    plan = region_fault_plan_for(profile, spec)
    run = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan)
    assert len(built_hubs) == spec.hub_count
    rows = [row for hub in built_hubs for row in _hub_balances(*hub)]
    for side in ("client", "hub"):
        # hub level: every row; region and deployment level: sums.
        for row in rows:
            if row[1] == side:
                _assert_conserved([row])
        for region in run.partition.regions:
            _assert_conserved(
                [r for r in rows if r[1] == side and r[0] == region.index]
            )
        _assert_conserved([r for r in rows if r[1] == side])
