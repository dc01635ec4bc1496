"""Byte pins for the armed deployment paths.

The export goldens cover the unarmed ``smoke`` and ``blackout`` runs
only.  These digests pin the ``ci-small`` deployment manifest with no
fault plan and under the ``churn-storm``, ``noise-surge`` and
``metro-chaos`` region profiles, so hot-path work on the hub session
(TDMA rebuilds, interfered links, the energy sweep, hub-to-hub
handoff) cannot change a single output byte unnoticed.

To regenerate after an intentional output change:

    PYTHONPATH=src python -c "import hashlib; \\
    from repro.deploy import manifest_json, run_deployment, scenario; \\
    from repro.faults import region_fault_plan_for; \\
    from repro.runtime import CampaignConfig; \\
    s = scenario('ci-small'); \\
    p = region_fault_plan_for('metro-chaos', s); \\
    m = run_deployment(s, CampaignConfig(n_jobs=1), fault_plan=p).manifest; \\
    print(hashlib.sha256(manifest_json(m).encode()).hexdigest())"

and record the reason in CHANGES.md.
"""

import hashlib

import pytest

from repro.deploy import manifest_json, run_deployment, scenario
from repro.faults import region_fault_plan_for
from repro.runtime import CampaignConfig

DIGESTS = {
    None: "b75270d4cf795bbdb24722f324c34405d2f842a60b6832904e35cd44de9fcb20",
    "churn-storm": "edaaa953c0be75640a8fbfc38632c42b6c7eecc798a173c671d20cd281701c0c",
    "noise-surge": "a7ff634e17f916190d6d43368e5ff843da68b6ef1885de05e1d28fb8cb9c543f",
    "metro-chaos": "86081dd0801cb30aa0c70d0425e3cc011f02b448da54e5c62f5303bb36f36d77",
}


@pytest.mark.parametrize("profile", list(DIGESTS), ids=lambda p: p or "unarmed")
def test_ci_small_manifest_digest(profile):
    spec = scenario("ci-small")
    plan = None if profile is None else region_fault_plan_for(profile, spec)
    manifest = run_deployment(spec, CampaignConfig(n_jobs=1), fault_plan=plan).manifest
    digest = hashlib.sha256(manifest_json(manifest).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[profile]
    if profile == "metro-chaos":
        # The pin is only worth having if the armed path actually runs.
        assert manifest["resilience"]["fault_events"] == 4
        assert manifest["resilience"]["handoffs"] == 68
