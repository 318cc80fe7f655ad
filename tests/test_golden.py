"""Golden digests: outputs pinned to committed values.

Every other bit-identity test compares two code paths of the same
checkout, so a change that moves both paths together passes silently.
These tests compare against ``tests/golden/digests.json`` instead:

* ``saturation_voq`` — the canonical :class:`RunRecord` cache dicts
  (``elapsed_s`` stripped) of eight 32-port VOQ scenarios, crossbar and
  banyan with 4 iSLIP iterations at loads 0.6-0.9;
* ``fig9_csv`` / ``fig9_json`` — the fig9 campaign's exports at a short
  40 + 8 slot window.

An intended change to the numbers regenerates the file explicitly:
``PYTHONPATH=src python tests/test_golden.py`` prints the current
digests as JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import PowerModel, Scenario
from repro.campaigns.presets import get_campaign
from repro.campaigns.runner import run_campaign

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

WINDOW = dict(arrival_slots=40, warmup_slots=8, seed=2002)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            k: _strip_timing(v) for k, v in value.items() if k != "elapsed_s"
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def saturation_voq_digest() -> str:
    scenarios = [
        Scenario(arch, 32, load, queueing="voq", islip_iterations=4,
                 **WINDOW)
        for arch in ("crossbar", "banyan")
        for load in (0.6, 0.7, 0.8, 0.9)
    ]
    records = PowerModel().run_batch(scenarios, workers=1)
    return _sha256("\n".join(
        json.dumps(_strip_timing(r.to_cache_dict()), sort_keys=True)
        for r in records
    ))


def fig9_digests() -> dict[str, str]:
    campaign = get_campaign("fig9")
    campaign = campaign.replace(base=dict(campaign.base_dict, **WINDOW))
    record = run_campaign(campaign, session=PowerModel(), workers=1)
    return {
        "fig9_csv": _sha256(record.to_csv()),
        "fig9_json": _sha256(record.to_json()),
    }


def current_digests() -> dict[str, str]:
    return {"saturation_voq": saturation_voq_digest(), **fig9_digests()}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_saturation_voq_records_match_golden(golden):
    assert saturation_voq_digest() == golden["saturation_voq"]


def test_fig9_exports_match_golden(golden):
    digests = fig9_digests()
    assert digests["fig9_csv"] == golden["fig9_csv"]
    assert digests["fig9_json"] == golden["fig9_json"]


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=2, sort_keys=True))
