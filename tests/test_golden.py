"""Golden digests: outputs pinned to committed values.

Every other bit-identity test compares two code paths of the same
checkout, so a change that moves both paths together passes silently.
These tests compare against ``tests/golden/digests.json`` instead:

* ``saturation_voq`` — the canonical :class:`RunRecord` cache dicts
  (``elapsed_s`` stripped) of eight 32-port VOQ scenarios, crossbar and
  banyan with 4 iSLIP iterations at loads 0.6-0.9;
* ``fig9_csv`` / ``fig9_json`` — the fig9 campaign's exports at a short
  40 + 8 slot window;
* ``traffic_kinds`` — the canonical records of twelve 8-port scenarios,
  every traffic kind on RNG streams 1 and 2, spread over unbounded,
  bounded and VOQ ingress on the crossbar and the banyan (so both
  segmentation paths of the cell store run), with packet sizes that
  fill part of a word, part of a cell and several cells;
* ``long_window`` — the canonical records of ten FIFO and VOQ scenarios
  at a 300 + 45 slot window: the four fabrics at 16 ports and loads 0.5
  and 0.9, the Batcher-Banyan at 32 ports and the banyan with 2 iSLIP
  iterations at 32 ports, both at load 0.9.  Every other key runs 40 + 8
  slots; this one crosses many batched wire settlements of the
  vectorized cores, with the warmup boundary falling inside a batch.

``PYTHONPATH=src python tests/test_golden.py`` prints every key's
current digest beside ``same`` or ``CHANGED`` against the committed
file and exits 1 if any key changed; an intended change to the numbers
is then copied into the file by hand, as an explicit, reviewed diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import PowerModel, Scenario
from repro.campaigns.presets import get_campaign
from repro.campaigns.runner import run_campaign

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

WINDOW = dict(arrival_slots=40, warmup_slots=8, seed=2002)
LONG_WINDOW = dict(arrival_slots=300, warmup_slots=45, seed=2002)

#: ``(traffic, traffic_params, load)`` of the ``traffic_kinds`` digest.
TRAFFIC_CASES = (
    ("bernoulli", {}, 0.5),
    ("hotspot", {"hotspot_fraction": 0.5, "packet_bits": 100}, 0.4),
    ("permutation", {"packet_bits": 1000}, 0.2),
    ("bursty", {"burst_len": 4.0, "packet_bits": 33}, 0.5),
    ("trimodal", {}, 0.4),
    (
        "trace",
        {"entries": [[s, s % 8, (3 * s + 1) % 8, (97 * s) % 1200]
                     for s in range(40)]},
        0.0,
    ),
)

#: Ingress set-ups the traffic cases rotate through.
QUEUE_CASES = (
    dict(architecture="crossbar"),
    dict(architecture="banyan", ingress_queue_cells=4),
    dict(architecture="crossbar", queueing="voq", islip_iterations=2),
    dict(architecture="banyan"),
    dict(architecture="crossbar", ingress_queue_cells=4),
    dict(architecture="banyan", queueing="voq", islip_iterations=2,
         ingress_queue_cells=3),
)


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


def _records_digest(scenarios: list[Scenario]) -> str:
    records = PowerModel().run_batch(scenarios, workers=1)
    return _sha256("\n".join(
        json.dumps(_strip_timing(r.to_cache_dict()), sort_keys=True)
        for r in records
    ))


def saturation_voq_digest() -> str:
    return _records_digest([
        Scenario(arch, 32, load, queueing="voq", islip_iterations=4,
                 **WINDOW)
        for arch in ("crossbar", "banyan")
        for load in (0.6, 0.7, 0.8, 0.9)
    ])


def traffic_kinds_digest() -> str:
    return _records_digest([
        Scenario(
            ports=8,
            load=load,
            traffic=traffic,
            traffic_params=params,
            rng_stream=stream,
            **QUEUE_CASES[(i + 2 * (stream - 1)) % len(QUEUE_CASES)],
            **WINDOW,
        )
        for stream in (1, 2)
        for i, (traffic, params, load) in enumerate(TRAFFIC_CASES)
    ])


def long_window_digest() -> str:
    return _records_digest([
        *(
            Scenario(arch, 16, load, **LONG_WINDOW)
            for arch in ("crossbar", "fully_connected", "banyan",
                         "batcher_banyan")
            for load in (0.5, 0.9)
        ),
        Scenario("batcher_banyan", 32, 0.9, **LONG_WINDOW),
        Scenario("banyan", 32, 0.9, queueing="voq", islip_iterations=2,
                 **LONG_WINDOW),
    ])


def fig9_digests() -> dict[str, str]:
    campaign = get_campaign("fig9")
    campaign = campaign.replace(base=dict(campaign.base_dict, **WINDOW))
    record = run_campaign(campaign, session=PowerModel(), workers=1)
    return {
        "fig9_csv": _sha256(record.to_csv()),
        "fig9_json": _sha256(record.to_json()),
    }


def current_digests() -> dict[str, str]:
    return {
        "saturation_voq": saturation_voq_digest(),
        "traffic_kinds": traffic_kinds_digest(),
        "long_window": long_window_digest(),
        **fig9_digests(),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_saturation_voq_records_match_golden(golden):
    assert saturation_voq_digest() == golden["saturation_voq"]


def test_traffic_kinds_records_match_golden(golden):
    assert traffic_kinds_digest() == golden["traffic_kinds"]


def test_long_window_records_match_golden(golden):
    assert long_window_digest() == golden["long_window"]


def test_fig9_exports_match_golden(golden):
    digests = fig9_digests()
    assert digests["fig9_csv"] == golden["fig9_csv"]
    assert digests["fig9_json"] == golden["fig9_json"]


def main() -> int:
    """Print every key's digest against the committed file; 1 if any
    key changed (or is missing from the file)."""
    committed = json.loads(GOLDEN.read_text())
    changed = 0
    for key, digest in sorted(current_digests().items()):
        same = committed.get(key) == digest
        changed += not same
        print(f"{key:<16} {digest}  {'same' if same else 'CHANGED'}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
