"""Fuzz every spec parser: malformed input ends in a ``ReproError``.

Each property takes a preset spec's ``to_dict()``, replaces one path in
it (the root included) with an arbitrary JSON value and parses the
result.  The parser must either raise a :class:`~repro.errors.ReproError`
or return a spec whose ``to_json()`` survives another round trip
unchanged; a ``TypeError`` or ``ValueError`` escaping the parser would
reach the CLI as a traceback instead of an exit-2 ``error:`` line.

Runs are derandomized, so the suite sees the same examples every time.
Integers are unbounded: a scenario or router node allocates one array
entry per port, but rejects more than ``MAX_PORTS`` ports first, so a
huge port count is an error, not gigabytes of allocation.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.api.scenario import preset
from repro.campaigns import Campaign
from repro.campaigns.presets import get_campaign
from repro.control import ControlSpec, DemandSeries
from repro.control.presets import get_control
from repro.errors import ReproError
from repro.network import NetworkSpec, NetworkTopology, TrafficMatrix
from repro.network.presets import get_network
from repro.resilience import Fault, FaultPlan
from repro.resilience.records import FailureRecord
from repro.tech.presets import get_technology

SETTINGS = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

_MESH = get_network("mesh4_ecmp")
_CONTROL = get_control("dumbbell_sleep_sweep")
_FAULT = Fault("hang", 2, attempts=(1, 2), hang_s=5.0)

#: The specs each property mutates, by class.
BASES = {
    Scenario: [
        preset("bursty"),
        preset("hotspot").replace(tech=replace(
            get_technology("0.18um"), name="custom", voltage_v=1.8
        )),
    ],
    Campaign: [
        get_campaign("fig9").replace(ports=(4,), loads=(0.1, 0.3)),
        get_campaign("dumbbell_switchoff"),
        get_campaign("table2"),
    ],
    NetworkSpec: [get_network("dumbbell_switchoff")],
    ControlSpec: [_CONTROL],
    DemandSeries: [_CONTROL.series],
    NetworkTopology: [_MESH.topology],
    TrafficMatrix: [_MESH.matrix],
    Fault: [_FAULT],
    FaultPlan: [FaultPlan((_FAULT, Fault("crash", 5)), seed=7)],
    FailureRecord: [
        FailureRecord("x", "k", "TransientFault", "boom", 3, "reference")
    ],
}


def _paths(value, prefix=()):
    """Every path into a JSON value, the root ``()`` first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def mutated(draw, cls):
    data = draw(st.sampled_from(BASES[cls])).to_dict()
    path = draw(st.sampled_from(list(_paths(data))))
    return _replaced(data, path, draw(JSON_VALUES))


def _round_trips(parse):
    """``parse()`` raises a ReproError or yields a stable spec."""
    try:
        spec = parse()
    except ReproError:
        return
    text = spec.to_json()
    assert type(spec).from_json(text).to_json() == text


@pytest.mark.parametrize("cls", list(BASES), ids=lambda c: c.__name__)
def test_mutated_spec_parses_or_raises_repro_error(cls):
    @SETTINGS
    @given(data=mutated(cls))
    def check(data):
        _round_trips(lambda: cls.from_dict(data))

    check()


def test_unmutated_presets_round_trip():
    for specs in BASES.values():
        for spec in specs:
            assert type(spec).from_json(spec.to_json()) == spec
