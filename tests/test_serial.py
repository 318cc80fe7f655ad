"""``repro.serial.dumps_indented`` writes ``json.dumps(value, indent=2)``.

The JSON exports (``records_to_json`` and the ``to_json`` of the
network, comparison and control records) go through it, and the golden
keys pin their bytes, so the writer must match ``json.dumps`` on every
JSON value, not only on the shapes the records have today.  The CSV
exports go through ``csv_table``, whose cells are pinned here against
hand-written text.  Every spec's number fields go through
``check_scalars``, which refuses a NaN or an infinity in a float field.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.control import DemandSeries, get_control
from repro.errors import ConfigurationError
from repro.network import Demand, Link, get_network
from repro.resilience import Fault
from repro.serial import csv_table, dumps_indented
from repro.tech import TECH_180NM

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                       1e300, 5e-324])
    | st.text()
    | st.sampled_from(["é ü 漢 \U0001f600", '"quoted"', "back\\slash",
                       "\x00\x07\x1f\n\t\r"])
)

#: Every key type ``json.dumps`` takes.
KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()

JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(KEYS, children, max_size=5),
    max_leaves=25,
)

EDGE_CASES = [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[]]],
    {"nan": float("nan"), "inf": [float("inf"), float("-inf")]},
    {1: "int", 2.5: "float", True: "bool", None: "null"},
    {"rows": [{"x": 1.0, "y": None}, {"x": -0.0, "y": "é"}]},
    (1, (2, (3,))), 2**70, "plain", None,
]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_matches_json_dumps(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


def test_edge_cases_match_json_dumps():
    for value in EDGE_CASES:
        assert dumps_indented(value) == json.dumps(value, indent=2)


def test_falls_back_to_json_dumps_without_the_c_encoder(monkeypatch):
    calls, real_dumps = [], json.dumps

    def dumps(value, **kwargs):
        calls.append(kwargs)
        return real_dumps(value, **kwargs)

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json, "dumps", dumps)
    for value in EDGE_CASES:
        assert dumps_indented(value) == real_dumps(value, indent=2)
    assert calls == [{"indent": 2}] * len(EDGE_CASES)


@pytest.mark.parametrize(
    "value", [{"a": {1, 2}}, [[object()]], {(1, 2): [1]}],
    ids=["set", "object", "tuple-key"],
)
def test_unserializable_value_raises_like_json_dumps(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        dumps_indented(value)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("value, cell", [
    (None, ""),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (1e300, "1e+300"),
    (1 / 3, "0.3333333333333333"),
    (np.float64(0.1), "0.1"),
    (True, "True"),
    (False, "False"),
    (7, "7"),
    (2**70, "1180591620717411303424"),
    ("plain", "plain"),
    ("a,b", '"a,b"'),
    ("two\nlines", '"two\nlines"'),
    ('say "hi"', '"say ""hi"""'),
    ((0.5,), "[0.5]"),
    ((0.1, 0.25), '"[0.1, 0.25]"'),
], ids=repr)
def test_csv_table_cells(value, cell):
    # A float at full repr precision (a numpy float like a float), None
    # as an empty cell, a tuple as a JSON list, quoted where csv must.
    text = csv_table(["k", "v"], [{"k": "x", "v": value}, {"k": "y"}])
    assert text == f"k,v\nx,{cell}\ny,\n"


NAN = float("nan")
INF = float("inf")

#: A float field of each spec kind, built with the given value.
FLOAT_FIELDS = {
    "scenario-load": lambda x: Scenario("crossbar", 8, x),
    "scenario-load-vector": lambda x: Scenario("crossbar", 8, [0.3] * 7 + [x]),
    "technology": lambda x: dataclasses.replace(TECH_180NM, voltage_v=x),
    "network-spec": lambda x: get_network("dumbbell_switchoff").replace(
        port_power_w=x
    ),
    "demand": lambda x: Demand("a", "b", x),
    "link": lambda x: Link("a", "b", length_m=x),
    "control-spec": lambda x: get_control("dumbbell_sleep_sweep").replace(
        wake_energy_j=x
    ),
    "demand-series": lambda x: DemandSeries(
        "x", get_network("dumbbell_switchoff").matrix, (1.0, x)
    ),
    "fault": lambda x: Fault("hang", 0, hang_s=x),
}


@pytest.mark.parametrize("build", FLOAT_FIELDS.values(),
                         ids=FLOAT_FIELDS.keys())
def test_float_fields_refuse_nan(build):
    # NaN passes every `< 0.0` range check after the type check, and a
    # record holding it exports JSON that no strict parser reads.
    with pytest.raises(ConfigurationError, match="must be finite"):
        build(NAN)


@pytest.mark.parametrize("value", [INF, -INF], ids=["inf", "-inf"])
@pytest.mark.parametrize("build", FLOAT_FIELDS.values(),
                         ids=FLOAT_FIELDS.keys())
def test_float_fields_refuse_infinity(build, value):
    # +inf passes every `< 0.0` range check too, and Python's json
    # writes it as `Infinity`, which strict parsers refuse as well.
    with pytest.raises(ConfigurationError, match="must be finite"):
        build(value)
