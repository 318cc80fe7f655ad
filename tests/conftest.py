"""Shared fixtures for the test suite.

Plain helper functions (``make_cell`` and friends) live in
:mod:`helpers` (``tests/helpers.py``) — import them from there, never
from ``conftest``: the name ``conftest`` is ambiguous between this file
and ``benchmarks/conftest.py`` at collection time.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.router.cells import CellFormat
from repro.tech import TECH_180NM
from repro.tech.wires import WireModel

#: ``--hypothesis-profile engine-fuzz``: the large derandomized budget
#: CI gives ``tests/test_engine_fuzz.py``, whose settings leave the
#: example count to the active profile.
settings.register_profile("engine-fuzz", max_examples=1000)


@pytest.fixture
def tech():
    """The paper's 0.18 um node."""
    return TECH_180NM


@pytest.fixture
def wire_model(tech):
    return WireModel(tech)


@pytest.fixture
def cell_format():
    """Paper default: 32-bit bus, 16 words (512-bit cells)."""
    return CellFormat(bus_width=32, words=16)
