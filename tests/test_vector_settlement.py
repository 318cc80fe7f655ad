"""Batched wire settlement of the vectorized fabric cores.

The cores queue wire transfers and settle them in batches; these tests
pin what a settlement must preserve: the ledger's per-component add
sequence and first-insertion order (:func:`charge_events`), equivalence
with the reference engine when settlements land every slot or two, the
Batcher-Banyan kernel's blocking check, the flip-bound invariant, the
cell rows a core holds between settlements, and the Batcher-Banyan's
two bounds on a settlement batch.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PowerModel, Scenario
from repro.errors import SimulationError
from repro.fabrics import vectorized
from repro.fabrics.factory import build_fabric
from repro.fabrics.vectorized import charge_events, make_vector_core
from repro.sim.cellstore import CellStore
from repro.sim.runner import build_router
from repro.sim.vector_engine import VectorizedEngine

ARCHES = ("crossbar", "fully_connected", "banyan", "batcher_banyan")

LABELS = [f"comp{i}" for i in range(6)]

_energy = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-18, max_value=1e-9),
    st.floats(min_value=1e-3, max_value=1e3),
)


@settings(max_examples=200, deadline=None)
@given(
    prefill=st.dictionaries(st.sampled_from(LABELS), _energy, max_size=4),
    events=st.lists(
        st.tuples(st.integers(0, len(LABELS) - 1), _energy), max_size=60
    ),
)
def test_charge_events_replays_the_per_event_loop(prefill, events):
    expected = defaultdict(float, prefill)
    for key, energy in events:
        if energy:
            expected[LABELS[key]] += energy
    charged = defaultdict(float, prefill)
    charge_events(
        charged,
        np.array(LABELS, dtype=object),
        np.array([key for key, _ in events], dtype=np.intp),
        np.array([energy for _, energy in events], dtype=np.float64),
    )
    assert list(charged) == list(expected)
    assert [v.hex() for v in charged.values()] == [
        v.hex() for v in expected.values()
    ]


@pytest.mark.parametrize("arch", ARCHES)
def test_engines_agree_when_settling_every_slot_or_two(arch, monkeypatch):
    monkeypatch.setattr(vectorized, "SETTLE_TRANSFERS", 16)
    scenario = Scenario(
        arch, 8, 0.9, arrival_slots=140, warmup_slots=25, seed=97
    )
    session = PowerModel()
    ref = session.simulate(scenario.replace(engine="reference")).detail
    vec = session.simulate(scenario.replace(engine="vectorized")).detail
    assert ref.drain_slots > 0
    assert ref == vec


def _core_with_cells(arch, dests, bus_width=32):
    """A bare vector core plus one stored cell per destination."""
    from repro.router.cells import CellFormat

    fabric = build_fabric(
        arch, 8, cell_format=CellFormat(bus_width=bus_width)
    )
    store = CellStore(fabric.cell_format)
    core = make_vector_core(fabric, store)
    ids = []
    for i, dest in enumerate(dests):
        cid = store.alloc()
        store.words[cid] = np.arange(i, i + store.words.shape[1])
        store.dest[cid] = dest
        ids.append(cid)
    return core, ids


def test_batcher_kernel_rejects_a_shared_destination():
    core, (a, b) = _core_with_cells("batcher_banyan", [5, 5])
    core.advance([(0, a), (3, b)], 0)
    with pytest.raises(SimulationError, match="internal blocking"):
        core.settle()


def test_word_wider_than_the_bus_is_rejected():
    core, (cid,) = _core_with_cells("crossbar", [2])
    core.store.words[cid, 3] |= np.uint64(1 << 40)
    core.advance([(1, cid)], 0)
    with pytest.raises(SimulationError, match=f"cell {cid} .*32-bit bus"):
        core.settle()


def test_held_rows_stay_bounded_by_the_budget():
    ports, queue = 32, 16
    router = build_router(
        "crossbar", ports, load=0.9, ingress_queue_cells=queue
    )
    engine = VectorizedEngine(router, seed=5)
    result = engine.run(2000, warmup_slots=100)
    # Live rows: queued ingress cells plus the delivered cells held
    # until the next settlement (a crossbar cell is two transfers).
    held = ports * queue + vectorized.SETTLE_TRANSFERS // 2 + ports
    assert result.delivered_cells > 8 * held
    assert engine.store.capacity <= max(1024, 2 * held)


@pytest.mark.parametrize("load", [0.02, 1.0])
def test_batcher_settlements_stay_within_both_bounds(load, monkeypatch):
    # At load 0.02 the held slots reach their bound first, at 1.0 the
    # held cells do.
    ports, queue = 32, 16
    budget = vectorized.SETTLE_TRANSFERS
    held = []
    sort_and_route = vectorized.BatcherBanyanCore._sort_and_route

    def recorded(core):
        held.append((len(core._grants), len(core._sizes)))
        sort_and_route(core)

    monkeypatch.setattr(
        vectorized.BatcherBanyanCore, "_sort_and_route", recorded
    )
    router = build_router(
        "batcher_banyan", ports, load=load, ingress_queue_cells=queue
    )
    engine = VectorizedEngine(router, seed=3)
    result = engine.run(2000, warmup_slots=100)
    cost = 1 + engine._core._traversals  # wire events per cell
    # Each bound is checked after a slot adds at most one line-slot per
    # port and one cell per port.
    assert max(slots for _, slots in held) * ports < budget + ports
    assert max(cells for cells, _ in held) * cost < 4 * budget + ports * cost
    assert len(held) > 10
    # Live rows: queued ingress cells plus the cells held for settlement.
    rows = ports * queue + 4 * budget // cost + ports
    assert result.delivered_cells > rows
    assert engine.store.capacity <= max(1024, 2 * rows)
