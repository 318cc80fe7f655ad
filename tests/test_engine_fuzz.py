"""Differential fuzz of the two engines: random scenarios, equal results.

One hypothesis strategy draws whole scenarios across the space the
fixed matrix of ``tests/test_engine_equivalence.py`` samples sparsely:
every built-in fabric at the port counts it accepts (odd counts and
64-port crossbars included), loads 0 to 1 with both ends, FIFO or VOQ
with K = 1..6 iSLIP iterations, bounded and unbounded ingress queues,
five traffic kinds (the fixed-size ones at packet sizes from 0 bits to
three cells, bursty with mean bursts of 1 to 16 slots), every wire
mode, banyan node buffers of 1 to 8 cells in SRAM or refreshed DRAM,
and windows from a single arrival slot to a few hundred, so that some
span several of the vectorized engine's arrival blocks.  Each scenario
runs through the reference and the vectorized engine, with the vector
cores settling their wire queues every 1 to 2,048 transfers, and the
two results must be equal field for field.

Runs are derandomized, so the suite sees the same examples every time.
The example count comes from the active hypothesis profile: the default
100 here, 1,000 with ``--hypothesis-profile engine-fuzz`` (registered in
``tests/conftest.py``)::

    PYTHONPATH=src python -m pytest tests/test_engine_fuzz.py \\
        --hypothesis-profile engine-fuzz
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_engine_equivalence import assert_identical, run_pair

from repro.api import Scenario
from repro.fabrics import vectorized
from repro.wire_modes import WireMode

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Port counts each fabric accepts: any count for the crossbar and the
#: fully connected fabric, powers of two for the banyans.
PORTS = {
    "crossbar": st.integers(2, 40) | st.just(64),
    "fully_connected": st.integers(2, 40),
    "banyan": st.sampled_from([2, 4, 8, 16, 32]),
    "batcher_banyan": st.sampled_from([4, 8, 16, 32]),
}


#: Packet sizes for the fixed-size traffic kinds: empty, sub-word,
#: around one bus word, one full cell (the default) and three cells.
PACKET_BITS = [0, 1, 31, 33, 480, 1000]

#: Banyan node-buffer sizes: the paper's 4 Kbit default (8 of the
#: default 512-bit cells), then 1, 2 and 3 cells, where buffer-full
#: stalls are common.
BUFFER_BITS = [None, 512, 1024, 1536]


@st.composite
def scenarios(draw) -> Scenario:
    architecture = draw(st.sampled_from(sorted(PORTS)))
    queueing = draw(st.sampled_from(["fifo", "voq"]))
    traffic = draw(st.sampled_from(
        ["bernoulli", "hotspot", "trimodal", "permutation", "bursty"]
    ))
    params = {}
    if traffic != "trimodal":
        params["packet_bits"] = draw(st.sampled_from(PACKET_BITS))
    if traffic == "bursty":  # BurstyTraffic rejects loads 0 and 1
        params["burst_len"] = draw(st.floats(1.0, 16.0))
        load = draw(st.floats(0.01, 0.99))
    else:
        load = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    ports = draw(PORTS[architecture])
    # Mostly short windows; some longer than one 64-slot arrival block,
    # as long as the port count keeps the run cheap.
    long_window = st.integers(65, min(250, max(65, 3000 // ports)))
    return Scenario(
        architecture,
        ports,
        load,
        queueing=queueing,
        islip_iterations=draw(st.integers(1, 6)) if queueing == "voq" else 1,
        ingress_queue_cells=draw(st.sampled_from([None, 1, 3])),
        traffic=traffic,
        traffic_params=params,
        wire_mode=draw(st.sampled_from(list(WireMode))),
        buffer_memory=draw(st.sampled_from(["sram", "dram"])),
        buffer_bits_per_switch=draw(st.sampled_from(BUFFER_BITS)),
        arrival_slots=draw(st.integers(1, 60) | long_window),
        warmup_slots=draw(st.integers(0, 10)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@SETTINGS
@given(scenario=scenarios(), settle_transfers=st.integers(1, 2048))
# The Batcher-Banyan lays out its ingress wire events in grant order, so
# a matcher that emits its winners in ascending input order instead of
# the reference's first-grant order diverges here after one slot; the
# default random budget misses that break.
@example(
    scenario=Scenario(
        "batcher_banyan", 8, 1.0, queueing="voq", islip_iterations=2,
        arrival_slots=1, warmup_slots=0, seed=0,
    ),
    settle_transfers=2048,
)
# Stream-v1 Bernoulli traffic at odd port counts over windows that span
# several arrival blocks, into bounded FIFOs (multi-cell packets) and
# unbounded VOQs (packets of one word and one bit); the derandomized
# budget draws few such cases.
@example(
    scenario=Scenario(
        "crossbar", 5, 0.6, ingress_queue_cells=3,
        traffic_params={"packet_bits": 1000},
        arrival_slots=150, warmup_slots=7, seed=3,
    ),
    settle_transfers=2048,
)
@example(
    scenario=Scenario(
        "fully_connected", 7, 0.45, queueing="voq", islip_iterations=2,
        traffic_params={"packet_bits": 33},
        arrival_slots=130, warmup_slots=3, seed=11,
    ),
    settle_transfers=2048,
)
# A banyan with one-cell node buffers under full load: during the drain
# two latch cells at a switch with an empty buffer contend, the winner is
# blocked downstream, and the loser fills the buffer, so the winner
# stalls in its latch.  Without buffer draws the budget never sees it.
@example(
    scenario=Scenario(
        "banyan", 16, 1.0, buffer_bits_per_switch=512,
        arrival_slots=17, warmup_slots=0, seed=2,
    ),
    settle_transfers=2048,
)
# The two edges of a Batcher-Banyan settlement batch at the full
# budget: at 32 ports and low load a batch ends when its held slots fill
# the line-slot bound, at 16 ports and full load when its held cells
# fill the cell bound.  Random budgets are mostly far smaller.
@example(
    scenario=Scenario(
        "batcher_banyan", 32, 0.03,
        arrival_slots=250, warmup_slots=5, seed=3,
    ),
    settle_transfers=2048,
)
@example(
    scenario=Scenario(
        "batcher_banyan", 16, 1.0,
        arrival_slots=120, warmup_slots=5, seed=3,
    ),
    settle_transfers=2048,
)
def test_engines_agree(scenario, settle_transfers):
    with mock.patch.object(vectorized, "SETTLE_TRANSFERS", settle_transfers):
        ref, vec = run_pair(scenario)
    assert_identical(ref, vec)
