"""Cell store segmentation: the batch path writes what add_packet writes."""

import numpy as np
import pytest

from repro.router.cells import CellFormat
from repro.router.packet import Packet
from repro.router.traffic import (
    ArrivalBatch,
    BernoulliUniformTraffic,
    TraceEntry,
    TraceTraffic,
)
from repro.sim.cellstore import CellStore

ALL_ONES = np.uint64(2**64 - 1)

COLUMNS = ("dest", "src", "packet_id", "cell_index", "cell_count",
           "payload_bits", "created_slot")


def _dirty_store(fmt: CellFormat) -> CellStore:
    store = CellStore(fmt, capacity=64)
    store.words.fill(ALL_ONES)
    return store


def _rows(store: CellStore, ids: list[int]) -> tuple:
    return (store.words[ids].tolist(),
            [[getattr(store, c)[i] for c in COLUMNS] for i in ids])


@pytest.mark.parametrize("packet_bits", [0, 1, 100, 448, 480])
def test_batch_rows_match_add_packet_over_dirty_rows(packet_bits):
    """Recycled rows hold stale bits; the single-cell path must still
    write zero tail padding exactly like per-packet segmentation."""
    fmt = CellFormat()
    gen = BernoulliUniformTraffic(8, 1.0, packet_bits=packet_bits)
    batch = gen.arrivals_batch(3, np.random.default_rng(8))
    assert batch.words_per_packet == -(-packet_bits // 32)

    by_batch = _dirty_store(fmt)
    ids, slices = by_batch.add_batch(batch)
    assert slices == list(range(len(batch) + 1))
    by_packet = _dirty_store(fmt)
    packet_ids = [cid for i in range(len(batch))
                  for cid in by_packet.add_packet(batch, i)]

    assert _rows(by_batch, ids) == _rows(by_packet, packet_ids)
    tail = 1 + batch.words_per_packet
    assert not by_batch.words[ids, tail:].any()


def test_mixed_batch_takes_the_per_packet_path():
    fmt = CellFormat(words=4)  # 96 payload bits per cell
    entries = [TraceEntry(0, 0, 1, 40), TraceEntry(0, 1, 2, 200)]
    rng = np.random.default_rng(1)
    batch = TraceTraffic(4, entries).arrivals_batch(0, rng)
    assert batch.words_per_packet is None
    store = _dirty_store(fmt)
    ids, slices = store.add_batch(batch)
    assert slices == [0, 1, 4]
    assert [store.cell_index[i] for i in ids] == [0, 0, 1, 2]
    assert [store.payload_bits[i] for i in ids] == [40, 96, 96, 8]


def test_legacy_packets_segment_by_their_real_words():
    """A legacy Packet may carry more words than its size needs; the
    batch width follows the words, as add_packet does."""
    words = np.arange(1, 4, dtype=np.uint64)
    packets = [Packet(i, i, 1, words + i, size_bits=40) for i in range(2)]
    batch = ArrivalBatch.from_packets(0, 32, packets)
    assert batch.words_per_packet == 3
    by_batch = _dirty_store(CellFormat())
    ids, _ = by_batch.add_batch(batch)
    by_packet = _dirty_store(CellFormat())
    packet_ids = [cid for i in range(2)
                  for cid in by_packet.add_packet(batch, i)]
    assert _rows(by_batch, ids) == _rows(by_packet, packet_ids)
