"""Packets, cells, segmentation and headers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.router.cells import Cell, CellFormat, segment_packet
from repro.router.packet import Packet, bus_mask, make_payload_words


class TestPayloadWords:
    def test_word_count(self):
        rng = np.random.default_rng(0)
        words = make_payload_words(rng, 480, 32)
        assert words.size == 15

    def test_partial_tail_word_masked(self):
        rng = np.random.default_rng(0)
        words = make_payload_words(rng, 40, 32)  # 1 full + 8 bits
        assert words.size == 2
        assert int(words[1]) < (1 << 8)

    def test_zero_bits(self):
        rng = np.random.default_rng(0)
        assert make_payload_words(rng, 0, 32).size == 0

    def test_deterministic_by_seed(self):
        a = make_payload_words(np.random.default_rng(7), 320, 32)
        b = make_payload_words(np.random.default_rng(7), 320, 32)
        assert np.array_equal(a, b)

    def test_bus_mask_wrapper_raises_library_error(self):
        with pytest.raises(ConfigurationError):
            bus_mask(0)


class TestCellFormat:
    def test_paper_default_geometry(self):
        fmt = CellFormat()
        assert fmt.cell_bits == 512
        assert fmt.payload_bits_per_cell == 480
        assert fmt.payload_words == 15

    def test_slot_seconds_100baset(self):
        fmt = CellFormat()
        assert fmt.slot_seconds(100e6) == pytest.approx(5.12e-6)

    def test_header_word_fields(self):
        fmt = CellFormat()
        word = fmt.header_word(dest_port=5, cell_index=3, packet_id=9)
        assert word & 0xFF == 5
        assert (word >> 8) & 0xFF == 3
        assert (word >> 16) == 9 & 0xFFFF

    def test_rejects_tiny_cells(self):
        with pytest.raises(ConfigurationError):
            CellFormat(words=1)


class TestSegmentation:
    def test_single_cell_packet(self):
        fmt = CellFormat()
        rng = np.random.default_rng(1)
        packet = Packet.random(rng, 0, 2, 5, 480, 32)
        cells = segment_packet(packet, fmt)
        assert len(cells) == 1
        assert cells[0].payload_bits == 480
        assert cells[0].is_tail

    def test_multi_cell_packet(self):
        fmt = CellFormat()
        rng = np.random.default_rng(1)
        packet = Packet.random(rng, 0, 2, 5, 1500 * 8, 32)  # 12000 bits
        cells = segment_packet(packet, fmt)
        assert len(cells) == 25  # ceil(12000 / 480)
        assert sum(c.payload_bits for c in cells) == 12000
        assert all(c.cell_count == 25 for c in cells)
        assert [c.cell_index for c in cells] == list(range(25))

    def test_payload_bits_roundtrip(self):
        """Segmented payload words concatenate back to the original."""
        fmt = CellFormat(bus_width=32, words=4)
        rng = np.random.default_rng(3)
        packet = Packet.random(rng, 0, 1, 2, 500, 32)
        cells = segment_packet(packet, fmt)
        rebuilt = np.concatenate([c.words[1:] for c in cells])
        original = packet.payload_words
        assert np.array_equal(rebuilt[: original.size], original)
        assert not rebuilt[original.size :].any()  # zero padding

    def test_zero_size_packet_gets_one_cell(self):
        fmt = CellFormat()
        packet = Packet(0, 1, 2, np.zeros(0, dtype=np.uint64), 0)
        cells = segment_packet(packet, fmt)
        assert len(cells) == 1
        assert cells[0].payload_bits == 0

    def test_header_embedded_in_every_cell(self):
        fmt = CellFormat(bus_width=32, words=4)
        rng = np.random.default_rng(3)
        packet = Packet.random(rng, 7, 1, 3, 400, 32)
        for cell in segment_packet(packet, fmt):
            assert int(cell.words[0]) & 0xFF == 3

    @settings(max_examples=50, deadline=None)
    @given(size_bits=st.integers(min_value=0, max_value=16000))
    def test_segmentation_conserves_bits(self, size_bits):
        fmt = CellFormat()
        rng = np.random.default_rng(11)
        packet = Packet.random(rng, 0, 0, 1, size_bits, 32)
        cells = segment_packet(packet, fmt)
        assert sum(c.payload_bits for c in cells) == size_bits
        assert len(cells) == max(1, -(-size_bits // 480))


class TestCellValidation:
    def test_bad_coordinates(self):
        with pytest.raises(ConfigurationError):
            Cell(0, 2, 2, 0, 0, np.zeros(4, dtype=np.uint64), 0)

    def test_negative_payload_bits(self):
        with pytest.raises(ConfigurationError):
            Cell(0, 0, 1, 0, 0, np.zeros(4, dtype=np.uint64), -1)
