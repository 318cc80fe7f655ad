"""Banyan topology arithmetic: pairing, self-routing, spans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.fabrics import topology


class TestStageArithmetic:
    def test_stage_count(self):
        assert topology.stage_count(2) == 1
        assert topology.stage_count(32) == 5

    @pytest.mark.parametrize("bad", [0, 1, 3, 12, -8])
    def test_bad_ports_rejected(self, bad):
        with pytest.raises(TopologyError):
            topology.stage_count(bad)

    def test_msb_first_bits(self):
        # Physical stage 0 fixes the MSB.
        assert topology.stage_bit(16, 0) == 3
        assert topology.stage_bit(16, 3) == 0

    def test_spans_shrink_toward_egress(self):
        spans = [topology.stage_span(16, s) for s in range(4)]
        assert spans == [8, 4, 2, 1]

    def test_stage_out_of_range(self):
        with pytest.raises(TopologyError):
            topology.stage_bit(8, 3)


class TestSwitchPairing:
    def test_lines_differ_in_stage_bit(self):
        for ports in (4, 8, 16):
            for stage in range(topology.stage_count(ports)):
                span = topology.stage_span(ports, stage)
                for k in range(ports // 2):
                    lo, hi = topology.switch_lines(ports, stage, k)
                    assert hi == lo ^ span

    def test_index_and_lines_roundtrip(self):
        for ports in (4, 8, 16, 32):
            for stage in range(topology.stage_count(ports)):
                for line in range(ports):
                    k = topology.switch_index(ports, stage, line)
                    assert line in topology.switch_lines(ports, stage, k)

    def test_every_line_in_exactly_one_switch(self):
        ports, stage = 16, 2
        seen = []
        for k in range(ports // 2):
            seen.extend(topology.switch_lines(ports, stage, k))
        assert sorted(seen) == list(range(ports))

    def test_input_index_is_stage_bit(self):
        assert topology.switch_input_index(8, 0, 4) == 1  # bit 2 set
        assert topology.switch_input_index(8, 0, 3) == 0

    def test_bad_switch_rejected(self):
        with pytest.raises(TopologyError):
            topology.switch_lines(8, 0, 4)


class TestSelfRouting:
    @pytest.mark.parametrize("ports", [2, 4, 8, 16, 32, 64])
    def test_all_pairs_deliver(self, ports):
        """Self-routing must reach every (src, dest) pair."""
        for src in range(ports):
            for dest in range(ports):
                path = topology.path_lines(ports, src, dest)
                assert path[0] == src
                assert path[-1] == dest
                assert len(path) == topology.stage_count(ports) + 1

    def test_route_line_sets_one_bit(self):
        # Stage 0 of an 8-port banyan fixes bit 2.
        assert topology.route_line(8, 0, 0b000, 0b100) == 0b100
        assert topology.route_line(8, 0, 0b111, 0b000) == 0b011

    def test_crossed_detection(self):
        assert topology.crossed(8, 0, 0, 4)
        assert not topology.crossed(8, 0, 4, 4)

    def test_out_of_range_lines(self):
        with pytest.raises(TopologyError):
            topology.route_line(8, 0, 8, 0)
        with pytest.raises(TopologyError):
            topology.route_line(8, 0, 0, 9)


@settings(max_examples=100, deadline=None)
@given(
    log_ports=st.integers(min_value=1, max_value=6),
    src=st.integers(min_value=0, max_value=63),
    dest=st.integers(min_value=0, max_value=63),
)
def test_path_property(log_ports, src, dest):
    """Property: each stage fixes exactly its own address bit."""
    ports = 1 << log_ports
    src %= ports
    dest %= ports
    path = topology.path_lines(ports, src, dest)
    for stage, (before, after) in enumerate(zip(path, path[1:])):
        bit = topology.stage_bit(ports, stage)
        mask = 1 << bit
        assert after & mask == dest & mask
        assert after & ~mask == before & ~mask


class TestGraphs:
    def test_banyan_graph_shape(self):
        g = topology.banyan_graph(8)
        switches = [v for v in g if v[0] == "sw"]
        assert len(switches) == 12  # 3 stages x 4 switches
