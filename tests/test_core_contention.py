"""Patel load recurrence and blocking probabilities."""

import pytest

from repro.core import contention
from repro.errors import ConfigurationError


class TestStageLoads:
    def test_length_is_stages_plus_one(self):
        loads = contention.banyan_stage_loads(16, 0.5)
        assert len(loads) == 5  # n=4 stages + input

    def test_first_entry_is_input_load(self):
        assert contention.banyan_stage_loads(8, 0.37)[0] == pytest.approx(0.37)

    def test_loads_decrease_monotonically(self):
        loads = contention.banyan_stage_loads(32, 0.9)
        assert all(a >= b for a, b in zip(loads, loads[1:]))

    def test_zero_load_stays_zero(self):
        assert contention.banyan_stage_loads(8, 0.0) == [0.0] * 4

    def test_recurrence_step(self):
        # rho1 = 1 - (1 - rho0/2)^2 for one stage.
        loads = contention.banyan_stage_loads(2, 0.6)
        assert loads[1] == pytest.approx(1 - (1 - 0.3) ** 2)

    def test_rejects_bad_ports(self):
        with pytest.raises(ConfigurationError):
            contention.banyan_stage_loads(6, 0.5)

    def test_rejects_bad_load(self):
        with pytest.raises(ConfigurationError):
            contention.banyan_stage_loads(8, 1.5)


class TestBlocking:
    def test_blocking_is_quarter_load(self):
        loads = contention.banyan_stage_loads(16, 0.4)
        blocks = contention.banyan_blocking_probability(16, 0.4)
        assert blocks == pytest.approx([rho / 4 for rho in loads[:-1]])

    def test_expected_bufferings_increase_with_load(self):
        # A cell's expected bufferings are the Eq. 5 sum of q_i.
        low = sum(contention.banyan_blocking_probability(32, 0.1))
        high = sum(contention.banyan_blocking_probability(32, 0.5))
        assert 0 < low < high

    def test_expected_bufferings_increase_with_ports(self):
        small = sum(contention.banyan_blocking_probability(4, 0.4))
        large = sum(contention.banyan_blocking_probability(64, 0.4))
        assert large > small


class TestThroughput:
    def test_saturated_32_port_around_0_4(self):
        """Classic Patel result: unbuffered 32x32 banyan ~40% capacity."""
        peak = contention.banyan_stage_loads(32, 1.0)[-1]
        assert 0.35 < peak < 0.50

    def test_light_load_passes_through(self):
        out = contention.banyan_stage_loads(16, 0.05)[-1]
        assert out == pytest.approx(0.05, rel=0.1)


class TestDuty:
    def test_stages_helper(self):
        assert contention.stages(32) == 5
        with pytest.raises(ConfigurationError):
            contention.stages(12)
