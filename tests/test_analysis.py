"""Analysis helpers: queueing theory, the power-at-throughput read-off
and report formatting."""

import math

import pytest

from repro.analysis.report import (
    format_comparison,
    format_series,
    format_table,
    sparkline,
)
from repro.analysis.theory import (
    KAROL_HLUCHYJ_TABLE,
    effective_capacity,
    hol_saturation_asymptote,
    hol_saturation_throughput,
    mm1_queue_delay_slots,
)
from repro.campaigns import Campaign, run_campaign
from repro.errors import ConfigurationError


class TestSaturationTheory:
    def test_asymptote_is_2_minus_sqrt2(self):
        assert hol_saturation_asymptote() == pytest.approx(2 - math.sqrt(2))
        # The paper quotes 58.6%.
        assert hol_saturation_asymptote() == pytest.approx(0.586, abs=0.001)

    @pytest.mark.parametrize("ports", [2, 4, 8])
    def test_finite_n_matches_karol_table(self, ports):
        value = hol_saturation_throughput(ports, slots=30000, seed=1)
        assert value == pytest.approx(KAROL_HLUCHYJ_TABLE[ports], abs=0.01)

    def test_single_port_is_one(self):
        assert hol_saturation_throughput(1) == 1.0

    def test_monotone_decreasing_in_ports(self):
        values = [hol_saturation_throughput(n, slots=15000) for n in (2, 4, 16)]
        assert values[0] > values[1] > values[2]

    def test_effective_capacity(self):
        assert effective_capacity(8) == KAROL_HLUCHYJ_TABLE[8]
        assert effective_capacity(128) == pytest.approx(2 - math.sqrt(2))

    def test_mm1_delay(self):
        assert mm1_queue_delay_slots(0.0) == 0.0
        assert mm1_queue_delay_slots(0.5) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            mm1_queue_delay_slots(1.0)


class TestThroughputSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        """A 4-port crossbar swept over three loads."""
        return run_campaign(Campaign(
            name="sweep",
            architectures=("crossbar",),
            ports=(4,),
            loads=(0.1, 0.3, 0.5),
            base={"arrival_slots": 300, "warmup_slots": 50, "seed": 2},
        ))

    def test_interpolation(self, sweep):
        lo, mid, hi = (
            sweep.interpolated_power(target)[0]["power_w"]
            for target in (0.1, 0.2, 0.3)
        )
        assert lo < mid < hi


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["arch", "power"],
            [["crossbar", 1.5], ["banyan", 20.25]],
            title="Fig. 10",
        )
        assert "Fig. 10" in text
        assert "crossbar" in text and "banyan" in text
        lines = text.splitlines()
        assert len({len(l) for l in lines[1:]}) == 1  # box is rectangular

    def test_format_table_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        text = format_series("banyan", [0.1, 0.2], [1e-3, 2e-3], y_scale=1e3)
        assert "banyan" in text
        assert "1.0000" in text and "2.0000" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_series("x", [1.0], [])

    def test_format_comparison(self):
        line = format_comparison("E_T", 87e-15, 87.12e-15, unit="J")
        assert "paper=" in line and "measured=" in line and "x1.00" in line

    def test_sparkline(self):
        assert len(sparkline([1, 2, 3, 2, 1])) == 5
        assert sparkline([]) == ""
