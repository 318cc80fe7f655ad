"""Analytical power estimator."""

import pytest

from repro.core.estimator import (
    ARCHITECTURES,
    canonical_architecture,
    estimate_all_architectures,
    estimate_power,
)
from repro.errors import ConfigurationError
from repro.tech import TECH_130NM, TECH_180NM


class TestCanonicalNames:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("crossbar", "crossbar"),
            ("xbar", "crossbar"),
            ("Fully Connected", "fully_connected"),
            ("fc", "fully_connected"),
            ("batcher", "batcher_banyan"),
            ("Batcher-Banyan", "batcher_banyan"),
            ("banyan", "banyan"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert canonical_architecture(alias) == expected

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            canonical_architecture("clos")

    def test_custom_fabric_has_no_closed_forms(self):
        """A registered fabric resolves in the registry, but the
        estimator refuses it instead of pricing it as a Batcher-Banyan."""
        from repro.fabrics.crossbar import CrossbarFabric
        from repro.fabrics.registry import register_fabric, unregister_fabric

        class EstimatorFabric(CrossbarFabric):
            architecture = "est_custom"

        register_fabric("est_custom", EstimatorFabric)
        try:
            with pytest.raises(ConfigurationError, match="closed forms"):
                estimate_power("est_custom", 4, 0.3)
        finally:
            unregister_fabric("est_custom")


class TestEstimates:
    def test_breakdown_sums_to_total(self):
        est = estimate_power("banyan", 16, 0.4)
        assert est.bit_energy_j == pytest.approx(
            est.switch_energy_j + est.wire_energy_j + est.buffer_energy_j
        )

    def test_power_is_energy_times_rate(self):
        est = estimate_power("crossbar", 8, 0.5)
        assert est.total_power_w == pytest.approx(
            est.bit_energy_j * 8 * 0.5 * TECH_180NM.line_rate_bps
        )

    def test_power_linear_in_throughput_for_bufferless(self):
        lo = estimate_power("crossbar", 8, 0.25)
        hi = estimate_power("crossbar", 8, 0.50)
        assert hi.total_power_w == pytest.approx(2 * lo.total_power_w)

    def test_banyan_superlinear_in_throughput(self):
        """Buffer penalty: power grows faster than throughput."""
        lo = estimate_power("banyan", 32, 0.25)
        hi = estimate_power("banyan", 32, 0.50)
        assert hi.total_power_w > 2 * lo.total_power_w

    def test_bufferless_fabrics_have_zero_buffer_energy(self):
        for arch in ("crossbar", "fully_connected", "batcher_banyan"):
            assert estimate_power(arch, 8, 0.4).buffer_energy_j == 0.0

    def test_banyan_has_buffer_energy_under_load(self):
        assert estimate_power("banyan", 8, 0.4).buffer_energy_j > 0.0

    def test_zero_flip_fraction_removes_wire_energy(self):
        est = estimate_power("crossbar", 8, 0.4, flip_fraction=0.0)
        assert est.wire_energy_j == 0.0

    def test_wire_mode_expected_cheaper_for_banyan(self):
        worst = estimate_power("banyan", 16, 0.3, wire_mode="worst_case")
        expected = estimate_power("banyan", 16, 0.3, wire_mode="expected")
        assert expected.wire_energy_j < worst.wire_energy_j

    def test_technology_scaling(self):
        old = estimate_power("crossbar", 8, 0.4, tech=TECH_180NM)
        new = estimate_power("crossbar", 8, 0.4, tech=TECH_130NM)
        assert new.wire_energy_j < old.wire_energy_j

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            estimate_power("crossbar", 8, 1.5)
        with pytest.raises(ConfigurationError):
            estimate_power("crossbar", 8, 0.5, flip_fraction=2.0)
        with pytest.raises(ConfigurationError):
            estimate_power("crossbar", 8, 0.5, wire_mode="median")

    def test_dominant_component_labels(self):
        est = estimate_power("fully_connected", 32, 0.5)
        assert est.dominant_component in ("switches", "wires", "buffers")


class TestPaperShapes:
    """Qualitative Fig. 9/10 relationships in the analytic model."""

    def test_fc_cheapest_at_small_ports(self):
        at4 = estimate_all_architectures(4, 0.5)
        cheapest = min(at4, key=lambda a: at4[a].total_power_w)
        assert cheapest == "fully_connected"

    def test_banyan_cheapest_at_32_low_load(self):
        at32 = estimate_all_architectures(32, 0.20)
        cheapest = min(at32, key=lambda a: at32[a].total_power_w)
        assert cheapest == "banyan"

    def test_batcher_banyan_most_expensive_of_contention_free(self):
        ests = estimate_all_architectures(16, 0.5)
        assert (
            ests["batcher_banyan"].total_power_w
            > ests["fully_connected"].total_power_w
        )

    def test_all_architectures_covered(self):
        assert set(estimate_all_architectures(8, 0.3)) == set(ARCHITECTURES)
