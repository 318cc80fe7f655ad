"""Closed-form worst-case bit energies (paper Eq. 3-6)."""

import pytest

from repro.core import analytical
from repro.errors import ConfigurationError
from repro.tech import TECH_180NM
from repro.units import fJ

E_T = TECH_180NM.grid_bit_energy_j


class TestCrossbarEq3:
    def test_formula(self):
        # E = N*E_S + 8N*E_T.
        e = analytical.bit_energy_crossbar(8, fJ(220), E_T)
        assert e == pytest.approx(8 * fJ(220) + 64 * E_T)

    def test_linear_in_ports(self):
        e4 = analytical.bit_energy_crossbar(4, fJ(220), E_T)
        e8 = analytical.bit_energy_crossbar(8, fJ(220), E_T)
        assert e8 == pytest.approx(2 * e4)

    def test_rejects_zero_ports(self):
        with pytest.raises(ConfigurationError):
            analytical.bit_energy_crossbar(0, fJ(220), E_T)


class TestFullyConnectedEq4:
    def test_formula(self):
        e = analytical.bit_energy_fully_connected(8, fJ(782), E_T)
        assert e == pytest.approx(fJ(782) + 0.5 * 64 * E_T)

    def test_quadratic_wire_term(self):
        e8 = analytical.bit_energy_fully_connected(8, 0.0, E_T)
        e16 = analytical.bit_energy_fully_connected(16, 0.0, E_T)
        assert e16 == pytest.approx(4 * e8)


class TestBanyanEq5:
    def test_wire_grids_closed_form(self):
        # 4 * sum 2^i = 4 (N - 1).
        assert analytical.banyan_wire_grids(16) == 4 * 15
        assert analytical.banyan_wire_grids(2) == 4

    def test_formula_no_contention(self):
        e = analytical.bit_energy_banyan(8, fJ(1080), E_T, contentions=0)
        assert e == pytest.approx(3 * fJ(1080) + 4 * 7 * E_T)

    def test_contention_adds_buffer_term(self):
        base = analytical.bit_energy_banyan(8, fJ(1080), E_T, fJ(1e6), contentions=0)
        hit = analytical.bit_energy_banyan(8, fJ(1080), E_T, fJ(1e6), contentions=2)
        assert hit - base == pytest.approx(2 * fJ(1e6))

    def test_default_contentions_is_worst_case(self):
        full = analytical.bit_energy_banyan(8, fJ(1080), E_T, fJ(1.0))
        explicit = analytical.bit_energy_banyan(8, fJ(1080), E_T, fJ(1.0), contentions=3)
        assert full == pytest.approx(explicit)

    def test_contentions_bounds(self):
        with pytest.raises(ConfigurationError):
            analytical.bit_energy_banyan(8, fJ(1080), E_T, contentions=4)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            analytical.bit_energy_banyan(6, fJ(1080), E_T)


class TestBatcherBanyanEq6:
    def test_stage_count(self):
        # n(n+1)/2 with n = log2 N.
        assert analytical.batcher_stage_count(4) == 3
        assert analytical.batcher_stage_count(8) == 6
        assert analytical.batcher_stage_count(16) == 10
        assert analytical.batcher_stage_count(32) == 15

    def test_wire_grids_double_sum(self):
        # 4 * sum_j sum_{i<=j} 2^i for n=3: 4*(1 + 3 + 7) = 44.
        assert analytical.batcher_wire_grids(8) == 4 * (1 + 3 + 7)

    def test_formula(self):
        e = analytical.bit_energy_batcher_banyan(8, fJ(1253), fJ(1080), E_T)
        wires = (analytical.batcher_wire_grids(8) + analytical.banyan_wire_grids(8)) * E_T
        switches = 6 * fJ(1253) + 3 * fJ(1080)
        assert e == pytest.approx(wires + switches)

    def test_requires_four_ports(self):
        with pytest.raises(ConfigurationError):
            analytical.bit_energy_batcher_banyan(2, fJ(1253), fJ(1080), E_T)

    def test_no_buffer_term(self):
        """Eq. 6 has no E_B: changing buffer energy must not matter.

        (Trivially true by signature — this documents the invariant.)
        """
        e = analytical.bit_energy_batcher_banyan(16, fJ(1253), fJ(1080), E_T)
        assert e > 0
