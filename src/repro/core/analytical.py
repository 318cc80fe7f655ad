"""Closed-form worst-case bit energies (paper Eq. 3-6).

These are the per-bit energies of the four analysed fabrics as published,
parameterised on the Table 1 LUT values and the per-grid wire energy
``E_T``.  They describe the *worst case* path (longest wires, every wire
bit flipping, buffer hit at every contended stage) and are used:

* as a fast sanity envelope for the dynamic simulation (measured per-bit
  energy must not exceed the worst case);
* by the analytical estimator (:mod:`repro.core.estimator`) with
  activity-derating factors applied.

All functions return joules per bit.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def _require_power_of_two(ports: int, minimum: int) -> int:
    """Validate a port count and return ``n = log2(ports)``."""
    if ports < minimum or ports & (ports - 1):
        raise ConfigurationError(
            f"ports must be a power of two >= {minimum}, got {ports}"
        )
    return ports.bit_length() - 1


def bit_energy_crossbar(
    ports: int,
    switch_energy_j: float,
    grid_energy_j: float,
) -> float:
    """Eq. 3: ``E_bit = N * E_S + 8N * E_T``.

    A bit from input *i* to output *j* drives the full row wire (length
    ``4N`` grids), the full column wire (another ``4N``), and toggles the
    input gates of all ``N`` crosspoints on the row.

    Parameters
    ----------
    ports: number of input (= output) ports N.
    switch_energy_j: ``E_S`` of one crosspoint (Table 1: 220 fJ).
    grid_energy_j: ``E_T`` per-grid wire energy (Section 5.1: 87 fJ).
    """
    if ports < 1:
        raise ConfigurationError(f"crossbar needs >= 1 port, got {ports}")
    return ports * switch_energy_j + 8 * ports * grid_energy_j


def bit_energy_fully_connected(
    ports: int,
    mux_energy_j: float,
    grid_energy_j: float,
) -> float:
    """Eq. 4: ``E_bit = E_S(mux) + 1/2 * N^2 * E_T``.

    Each bit crosses exactly one N-input MUX; the Thompson embedding
    (MUXes in a double row) makes the input-to-MUX bus about ``N^2 / 2``
    grids long.
    """
    if ports < 2:
        raise ConfigurationError(f"fully connected needs >= 2 ports, got {ports}")
    return mux_energy_j + 0.5 * ports * ports * grid_energy_j


def banyan_wire_grids(ports: int) -> int:
    """Worst-case Banyan wire length in grids: ``4 * sum(2^i) = 4(N-1)``."""
    n = _require_power_of_two(ports, 2)
    return 4 * sum(2**i for i in range(n))


def bit_energy_banyan(
    ports: int,
    switch_energy_j: float,
    grid_energy_j: float,
    buffer_energy_j: float = 0.0,
    contentions: int | None = None,
) -> float:
    """Eq. 5: ``E_bit = sum(q_i * E_B) + 4 * sum(2^i * E_T) + n * E_S``.

    Parameters
    ----------
    ports: N (power of two, >= 2).
    switch_energy_j: ``E_S`` of the 2x2 binary switch.
    grid_energy_j: ``E_T``.
    buffer_energy_j: ``E_B`` per buffered bit (Table 2).
    contentions: number of stages at which the bit loses contention
        (the ``q_i`` sum); defaults to the worst case of every stage.
    """
    n = _require_power_of_two(ports, 2)
    if contentions is None:
        contentions = n
    if not 0 <= contentions <= n:
        raise ConfigurationError(
            f"contentions must be in [0, {n}], got {contentions}"
        )
    wire = banyan_wire_grids(ports) * grid_energy_j
    return contentions * buffer_energy_j + wire + n * switch_energy_j


def batcher_wire_grids(ports: int) -> int:
    """Worst-case Batcher sorter wire grids: ``4 * sum_j sum_{i<=j} 2^i``."""
    n = _require_power_of_two(ports, 4)
    return 4 * sum(sum(2**i for i in range(j + 1)) for j in range(n))


def batcher_stage_count(ports: int) -> int:
    """Number of sorting stages: ``n(n+1)/2`` with ``n = log2(N)``."""
    n = _require_power_of_two(ports, 4)
    return n * (n + 1) // 2


def bit_energy_batcher_banyan(
    ports: int,
    sorting_switch_energy_j: float,
    binary_switch_energy_j: float,
    grid_energy_j: float,
) -> float:
    """Eq. 6: worst-case bit energy of the Batcher-Banyan fabric.

    ``E_bit = 4*sum_j sum_{i<=j} 2^i * E_T   (sorter wires)
            + 4*sum_i 2^i * E_T              (banyan wires)
            + n(n+1)/2 * E_SS                (sorting switches)
            + n * E_SB                       (binary switches)``

    There is no buffer term: after sorting, paths are contention free.
    """
    n = _require_power_of_two(ports, 4)
    wires = (batcher_wire_grids(ports) + banyan_wire_grids(ports)) * grid_energy_j
    switches = batcher_stage_count(ports) * sorting_switch_energy_j
    switches += n * binary_switch_energy_j
    return wires + switches

