"""The paper's published measurement tables, verbatim.

These constants are the calibration anchors of the whole reproduction:

* **Table 1** — node-switch bit energy under different input vectors,
  pre-characterised by the authors with Synopsys Power Compiler on a
  0.18 um library.  Units here are joules (the paper prints 1e-15 J).
* **Table 2** — buffer bit energy of the N x N Banyan network's shared
  SRAM (paper prints 1e-12 J), along with switch counts and shared
  memory sizes.

Everything downstream defaults to these values; the
:mod:`repro.gatesim` and :mod:`repro.memmodel` packages regenerate
tables of the same *shape* from first principles (see the Table 1 and
Table 2 benches).
"""

from __future__ import annotations

from repro.units import fJ, pJ

# ---------------------------------------------------------------------------
# Table 1: bit energy under different input vectors (joules)
# ---------------------------------------------------------------------------

#: Crossbar crosspoint switch (1 data input): vector -> J per bit-slot.
CROSSBAR_SWITCH_ENERGY: dict[tuple[int, ...], float] = {
    (0,): 0.0,
    (1,): fJ(220.0),
}

#: Banyan 2x2 binary switch: vector -> J per bit-slot (whole switch).
BANYAN_SWITCH_ENERGY: dict[tuple[int, ...], float] = {
    (0, 0): 0.0,
    (0, 1): fJ(1080.0),
    (1, 0): fJ(1080.0),
    (1, 1): fJ(1821.0),
}

#: Batcher 2x2 sorting switch: vector -> J per bit-slot (whole switch).
BATCHER_SWITCH_ENERGY: dict[tuple[int, ...], float] = {
    (0, 0): 0.0,
    (0, 1): fJ(1253.0),
    (1, 0): fJ(1253.0),
    (1, 1): fJ(2025.0),
}

#: N-input MUX bit energy (J); the paper reports values "very close among
#: different input vectors", so a single figure per N.
MUX_ENERGY_BY_PORTS: dict[int, float] = {
    4: fJ(431.0),
    8: fJ(782.0),
    16: fJ(1350.0),
    32: fJ(2515.0),
}

#: MUX sizes characterised for Table 1's N-input rows.
TABLE1_MUX_SIZES = (4, 8, 16, 32)

#: Every Table 1 entry :func:`repro.gatesim.characterize.regenerate_table1`
#: characterises, keyed the same way as its ``raw``/``calibrated``/
#: ``reference`` dicts.  The campaign layer (``repro.campaigns``) sizes
#: and plans the ``table1`` campaign from this tuple, so extending the
#: characterisation extends the campaign automatically.
TABLE1_ENTRIES = (
    "crossbar[1]",
    "banyan[0,1]",
    "banyan[1,1]",
    "batcher[0,1]",
    "batcher[1,1]",
) + tuple(f"mux{n}" for n in TABLE1_MUX_SIZES)

# ---------------------------------------------------------------------------
# Table 2: buffer bit energy of N x N Banyan network
# ---------------------------------------------------------------------------

#: Per-switch buffer queue size used by the paper (Section 5.1).
BANYAN_BUFFER_BITS_PER_SWITCH: int = 4 * 1024

#: ports -> (number of 2x2 switches, shared SRAM size in bits, J per bit).
BANYAN_BUFFER_TABLE: dict[int, tuple[int, int, float]] = {
    4: (4, 16 * 1024, pJ(140.0)),
    8: (12, 48 * 1024, pJ(140.0)),
    16: (32, 128 * 1024, pJ(154.0)),
    32: (80, 320 * 1024, pJ(222.0)),
}

#: ports -> J per buffered bit (convenience view of Table 2).
BANYAN_BUFFER_ENERGY_BY_PORTS: dict[int, float] = {
    n: row[2] for n, row in BANYAN_BUFFER_TABLE.items()
}

# ---------------------------------------------------------------------------
# Other paper constants
# ---------------------------------------------------------------------------

#: Per-grid wire flip energy quoted in Section 5.1 (0.18um/3.3V/32-bit bus).
PAPER_GRID_BIT_ENERGY_J: float = fJ(87.0)

#: Theoretical maximum egress throughput with FIFO input buffering
#: (2 - sqrt(2), quoted as 58.6% in Section 6).
MAX_INPUT_QUEUED_THROUGHPUT: float = 0.586

#: Port counts evaluated by the paper.
PAPER_PORT_COUNTS: tuple[int, ...] = (4, 8, 16, 32)

#: Egress-throughput sweep range of Fig. 9.
PAPER_THROUGHPUT_RANGE: tuple[float, float] = (0.10, 0.50)


def banyan_switch_count(ports: int) -> int:
    """Number of 2x2 switches in an N x N Banyan: ``N/2 * log2(N)``.

    Matches the "Number of Switches" column of Table 2.
    """
    if ports < 2 or ports & (ports - 1):
        raise ValueError(f"ports must be a power of two >= 2, got {ports}")
    return (ports // 2) * (ports.bit_length() - 1)


def banyan_shared_sram_bits(ports: int) -> int:
    """Shared SRAM size backing all Banyan node buffers (Table 2 column 3)."""
    return banyan_switch_count(ports) * BANYAN_BUFFER_BITS_PER_SWITCH
