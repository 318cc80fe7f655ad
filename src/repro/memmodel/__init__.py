"""Buffer memory energy models (paper Section 3.2 / Table 2).

The paper reads per-access energy off an off-the-shelf 0.18 um 3.3 V
SRAM datasheet at 133 MHz.  We replace the datasheet with an analytical
model whose constants are fitted to the paper's own Table 2, so that

* the four published points (16K/48K/128K/320K bits -> 140/140/154/222
  pJ per bit) are reproduced within a few percent, and
* other buffer sizes (for the buffer-depth ablation) interpolate and
  extrapolate sensibly.

A DRAM variant adds the refresh term ``E_ref`` of Eq. 1.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".sram": ("SramMacro", "fit_bank_model"),
    ".dram": ("DramMacro",),
    ".buffers": (
        "banyan_buffer_model", "buffer_model_for_memory", "shared_buffer_bits",
    ),
})
